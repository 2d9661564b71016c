"""Tests for the fault-tolerant experiment runner."""

import json
import os
import re
import time

import pytest

from repro.common.errors import ConfigError, SimulationError, StoreError, TraceError
from repro.figures.pipeline import run_paper
from repro.obs.progress import SweepObserver
from repro.sim.runner import CellFailure, SweepReport, run_sweep
from repro.sim.store import RunStore
from repro.sim.sweep import CONFIG_PRESETS, run_workload
from repro.traces.cache import TraceCache

CONFIGS = {"base": {}, "perfect": {"perfect_non_cold": True}}

LENGTH = 1200


# Module-level fault hooks: picklable by reference, so they survive the
# trip into pool workers; the `attempt` argument lets a hook be flaky
# without cross-process shared state.

def _raise_runtime(workload, config, attempt):
    if config == "boom":
        raise RuntimeError("injected fault")


def _raise_config_error(workload, config, attempt):
    if config == "boom":
        raise ConfigError("injected permanent fault")


def _flaky_first_attempt(workload, config, attempt):
    if config == "boom" and attempt == 1:
        raise RuntimeError("flaky: first attempt fails")


def _hang_one_cell(workload, config, attempt):
    if workload == "eon" and config == "base":
        time.sleep(30)


def _crash_worker(workload, config, attempt):
    if config == "boom":
        os._exit(7)


def _crash_first_attempt(workload, config, attempt):
    if config == "boom" and attempt == 1:
        os._exit(7)


def _raise_and_hang(workload, config, attempt):
    if workload == "gzip":
        raise ValueError("injected raise")
    if workload == "eon":
        time.sleep(30)


def _count_executions(workload, config, attempt):
    # In-memory counters don't propagate back from workers; log to a file.
    path = os.environ["REPRO_TEST_EXEC_LOG"]
    with open(path, "a") as fh:
        fh.write(f"{workload}:{config}\n")


class _StartedAttempts(SweepObserver):
    def __init__(self):
        self.started = []

    def on_cell_start(self, workload, config, attempt):
        self.started.append((workload, config, attempt))


def _cells(report):
    return {
        (w, c): r for w, configs in report.results.items() for c, r in configs.items()
    }


class TestSerialEngine:
    def test_matches_run_workload(self):
        report = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH)
        direct = run_workload("gzip", CONFIGS, length=LENGTH)
        for name in CONFIGS:
            assert report.results["gzip"][name].ipc == direct[name].ipc
            assert report.results["gzip"][name].l1_misses == direct[name].l1_misses
        assert report.executed == 2
        assert report.replayed == 0
        assert not report.failures

    def test_failure_recorded_not_raised(self):
        report = run_sweep(
            {"base": {}, "boom": {}},
            workloads=["gzip", "eon"],
            length=LENGTH,
            fault_hook=_raise_runtime,
        )
        assert len(report.failures) == 2
        failure = report.failures[0]
        assert failure.error_type == "RuntimeError"
        assert "injected fault" in failure.message
        assert "RuntimeError" in failure.traceback
        assert failure.attempts == 1
        # The healthy cells all completed.
        assert set(_cells(report)) == {("gzip", "base"), ("eon", "base")}

    def test_retry_then_succeed(self):
        report = run_sweep(
            {"base": {}, "boom": {}},
            workloads=["gzip"],
            length=LENGTH,
            retries=2,
            backoff=0.01,
            fault_hook=_flaky_first_attempt,
        )
        assert not report.failures
        assert report.attempts[("gzip", "boom")] == 2
        assert report.attempts[("gzip", "base")] == 1

    def test_permanent_error_not_retried(self):
        calls = []

        def hook(workload, config, attempt):
            calls.append(attempt)
            raise ConfigError("always broken")

        report = run_sweep(
            {"base": {}}, workloads=["gzip"], length=LENGTH,
            retries=3, backoff=0.01, fault_hook=hook,
        )
        assert calls == [1]
        assert report.failures[0].error_type == "ConfigError"
        assert report.failures[0].attempts == 1

    def test_unknown_workload_fails_fast(self):
        with pytest.raises(TraceError, match="unknown workload"):
            run_sweep(CONFIGS, workloads=["warp9"], length=LENGTH)

    def test_argument_validation(self):
        with pytest.raises(SimulationError, match="workers"):
            run_sweep(CONFIGS, workloads=["gzip"], workers=0)
        with pytest.raises(SimulationError, match="retries"):
            run_sweep(CONFIGS, workloads=["gzip"], retries=-1)
        with pytest.raises(SimulationError, match="timeout"):
            run_sweep(CONFIGS, workloads=["gzip"], timeout=0)
        with pytest.raises(SimulationError, match="hang_grace must be positive, got 0"):
            run_sweep(CONFIGS, workloads=["gzip"], hang_grace=0)
        with pytest.raises(SimulationError, match="no configurations"):
            run_sweep({}, workloads=["gzip"])

    @pytest.mark.parametrize("kwargs,message", [
        ({"length": 0}, "length must be >= 1, got 0"),
        ({"length": -3}, "length must be >= 1, got -3"),
        ({"length": LENGTH, "warmup": -1}, "warmup must be >= 0, got -1"),
    ])
    def test_bad_length_or_warmup_refused_before_the_store(
        self, tmp_path, kwargs, message
    ):
        # The error names the value given, and no manifest is written:
        # a corrected rerun into the same store must not be refused.
        store = tmp_path / "run.jsonl"
        with pytest.raises(SimulationError, match=message):
            run_sweep(CONFIGS, workloads=["gzip"], store=store, **kwargs)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kwargs,message", [
        ({"length": -1}, "length must be >= 1, got -1"),
        ({"length": LENGTH, "warmup": -5}, "warmup must be >= 0, got -5"),
    ])
    def test_paper_bad_length_or_warmup_leaves_no_out_dir(
        self, tmp_path, kwargs, message
    ):
        out = tmp_path / "D"
        with pytest.raises(SimulationError, match=message):
            run_paper(out_dir=out, **kwargs)
        assert not out.exists()

    def test_paper_store_in_missing_dir_leaves_no_out_dir(self, tmp_path):
        # Refused before anything is created, naming the directory.
        out = tmp_path / "D"
        missing = tmp_path / "missing"
        with pytest.raises(StoreError, match=re.escape(
            f"store directory {missing} does not exist"
        )):
            run_paper(only=["fig02"], out_dir=out, length=LENGTH,
                      workloads=["gzip"], store_path=str(missing / "s.jsonl"))
        assert list(tmp_path.iterdir()) == []

    def test_paper_unknown_workload_leaves_no_out_dir(self, tmp_path):
        # Refused as run_sweep refuses it, not run as an empty campaign.
        out = tmp_path / "D"
        with pytest.raises(TraceError, match="unknown workload 'gzpi'"):
            run_paper(only=["fig02"], out_dir=out, smoke=True, workloads=["gzpi"])
        assert not out.exists()

    @pytest.mark.parametrize("kwargs,message", [
        ({"workers": 0}, "workers must be >= 1, got 0"),
        ({"retries": -1}, "retries must be >= 0, got -1"),
        ({"timeout": 0}, "timeout must be positive, got 0"),
    ])
    def test_paper_bad_sweep_option_leaves_no_out_dir(self, tmp_path, kwargs, message):
        out = tmp_path / "D"
        with pytest.raises(SimulationError, match=message):
            run_paper(only=["fig02"], out_dir=out, smoke=True, workloads=["gzip"],
                      **kwargs)
        assert not out.exists()

    @pytest.mark.parametrize("value", [True, "history.jsonl"])
    def test_obs_history_request_refused(self, tmp_path, value):
        # The run-history store is gone: asking for one is an error, not
        # a silently dropped record, and nothing is written first.
        with pytest.raises(SimulationError, match="obs_history"):
            run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                      store=tmp_path / "run.jsonl", obs_history=value)
        with pytest.raises(SimulationError, match="obs_history"):
            run_paper(out_dir=str(tmp_path / "paper"), obs_history=value)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [None, False])
    def test_obs_history_off_is_inert(self, tmp_path, value):
        # perfbench's two calls, by keyword, at a small scale.
        cache = TraceCache(root=tmp_path / "traces")
        report = run_sweep(
            {name: CONFIG_PRESETS[name] for name in ("base", "perfect")},
            workloads=["gzip"], length=LENGTH, warmup=LENGTH // 2, seed=0,
            workers=1, store=str(tmp_path / "plain.jsonl"), trace_cache=cache,
            observer=None, obs_history=value,
        )
        assert report.ok_cells == 2 and not report.failures
        run = run_paper(
            out_dir=str(tmp_path / "paper"), length=LENGTH, warmup=LENGTH // 2,
            seed=0, resume=False, workers=1, trace_cache=cache, observer=None,
            obs_history=value, only=["fig02"], workloads=["gzip"],
        )
        assert run.executed > 0 and run.failures == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "paper", "plain.jsonl", "plain.jsonl.lock", "traces",
        ]

    def test_progress_reports_each_cell(self):
        # The observer's on_cell_start is the one attempt-start callback:
        # every cell reports once per attempt, in-process and on the pool.
        for workers in (1, 2):
            observer = _StartedAttempts()
            report = run_sweep(
                {"base": {}, "boom": {}}, workloads=["gzip", "eon"],
                length=LENGTH, workers=workers, retries=1, backoff=0.01,
                fault_hook=_flaky_first_attempt, observer=observer,
            )
            assert not report.failures, workers
            assert sorted(observer.started) == [
                ("eon", "base", 1), ("eon", "boom", 1), ("eon", "boom", 2),
                ("gzip", "base", 1), ("gzip", "boom", 1), ("gzip", "boom", 2),
            ], workers


class TestPoolEngine:
    def test_parallel_matches_serial(self):
        workloads = ["gzip", "eon", "vpr", "swim"]
        serial = run_sweep(CONFIGS, workloads=workloads, length=LENGTH, workers=1)
        parallel = run_sweep(CONFIGS, workloads=workloads, length=LENGTH, workers=4)
        assert set(_cells(parallel)) == set(_cells(serial))
        for key, expect in _cells(serial).items():
            got = _cells(parallel)[key]
            assert got.ipc == expect.ipc, key
            assert got.l1_misses == expect.l1_misses, key
            assert got.miss_counts == expect.miss_counts, key
            assert got.outcomes == expect.outcomes, key

    def test_failure_isolated(self):
        # A config whose simulate() call raises mid-cell: the remaining
        # cells complete and the failure is structured.
        report = run_sweep(
            {"base": {}, "bad": {"prefetcher": "warp-drive"}},
            workloads=["gzip", "eon"],
            length=LENGTH,
            workers=2,
        )
        assert len(report.failures) == 2
        assert {f.error_type for f in report.failures} == {"SimulationError"}
        assert set(_cells(report)) == {("gzip", "base"), ("eon", "base")}

    def test_retry_in_pool(self):
        report = run_sweep(
            {"base": {}, "boom": {}},
            workloads=["gzip"],
            length=LENGTH,
            workers=2,
            retries=1,
            backoff=0.01,
            fault_hook=_flaky_first_attempt,
        )
        assert not report.failures
        assert report.attempts[("gzip", "boom")] == 2


class TestProcessEngine:
    def test_timeout_recorded_and_siblings_complete(self):
        start = time.monotonic()
        report = run_sweep(
            {"base": {}},
            workloads=["gzip", "eon", "vpr"],
            length=LENGTH,
            workers=2,
            timeout=1.5,
            fault_hook=_hang_one_cell,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 20  # nowhere near the 30s hang
        assert [f.error_type for f in report.failures] == ["CellTimeoutError"]
        failure = report.failures[0]
        assert (failure.workload, failure.config) == ("eon", "base")
        assert "wall-clock" in failure.message
        assert set(_cells(report)) == {("gzip", "base"), ("vpr", "base")}

    def test_timeout_not_retried(self):
        report = run_sweep(
            {"base": {}},
            workloads=["eon"],
            length=LENGTH,
            timeout=1.0,
            retries=2,
            backoff=0.01,
            fault_hook=_hang_one_cell,
        )
        assert report.failures[0].attempts == 1

    def test_worker_crash_recorded(self):
        report = run_sweep(
            {"base": {}, "boom": {}},
            workloads=["gzip"],
            length=LENGTH,
            workers=2,
            timeout=30,
            fault_hook=_crash_worker,
        )
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.error_type == "WorkerCrash"
        assert "7" in failure.message
        assert ("gzip", "base") in _cells(report)

    def test_worker_crash_retried(self):
        report = run_sweep(
            {"boom": {}},
            workloads=["gzip"],
            length=LENGTH,
            timeout=30,
            retries=1,
            backoff=0.01,
            fault_hook=_crash_first_attempt,
        )
        assert not report.failures
        assert report.attempts[("gzip", "boom")] == 2

    def test_serial_with_timeout_matches_plain(self):
        # workers=1 + timeout runs out-of-process but must be bitwise
        # identical to the in-process path.
        plain = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH)
        isolated = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, timeout=60)
        for name in CONFIGS:
            assert isolated.results["gzip"][name].ipc == plain.results["gzip"][name].ipc


class TestCheckpointResume:
    WORKLOADS = ["gzip", "eon"]
    SWEEP = {"base": {}, "boom": {}}

    def test_resume_reruns_only_failed_and_missing(self, tmp_path):
        store = tmp_path / "run.jsonl"
        first = run_sweep(
            self.SWEEP, workloads=self.WORKLOADS, length=LENGTH,
            store=store, fault_hook=_raise_config_error,
        )
        assert first.executed == 4
        assert len(first.failures) == 2
        second = run_sweep(
            self.SWEEP, workloads=self.WORKLOADS, length=LENGTH,
            store=store, resume=True,
        )
        # Only the two failed cells re-ran; the completed ones replayed.
        assert second.executed == 2
        assert second.replayed == 2
        assert not second.failures
        assert len(_cells(second)) == 4
        # The re-run cells' lines supersede their failure records.
        _, cells = RunStore(store).load()
        assert {key: rec["status"] for key, rec in cells.items()} == {
            (w, c): "ok" for w in self.WORKLOADS for c in self.SWEEP
        }

    def test_replayed_results_match_fresh_run(self, tmp_path):
        store = tmp_path / "run.jsonl"
        fresh = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, store=store)
        replayed = run_sweep(
            CONFIGS, workloads=["gzip"], length=LENGTH, store=store, resume=True
        )
        assert replayed.executed == 0
        assert replayed.replayed == 2
        for name in CONFIGS:
            assert replayed.results["gzip"][name] == fresh.results["gzip"][name]

    def test_replayed_metric_banks_match_live(self, tmp_path):
        # A cell that collects metric banks stores them, so the replayed
        # result is the live one, banks included.
        configs = {"base": {"collect_metrics": True}}
        store = tmp_path / "run.jsonl"
        live = run_sweep(configs, workloads=["gzip"], length=LENGTH, store=store)
        replayed = run_sweep(configs, workloads=["gzip"], length=LENGTH,
                             store=store, resume=True)
        assert replayed.replayed == 1 and replayed.executed == 0
        want = live.results["gzip"]["base"]
        got = replayed.results["gzip"]["base"]
        assert want.metrics is not None and got.metrics is not None
        assert got.to_dict(include_metrics=True) == want.to_dict(include_metrics=True)

    def test_resume_extends_to_new_workloads(self, tmp_path):
        store = tmp_path / "run.jsonl"
        run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, store=store)
        extended = run_sweep(
            CONFIGS, workloads=["gzip", "eon"], length=LENGTH,
            store=store, resume=True,
        )
        assert extended.replayed == 2
        assert extended.executed == 2
        assert set(extended.results) == {"gzip", "eon"}

    def test_store_refuses_overwrite_without_resume(self, tmp_path):
        store = tmp_path / "run.jsonl"
        run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, store=store)
        with pytest.raises(StoreError, match="resume"):
            run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, store=store)

    def test_resume_rejects_incompatible_parameters(self, tmp_path):
        store = tmp_path / "run.jsonl"
        run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, store=store)
        with pytest.raises(StoreError, match="length"):
            run_sweep(
                CONFIGS, workloads=["gzip"], length=LENGTH * 2,
                store=store, resume=True,
            )

    def test_resume_rejects_changed_config(self, tmp_path):
        store = tmp_path / "run.jsonl"
        run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, store=store)
        changed = {"base": {"victim_filter": "timekeeping"}, "perfect": CONFIGS["perfect"]}
        with pytest.raises(StoreError, match="'base'"):
            run_sweep(
                changed, workloads=["gzip"], length=LENGTH,
                store=store, resume=True,
            )

    def test_failures_checkpointed_as_structured_records(self, tmp_path):
        store = tmp_path / "run.jsonl"
        run_sweep(
            self.SWEEP, workloads=["gzip"], length=LENGTH,
            store=store, fault_hook=_raise_config_error,
        )
        records = [json.loads(line) for line in store.read_text().splitlines()]
        failed = [r for r in records if r.get("status") == "failed"]
        assert len(failed) == 1
        failure = CellFailure.from_dict(failed[0]["failure"])
        assert failure.error_type == "ConfigError"
        assert failure.workload == "gzip"
        assert "injected permanent fault" in failure.message

    def test_accepts_open_run_store_instance(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunStore(path) as store:
            report = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, store=store)
        assert report.executed == 2
        assert path.exists()


class TestAcceptanceScenario:
    """One raising cell + one timed-out cell, then resume re-runs only them."""

    def test_mixed_failures_then_resume(self, tmp_path, monkeypatch):
        store = tmp_path / "campaign.jsonl"
        workloads = ["gzip", "eon", "vpr", "swim"]
        first = run_sweep(
            {"base": {}},
            workloads=workloads,
            length=LENGTH,
            workers=2,
            timeout=1.5,
            store=store,
            fault_hook=_raise_and_hang,
        )
        # The two healthy cells completed despite the raise and the hang.
        assert set(_cells(first)) == {("vpr", "base"), ("swim", "base")}
        by_type = {f.error_type: (f.workload, f.config) for f in first.failures}
        assert by_type == {
            "ValueError": ("gzip", "base"),
            "CellTimeoutError": ("eon", "base"),
        }
        for failure in first.failures:
            assert isinstance(failure, CellFailure)
            assert failure.attempts == 1

        # Resume executes exactly the two failed cells — counted both by
        # the report and by an execution log written from the workers.
        log = tmp_path / "exec.log"
        log.touch()
        monkeypatch.setenv("REPRO_TEST_EXEC_LOG", str(log))
        second = run_sweep(
            {"base": {}},
            workloads=workloads,
            length=LENGTH,
            workers=2,
            timeout=30,
            store=store,
            resume=True,
            fault_hook=_count_executions,
        )
        executed = sorted(log.read_text().splitlines())
        assert executed == ["eon:base", "gzip:base"]
        assert second.executed == 2
        assert second.replayed == 2
        assert not second.failures
        assert set(_cells(second)) == {(w, "base") for w in workloads}


class TestSweepReport:
    def test_raise_on_failure(self):
        report = SweepReport(results={"gzip": {}})
        report.raise_on_failure()  # no failures: no raise
        report.failures.append(
            CellFailure("gzip", "base", "RuntimeError", "boom", "", 1)
        )
        with pytest.raises(SimulationError, match="gzip:base"):
            report.raise_on_failure()

    def test_failure_roundtrip(self):
        failure = CellFailure("gzip", "base", "RuntimeError", "boom", "tb", 3)
        assert CellFailure.from_dict(failure.to_dict()) == failure
