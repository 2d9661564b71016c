"""Tests for suite runners and sweeps."""

import pytest

from repro.common.errors import SimulationError, StoreError
from repro.obs.progress import SweepObserver
from repro.sim.runner import run_sweep
from repro.sim.sweep import run_workload, speedups


CONFIGS = {
    "base": {},
    "perfect": {"perfect_non_cold": True},
}


class TestRunWorkload:
    def test_returns_all_configs(self):
        res = run_workload("gzip", CONFIGS, length=2000)
        assert set(res) == {"base", "perfect"}
        assert res["base"].accesses == 2000

    def test_default_warmup_one_third(self):
        res = run_workload("gzip", CONFIGS, length=3000)
        assert res["base"].accesses == 3000  # measured accesses = length

    def test_explicit_warmup(self):
        res = run_workload("gzip", CONFIGS, length=1000, warmup=500)
        assert res["base"].accesses == 1000

    def test_ipa_defaults_from_spec(self):
        res = run_workload("eon", {"base": {}}, length=1000)
        # eon has ipa 60: instructions = accesses * 60
        assert res["base"].timing.instructions == 1000 * 60

    def test_config_can_override_ipa(self):
        res = run_workload("eon", {"base": {"ipa": 1.0}}, length=1000)
        assert res["base"].timing.instructions == 1000

    def test_bad_length_or_warmup_names_the_given_value(self):
        # Not the trace length (length plus the derived warm-up).
        with pytest.raises(SimulationError, match="length must be >= 1, got -3"):
            run_workload("gzip", CONFIGS, length=-3)
        with pytest.raises(SimulationError, match="warmup must be >= 0, got -5"):
            run_workload("gzip", CONFIGS, length=100, warmup=-5)


def _suite(configs, **kwargs):
    """A suite the way library callers get one: raise on any failed cell."""
    report = run_sweep(configs, **kwargs)
    report.raise_on_failure()
    return report.results


class _StartedWorkloads(SweepObserver):
    def __init__(self):
        self.seen = []

    def on_cell_start(self, workload, config, attempt):
        self.seen.append(workload)


class TestRunSuite:
    """Many workloads under many configurations, through ``run_sweep``."""

    def test_subset_of_workloads(self):
        out = _suite(CONFIGS, workloads=["gzip", "eon"], length=1500)
        assert list(out) == ["gzip", "eon"]

    def test_progress_callback(self):
        observer = _StartedWorkloads()
        _suite({"base": {}}, workloads=["gzip"], length=500, observer=observer)
        assert observer.seen == ["gzip"]


class TestRunSuiteFaultTolerance:
    def test_parallel_workers_match_serial(self):
        serial = _suite(CONFIGS, workloads=["gzip", "eon"], length=1500)
        parallel = _suite(CONFIGS, workloads=["gzip", "eon"], length=1500,
                          workers=2)
        assert set(parallel) == set(serial)
        for workload in serial:
            for name in CONFIGS:
                assert parallel[workload][name].ipc == serial[workload][name].ipc
                assert (parallel[workload][name].l1_misses
                        == serial[workload][name].l1_misses)

    def test_delegated_path_raises_summarized_failures(self):
        configs = {"base": {}, "bad": {"prefetcher": "warp-drive"}}
        with pytest.raises(SimulationError, match="sweep cells failed"):
            _suite(configs, workloads=["gzip"], length=800, workers=2)

    def test_store_and_resume(self, tmp_path):
        store = tmp_path / "suite.jsonl"
        first = _suite(CONFIGS, workloads=["gzip"], length=1500, store=store)
        again = _suite(CONFIGS, workloads=["gzip"], length=1500,
                       store=store, resume=True)
        assert again["gzip"]["base"] == first["gzip"]["base"]

    def test_store_refuses_silent_overwrite(self, tmp_path):
        store = tmp_path / "suite.jsonl"
        _suite(CONFIGS, workloads=["gzip"], length=1000, store=store)
        with pytest.raises(StoreError, match="resume"):
            _suite(CONFIGS, workloads=["gzip"], length=1000, store=store)

    def test_progress_still_per_workload_when_delegated(self):
        observer = _StartedWorkloads()
        _suite({"base": {}}, workloads=["gzip", "eon"], length=800,
               workers=2, observer=observer)
        assert sorted(observer.seen) == ["eon", "gzip"]


class TestSpeedups:
    def test_speedups_relative_to_baseline(self):
        # vpr's conflict thrash produces non-cold misses within a short
        # trace, so the perfect cache shows a gain immediately.
        out = _suite(CONFIGS, workloads=["vpr"], length=6000)
        sp = speedups(out, "perfect", "base")
        assert sp["vpr"] > 0

    def test_missing_config_raises_with_available_names(self):
        out = _suite(CONFIGS, workloads=["gzip"], length=800)
        with pytest.raises(SimulationError) as exc:
            speedups(out, "victim_tk", "base")
        message = str(exc.value)
        assert "victim_tk" in message
        assert "base" in message and "perfect" in message  # names listed

    def test_missing_baseline_raises(self):
        out = _suite({"perfect": {"perfect_non_cold": True}},
                     workloads=["gzip"], length=800)
        with pytest.raises(SimulationError, match="'base'"):
            speedups(out, "perfect", "base")
