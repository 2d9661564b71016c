"""Telemetry collection through the sweep runner, and the observability
additions to CellFailure/SweepReport.

The heavier multi-process cases reuse the small workload set the other
runner tests use so the suite stays fast.
"""

import collections
import dataclasses
import json
import time

import pytest

from repro.common.errors import ConfigError
from repro.obs.metrics import PHASES, Telemetry
from repro.obs.progress import SweepObserver
from repro.sim.results import SimulationResult
from repro.sim.runner import CellFailure, SweepReport, run_sweep
from repro.sim.store import RunStore
from repro.traces.cache import TraceCache, trace_key

CONFIGS = {"base": {}, "victim": {"victim_filter": "unfiltered"}}

LENGTH = 1200

#: Accesses one cell simulates: LENGTH plus the default length // 3 warm-up.
CELL_ACCESSES = LENGTH + LENGTH // 3

#: The keys of one executed cell's telemetry.
CELL_KEYS = {"pid", "attempt", "phases", "counters"}


def _engines_used(counters):
    return sum(n for name, n in counters.items()
               if name.startswith("sim.engine_used."))


def _permanent_fault(workload, config, attempt):
    if config == "victim":
        raise ConfigError("injected permanent fault")


class TestCellFailureRoundTrip:
    def _full_failure(self):
        # One non-default value per field, built exhaustively so adding a
        # field to CellFailure without serializing it fails this test.
        values = {
            "workload": "gzip",
            "config": "boom",
            "error_type": "RuntimeError",
            "message": "injected",
            "traceback": "Traceback (most recent call last): ...",
            "attempts": 3,
            "telemetry": {"pid": 123, "attempt": 3,
                          "phases": {"synthesis": [1.0, 0.5]},
                          "counters": {"trace_cache.miss": 1}},
        }
        assert set(values) == {f.name for f in dataclasses.fields(CellFailure)}
        return CellFailure(**values)

    def test_to_dict_serializes_every_field(self):
        failure = self._full_failure()
        data = failure.to_dict()
        assert set(data) == {f.name for f in dataclasses.fields(CellFailure)}
        for field in dataclasses.fields(CellFailure):
            assert data[field.name] == getattr(failure, field.name)

    def test_round_trip_is_exact(self):
        failure = self._full_failure()
        assert CellFailure.from_dict(failure.to_dict()) == failure

    def test_round_trip_survives_json(self):
        failure = self._full_failure()
        data = json.loads(json.dumps(failure.to_dict()))
        assert CellFailure.from_dict(data) == failure

    def test_from_dict_ignores_unknown_keys(self):
        data = self._full_failure().to_dict()
        data["added_by_future_version"] = 42
        data["poisoned"] = True  # written by builds that quarantined failures
        assert CellFailure.from_dict(data) == self._full_failure()

    def test_from_dict_defaults_absent_optional_fields(self):
        failure = CellFailure.from_dict(
            {"workload": "w", "config": "c", "error_type": "E", "message": "m"})
        assert failure.traceback == ""
        assert failure.attempts == 1
        assert failure.telemetry is None


class TestSweepReportSummary:
    def test_plain_run(self):
        report = SweepReport(results={"gzip": {"base": object(), "victim": object()}},
                             wall_time=12.34)
        assert report.summary() == ("2 cells: 2 ok (0 replayed from store), "
                                    "0 failed, 0 retried in 12.3s")

    def test_replayed_and_retried_and_failed(self):
        report = SweepReport(
            results={"gzip": {"base": object()}},
            failures=[CellFailure("eon", "boom", "E", "m", attempts=2)],
            replayed=1,
            attempts={("gzip", "base"): 1, ("eon", "boom"): 2},
            wall_time=0.96,
        )
        assert report.summary() == (
            "2 cells: 1 ok (1 replayed from store), 1 failed, 1 retried in 1.0s"
        )


class TestSerialTelemetry:
    def test_ambient_telemetry_enables_collection(self):
        with Telemetry() as ambient:
            report = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                               trace_cache=False)
        assert set(report.cell_telemetry) == {("gzip", "base"), ("gzip", "victim")}
        for tele in report.cell_telemetry.values():
            phases = tele["phases"]
            # Serial engine: no spawn phase, no store: no serialize
            # phase, and phases run in order.
            order = sorted(phases, key=lambda name: phases[name][0])
            assert order == ["synthesis", "simulate"]
            assert all(dur >= 0 for _start, dur in phases.values())
        # Worker counters fold into the ambient collector: one engine
        # and one trace's accesses per simulator run.
        assert _engines_used(ambient.counters) == 2
        assert ambient.counters["sim.accesses"] == 2 * CELL_ACCESSES
        assert report.telemetry["phases"]["execute"][1] > 0

    def test_results_identical_with_and_without_telemetry(self):
        plain = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                          trace_cache=False)
        with Telemetry():
            observed = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                                 trace_cache=False)
        for config in CONFIGS:
            assert (plain.results["gzip"][config].to_dict()
                    == observed.results["gzip"][config].to_dict())

    def test_failed_cell_carries_telemetry_snapshot(self):
        report = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                           trace_cache=False, fault_hook=_permanent_fault)
        (failure,) = report.failures
        assert failure.config == "victim"
        # The fault hook fires after synthesis, so the snapshot holds the
        # phases completed up to the failure.
        assert "synthesis" in failure.telemetry["phases"]
        assert "simulate" not in failure.telemetry["phases"]
        # And the snapshot survives the to_dict round-trip used by stores.
        assert CellFailure.from_dict(failure.to_dict()).telemetry == failure.telemetry


class TestWorkerProcessTelemetry:
    def test_counters_aggregate_across_worker_processes(self, tmp_path):
        report = run_sweep(
            CONFIGS, workloads=["gzip", "eon"], length=LENGTH, workers=2,
            trace_cache=str(tmp_path / "cache"),
        )
        assert not report.failures
        assert len(report.cell_telemetry) == 4
        pids = {tele["pid"] for tele in report.cell_telemetry.values()}
        assert pids  # at least one worker process reported
        for tele in report.cell_telemetry.values():
            assert "spawn" in tele["phases"]  # subprocess engines measure spawn
            assert set(tele["phases"]) <= set(PHASES)
        merged = report.telemetry
        # One simulator run per executed cell, summed across processes.
        assert _engines_used(merged["counters"]) == 4
        assert merged["counters"]["sim.accesses"] == 4 * CELL_ACCESSES
        # Each worker loads a workload's trace from the prewarmed cache
        # once, for the first of its cells of that workload, so the
        # workers hit at least once per workload; the parent's prewarm
        # (build, then reload) hits once more per workload.
        assert merged["counters"]["trace_cache.hit"] >= 4

    def test_timeout_engine_records_spawn_phase(self, tmp_path):
        report = run_sweep(
            CONFIGS, workloads=["gzip"], length=LENGTH, workers=1, timeout=60.0,
            trace_cache=str(tmp_path / "cache"),
        )
        assert not report.failures
        for tele in report.cell_telemetry.values():
            assert tele["phases"]["spawn"][1] >= 0


class TestStorePersistence:
    def test_cell_telemetry_lands_in_the_store(self, tmp_path):
        store_path = tmp_path / "run.jsonl"
        with Telemetry():
            run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                      trace_cache=False, store=store_path)
        _manifest, cells = RunStore(store_path).load()
        assert set(cells) == {("gzip", "base"), ("gzip", "victim")}
        for record in cells.values():
            assert set(record["telemetry"]["phases"]) == {
                "synthesis", "simulate", "serialize"}

    def test_every_executed_cell_records_its_phases(self, tmp_path):
        # No observer, no ambient Telemetry, no logger: nobody listens,
        # and the store still carries every cell's time breakdown.
        store_path = tmp_path / "run.jsonl"
        report = run_sweep(CONFIGS, workloads=["gzip", "eon"], length=LENGTH,
                           trace_cache=False, store=store_path)
        assert isinstance(report.telemetry, dict)
        assert "execute" in report.telemetry["phases"]
        _manifest, cells = RunStore(store_path).load()
        assert len(cells) == 4
        for record in cells.values():
            assert record["status"] == "ok"
            assert {"synthesis", "simulate", "serialize"} <= set(
                record["telemetry"]["phases"])

    def test_serialize_phase_times_the_store_write(self, tmp_path, monkeypatch):
        # A slow encoding shows in the phase, and the record and the
        # live report carry the same value.
        to_dict = SimulationResult.to_dict

        def slow_to_dict(result, *args, **kwargs):
            time.sleep(0.02)
            return to_dict(result, *args, **kwargs)

        monkeypatch.setattr(SimulationResult, "to_dict", slow_to_dict)
        store_path = tmp_path / "run.jsonl"
        report = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                           trace_cache=False, store=store_path)
        _manifest, cells = RunStore(store_path).load()
        assert set(cells) == set(report.cell_telemetry) == {
            ("gzip", "base"), ("gzip", "victim")}
        for key, record in cells.items():
            live = report.cell_telemetry[key]
            assert set(live) == CELL_KEYS
            assert record["telemetry"] == live
            assert live["phases"]["serialize"][1] >= 0.02

    def test_each_ok_cell_is_encoded_once(self, tmp_path, monkeypatch):
        calls = []
        to_dict = SimulationResult.to_dict

        def counting_to_dict(result, *args, **kwargs):
            calls.append(kwargs)
            return to_dict(result, *args, **kwargs)

        monkeypatch.setattr(SimulationResult, "to_dict", counting_to_dict)
        run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, trace_cache=False)
        assert calls == []  # nothing is stored, so nothing is serialized
        report = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                           trace_cache=False, store=tmp_path / "run.jsonl")
        assert report.ok_cells == 2
        assert calls == [{"include_metrics": True}] * 2

    def test_storeless_sweep_has_no_serialize_phase(self, tmp_path):
        serial = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                           trace_cache=False)
        pool = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, workers=2,
                         trace_cache=str(tmp_path / "cache"))
        for report, phases in ((serial, {"synthesis", "simulate"}),
                               (pool, {"spawn", "synthesis", "simulate"})):
            assert len(report.cell_telemetry) == 2
            for tele in report.cell_telemetry.values():
                assert set(tele) == CELL_KEYS
                assert set(tele["phases"]) == phases

    def test_failure_telemetry_round_trips_through_store(self, tmp_path):
        store_path = tmp_path / "run.jsonl"
        run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                  trace_cache=False, store=store_path,
                  fault_hook=_permanent_fault)
        _manifest, cells = RunStore(store_path).load()
        record = cells[("gzip", "victim")]
        assert record["status"] == "failed"
        restored = CellFailure.from_dict(record["failure"])
        assert restored.telemetry is not None
        assert "synthesis" in restored.telemetry["phases"]


class TestJsonlEventLog:
    def test_sweep_emits_lifecycle_events(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        with Telemetry(log=log_path):
            report = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                               trace_cache=False, fault_hook=_permanent_fault)
        events = [json.loads(line) for line in log_path.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "sweep.start"
        assert kinds[-1] == "sweep.end"
        assert kinds.count("cell.start") == 2
        assert kinds.count("cell.ok") == 1
        assert kinds.count("cell.failed") == 1
        failed = next(e for e in events if e["event"] == "cell.failed")
        assert failed["error_type"] == "ConfigError"
        end = events[-1]
        assert end["ok"] == 1 and end["failed"] == 1
        # The runner's own collector counts its lifecycle events too.
        counters = report.telemetry["counters"]
        assert {kind: counters[kind] for kind in set(kinds)} == dict(
            collections.Counter(kinds))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_event_kind_has_as_many_lines_as_its_counter(self, tmp_path, workers):
        # A torn-tail store (auto-repaired on resume) and a cold trace
        # cache (the missing cell's trace is rebuilt) exercise the
        # store's and the cache's events next to the runner's.
        store = tmp_path / "run.jsonl"
        run_sweep(CONFIGS, workloads=["gzip", "eon"], length=LENGTH, store=store,
                  trace_cache=False)
        lines = store.read_text().splitlines(keepends=True)
        store.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        log_path = tmp_path / "events.jsonl"
        with Telemetry(log=log_path) as tele:
            report = run_sweep(CONFIGS, workloads=["gzip", "eon"], length=LENGTH,
                               store=store, resume=True, workers=workers,
                               trace_cache=tmp_path / "cache")
        assert report.executed == 1 and not report.failures
        events = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert all({"ts", "event"} <= set(e) for e in events)
        kinds = collections.Counter(e["event"] for e in events)
        assert kinds == {"store.auto_repair": 1, "trace_cache.rebuild": 1,
                         "sweep.start": 1, "cell.start": 1, "cell.ok": 1,
                         "sweep.end": 1}
        assert {kind: tele.counters[kind] for kind in kinds} == dict(kinds)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_retried_attempts_events_are_counted(self, tmp_path, workers):
        # Attempt 1 finds the prewarmed gzip entry corrupt, rebuilds it,
        # then fails transiently: its counters reach the report next to
        # attempt 2's, as its lines reach the log.
        cache = TraceCache(root=tmp_path / "cache")
        column = cache.root / trace_key("gzip", CELL_ACCESSES, 0) / "addresses.npy"

        class CorruptAfterPrewarm(SweepObserver):
            def on_sweep_start(self, total, workers):
                raw = bytearray(column.read_bytes())
                raw[len(raw) // 2] ^= 0xFF
                column.write_bytes(bytes(raw))

        def transient_once(workload, config, attempt):
            if attempt == 1:
                raise RuntimeError("injected transient fault")

        log_path = tmp_path / "events.jsonl"
        with Telemetry(log=log_path) as tele:
            report = run_sweep({"base": {}}, workloads=["gzip"], length=LENGTH,
                               workers=workers, retries=1, backoff=0.01,
                               fault_hook=transient_once, trace_cache=cache,
                               observer=CorruptAfterPrewarm())
        assert not report.failures and report.retried == 1
        kinds = collections.Counter(
            json.loads(line)["event"] for line in log_path.read_text().splitlines())
        assert kinds["trace_cache.integrity_failure"] == 1
        assert kinds["cell.start"] == 2
        assert {kind: tele.counters.get(kind, 0) for kind in kinds} == dict(kinds)
        assert tele.counters["sim.accesses"] == CELL_ACCESSES
