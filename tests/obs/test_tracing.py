"""Tests for Chrome trace-event export and schema validation."""

import json

import pytest

from repro.obs.tracing import (
    MAIN_TID,
    SWEEP_PID,
    ChromeTrace,
    build_sweep_trace,
    validate_chrome_trace,
)


class TestChromeTrace:
    def test_complete_event_shape(self):
        trace = ChromeTrace(origin=100.0)
        trace.add_complete("work", 100.5, 0.25, tid=2, args={"cell": "a"})
        (event,) = trace.events
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(0.5e6)
        assert event["dur"] == pytest.approx(0.25e6)
        assert event["pid"] == SWEEP_PID
        assert event["tid"] == 2
        assert event["args"] == {"cell": "a"}

    def test_instant_event_is_thread_scoped(self):
        trace = ChromeTrace(origin=0.0)
        trace.add_instant("retry", 1.0)
        (event,) = trace.events
        assert event["ph"] == "i"
        assert event["s"] == "t"

    def test_metadata_events_deduplicate(self):
        trace = ChromeTrace(origin=0.0)
        trace.set_thread_name(SWEEP_PID, 1, "worker 1")
        trace.set_thread_name(SWEEP_PID, 1, "worker 1")
        trace.set_process_name(SWEEP_PID, "sweep")
        assert len(trace.events) == 2

    def test_to_json_orders_metadata_first(self):
        trace = ChromeTrace(origin=0.0)
        trace.add_complete("late", 5.0, 1.0)
        trace.set_process_name(SWEEP_PID, "sweep")
        events = trace.to_json()["traceEvents"]
        assert events[0]["ph"] == "M"
        assert events[-1]["name"] == "late"

    def test_write_round_trips_through_json(self, tmp_path):
        trace = ChromeTrace(origin=0.0)
        trace.set_process_name(SWEEP_PID, "sweep")
        trace.add_complete("work", 1.0, 0.5)
        path = tmp_path / "trace.json"
        trace.write(path)
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        assert loaded["displayTimeUnit"] == "ms"
        assert len(loaded["traceEvents"]) == 2


class _FakeFailure:
    def __init__(self, workload, config, telemetry):
        self.workload = workload
        self.config = config
        self.telemetry = telemetry


class _FakeReport:
    def __init__(self, cell_telemetry, failures=(), telemetry=None):
        self.cell_telemetry = cell_telemetry
        self.failures = list(failures)
        self.telemetry = telemetry


def _cell(pid, start, attempt=1, counters=None):
    tele = {
        "pid": pid,
        "attempt": attempt,
        "phases": {
            "synthesis": [start, 0.1],
            "simulate": [start + 0.1, 0.5],
            "serialize": [start + 0.6, 0.01],
        },
    }
    if counters:
        tele["counters"] = counters
    return tele


class TestBuildSweepTrace:
    def test_one_lane_per_worker_pid(self):
        report = _FakeReport({
            ("gzip", "base"): _cell(pid=101, start=10.0),
            ("gzip", "victim"): _cell(pid=202, start=10.2),
            ("eon", "base"): _cell(pid=101, start=11.0),
        })
        trace = build_sweep_trace(report)
        obj = trace.to_json()
        assert validate_chrome_trace(obj) == []
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in obj["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # main lane + one lane per distinct pid, named after the worker.
        assert thread_names[MAIN_TID] == "main"
        worker_lanes = {tid: n for tid, n in thread_names.items() if tid != MAIN_TID}
        assert len(worker_lanes) == 2
        assert any("101" in name for name in worker_lanes.values())
        assert any("202" in name for name in worker_lanes.values())

    def test_cell_span_encloses_phase_spans(self):
        report = _FakeReport({
            ("gzip", "base"): _cell(pid=7, start=50.0,
                                    counters={"sim.accesses": 61_728}),
        })
        events = build_sweep_trace(report).to_json()["traceEvents"]
        spans = {e["name"]: e for e in events if e["ph"] == "X"}
        cell = spans["gzip:base"]
        assert cell["args"]["accesses_per_sec"] == 123_456
        for phase in ("synthesis", "simulate", "serialize"):
            assert spans[phase]["tid"] == cell["tid"]
            assert spans[phase]["ts"] >= cell["ts"]
            assert (spans[phase]["ts"] + spans[phase]["dur"]
                    <= cell["ts"] + cell["dur"] + 1e-3)

    def test_accesses_per_sec_is_accesses_over_simulate_phase(self):
        # _cell's simulate phase lasts 0.5 s.
        failed = _cell(pid=3, start=0.0, counters={"sim.accesses": 1000})
        del failed["phases"]["simulate"]
        report = _FakeReport({
            ("gzip", "base"): _cell(pid=3, start=1.0, counters={"sim.accesses": 1000}),
            ("eon", "base"): _cell(pid=3, start=2.0),
        }, failures=[_FakeFailure("mcf", "base", failed)])
        events = build_sweep_trace(report).to_json()["traceEvents"]
        cells = {e["name"]: e["args"] for e in events
                 if e["ph"] == "X" and "attempt" in e.get("args", {})}
        assert cells["gzip:base"]["accesses_per_sec"] == 2000
        # No sim.accesses counter, or no simulate phase: no throughput.
        assert "accesses_per_sec" not in cells["eon:base"]
        assert "accesses_per_sec" not in cells["mcf:base (failed)"]

    def test_retried_cell_gets_instant_marker(self):
        report = _FakeReport({("gzip", "base"): _cell(pid=1, start=0.0, attempt=3)})
        events = build_sweep_trace(report).to_json()["traceEvents"]
        (retry,) = [e for e in events if e["ph"] == "i"]
        assert retry["name"] == "retry"
        assert retry["args"]["attempt"] == 3

    def test_failed_cells_appear_with_their_telemetry(self):
        failure = _FakeFailure("mcf", "boom", _cell(pid=9, start=1.0))
        trace = build_sweep_trace(_FakeReport({}, failures=[failure]))
        names = {e["name"] for e in trace.to_json()["traceEvents"]}
        assert "mcf:boom (failed)" in names

    def test_replayed_cells_without_telemetry_are_absent(self):
        report = _FakeReport({("gzip", "base"): {}})
        events = build_sweep_trace(report).to_json()["traceEvents"]
        assert all(e["ph"] == "M" for e in events)

    def test_origin_is_earliest_timestamp(self):
        report = _FakeReport(
            {("gzip", "base"): _cell(pid=1, start=500.0)},
            telemetry={"started": 499.0, "phases": {"execute": [499.0, 2.0]}},
        )
        obj = build_sweep_trace(report).to_json()
        timed = [e for e in obj["traceEvents"] if e["ph"] != "M"]
        assert min(e["ts"] for e in timed) == 0.0


class TestValidateChromeTrace:
    def _valid(self):
        return {"traceEvents": [
            {"name": "thread_name", "ph": "M", "ts": 0, "pid": 1, "tid": 0,
             "args": {"name": "main"}},
            {"name": "work", "ph": "X", "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 0},
        ]}

    def test_valid_trace_has_no_problems(self):
        assert validate_chrome_trace(self._valid()) == []

    def test_top_level_must_be_object_with_event_list(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []

    def test_missing_required_key_is_reported(self):
        trace = self._valid()
        del trace["traceEvents"][1]["pid"]
        assert any("pid" in p for p in validate_chrome_trace(trace))

    def test_complete_event_needs_non_negative_dur(self):
        trace = self._valid()
        trace["traceEvents"][1]["dur"] = -1.0
        assert any("dur" in p for p in validate_chrome_trace(trace))
        del trace["traceEvents"][1]["dur"]
        assert any("dur" in p for p in validate_chrome_trace(trace))

    def test_metadata_event_needs_args_name(self):
        trace = self._valid()
        trace["traceEvents"][0]["args"] = {}
        assert any("args.name" in p for p in validate_chrome_trace(trace))

    def test_non_finite_ts_is_reported(self):
        trace = self._valid()
        trace["traceEvents"][1]["ts"] = float("nan")
        assert any("ts" in p for p in validate_chrome_trace(trace))

    def test_non_object_event_is_reported(self):
        trace = self._valid()
        trace["traceEvents"].append("not an event")
        assert any("not an object" in p for p in validate_chrome_trace(trace))
