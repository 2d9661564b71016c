"""Tests for the hierarchical telemetry collector."""

import json
import time

import pytest

from repro.obs.metrics import (
    NULL_TELEMETRY,
    PHASES,
    Telemetry,
    TimerStats,
    aggregate_phases,
    current,
)


class TestTimerStats:
    def test_add_tracks_count_total_min_max(self):
        stats = TimerStats()
        for value in (0.5, 0.1, 0.9):
            stats.add(value)
        assert stats.count == 3
        assert stats.total == pytest.approx(1.5)
        assert stats.min == pytest.approx(0.1)
        assert stats.max == pytest.approx(0.9)

    def test_to_dict_is_json_able(self):
        stats = TimerStats()
        stats.add(0.25)
        assert json.loads(json.dumps(stats.to_dict())) == stats.to_dict()


class TestTelemetry:
    def test_counters_accumulate(self):
        tele = Telemetry()
        tele.count("cache.hit")
        tele.count("cache.hit", 2)
        tele.count("cache.miss")
        assert tele.counters == {"cache.hit": 3, "cache.miss": 1}

    def test_gauges_last_write_wins(self):
        tele = Telemetry()
        tele.gauge("throughput", 100.0)
        tele.gauge("throughput", 250.0)
        assert tele.gauges == {"throughput": 250.0}

    def test_timer_context_manager_records(self):
        tele = Telemetry()
        with tele.timer("phase"):
            time.sleep(0.01)
        stats = tele.timers["phase"]
        assert stats.count == 1
        assert stats.total >= 0.01

    def test_record_accumulates_into_one_timer(self):
        tele = Telemetry()
        tele.record("build", 1.0)
        tele.record("build", 3.0)
        assert tele.timers["build"].count == 2
        assert tele.timers["build"].total == pytest.approx(4.0)

    def test_snapshot_is_json_able(self):
        tele = Telemetry()
        tele.count("c", 2)
        tele.gauge("g", 1.5)
        tele.record("t", 0.2)
        snap = tele.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["timers"]["t"]["count"] == 1

    def test_merge_adds_counters_and_timers_gauges_overwrite(self):
        parent = Telemetry()
        parent.count("c", 1)
        parent.gauge("g", 1.0)
        parent.record("t", 1.0)

        worker = Telemetry()
        worker.count("c", 2)
        worker.count("new", 5)
        worker.gauge("g", 9.0)
        worker.record("t", 3.0)

        parent.merge(worker.snapshot())
        assert parent.counters == {"c": 3, "new": 5}
        assert parent.gauges == {"g": 9.0}
        assert parent.timers["t"].count == 2
        assert parent.timers["t"].total == pytest.approx(4.0)
        assert parent.timers["t"].min == pytest.approx(1.0)
        assert parent.timers["t"].max == pytest.approx(3.0)

    def test_merge_none_is_noop(self):
        tele = Telemetry()
        tele.count("c")
        tele.merge(None)
        tele.merge({})
        assert tele.counters == {"c": 1}

    def test_merge_conflicting_gauges_last_snapshot_wins(self):
        # Workers report the same gauge with different values; whichever
        # snapshot merges last sticks, and order is caller-controlled.
        parent = Telemetry()
        first, second = Telemetry(), Telemetry()
        first.gauge("simulator.accesses_per_sec", 100.0)
        second.gauge("simulator.accesses_per_sec", 900.0)
        parent.merge(first.snapshot())
        parent.merge(second.snapshot())
        assert parent.gauges == {"simulator.accesses_per_sec": 900.0}
        parent.merge(first.snapshot())
        assert parent.gauges == {"simulator.accesses_per_sec": 100.0}

    def test_merge_zero_sample_timer_does_not_corrupt_stats(self):
        # A worker that armed a timer name but never recorded ships
        # count=0 with min=inf; merging it must not poison the
        # parent's min/max or inflate its count.
        parent = Telemetry()
        parent.record("t", 2.0)
        empty = {"timers": {"t": {"count": 0, "total": 0.0,
                                  "min": float("inf"), "max": 0.0}}}
        parent.merge(empty)
        assert parent.timers["t"].count == 1
        assert parent.timers["t"].min == pytest.approx(2.0)
        assert parent.timers["t"].max == pytest.approx(2.0)
        # Merged into a fresh parent, a zero-sample timer stays inert:
        # later real samples compute min/max from scratch.
        fresh = Telemetry()
        fresh.merge(empty)
        assert fresh.timers["t"].count == 0
        fresh.record("t", 5.0)
        assert fresh.timers["t"].min == pytest.approx(5.0)
        assert fresh.timers["t"].max == pytest.approx(5.0)

    def test_merge_survives_cross_process_json_round_trip(self):
        # Worker snapshots cross the process boundary as JSON-able
        # dicts; a serialize/deserialize cycle must merge identically
        # to the in-process snapshot.
        worker = Telemetry()
        worker.count("cells", 3)
        worker.gauge("rate", 0.5)
        worker.record("simulate", 0.25)
        worker.record("simulate", 0.75)
        wire = json.loads(json.dumps(worker.snapshot()))

        direct, via_wire = Telemetry(), Telemetry()
        direct.merge(worker.snapshot())
        via_wire.merge(wire)
        assert via_wire.snapshot() == direct.snapshot()
        assert via_wire.timers["simulate"].count == 2
        assert via_wire.timers["simulate"].min == pytest.approx(0.25)


class TestAmbientStack:
    def test_default_is_null(self):
        assert current() is NULL_TELEMETRY
        assert current().enabled is False

    def test_context_installs_and_restores(self):
        outer = Telemetry()
        with outer:
            assert current() is outer
            inner = Telemetry()
            with inner:
                assert current() is inner
                current().count("seen")
            assert current() is outer
        assert current() is NULL_TELEMETRY
        assert inner.counters == {"seen": 1}
        assert outer.counters == {}

    def test_null_telemetry_swallows_everything(self):
        NULL_TELEMETRY.count("x")
        NULL_TELEMETRY.gauge("x", 1.0)
        NULL_TELEMETRY.record("x", 1.0)
        with NULL_TELEMETRY.timer("x"):
            pass
        # Null objects have no storage at all — nothing to leak.
        assert not hasattr(NULL_TELEMETRY, "counters")


class TestAggregatePhases:
    def test_sums_in_canonical_phase_order(self):
        cells = [
            {"phases": {"simulate": [10.0, 2.0], "synthesis": [9.0, 1.0]}},
            {"phases": {"simulate": [20.0, 3.0], "serialize": [23.0, 0.5],
                        "spawn": [8.0, 0.25]}},
        ]
        totals = aggregate_phases(cells)
        assert list(totals) == ["spawn", "synthesis", "simulate", "serialize"]
        assert totals["simulate"] == pytest.approx(5.0)
        assert totals["spawn"] == pytest.approx(0.25)

    def test_unknown_phases_follow_canonical_ones(self):
        totals = aggregate_phases([{"phases": {"custom": [0.0, 1.0],
                                               "simulate": [0.0, 2.0]}}])
        assert list(totals) == ["simulate", "custom"]

    def test_empty_and_missing_phases(self):
        assert aggregate_phases([]) == {}
        assert aggregate_phases([{}, {"phases": {}}]) == {}

    def test_canonical_phase_tuple(self):
        assert PHASES == ("spawn", "synthesis", "simulate", "serialize")
