"""Tests for the hierarchical telemetry collector."""

import json

import pytest

from repro.obs.metrics import (
    NULL_TELEMETRY,
    PHASES,
    Telemetry,
    aggregate_phases,
    current,
)


class TestTelemetry:
    def test_counters_accumulate(self):
        tele = Telemetry()
        tele.count("cache.hit")
        tele.count("cache.hit", 2)
        tele.count("cache.miss")
        assert tele.counters == {"cache.hit": 3, "cache.miss": 1}

    def test_merge_adds_counters(self):
        parent = Telemetry()
        parent.count("c", 1)

        worker = Telemetry()
        worker.count("c", 2)
        worker.count("new", 5)

        parent.merge({"counters": worker.counters})
        assert parent.counters == {"c": 3, "new": 5}

    def test_merge_none_is_noop(self):
        tele = Telemetry()
        tele.count("c")
        tele.merge(None)
        tele.merge({})
        assert tele.counters == {"c": 1}

    def test_merge_survives_cross_process_json_round_trip(self):
        # A worker's cell telemetry crosses the process boundary as a
        # JSON-able dict; a serialize/deserialize cycle must merge
        # identically to the in-process dict.
        worker = Telemetry()
        worker.count("cells", 3)
        worker.count("sim.accesses", 1200)
        cell = {"counters": worker.counters}
        wire = json.loads(json.dumps(cell))

        direct, via_wire = Telemetry(), Telemetry()
        direct.merge(cell)
        via_wire.merge(wire)
        assert via_wire.counters == direct.counters
        assert via_wire.counters == {"cells": 3, "sim.accesses": 1200}


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
        NULL_TELEMETRY.count("x", 5)
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
