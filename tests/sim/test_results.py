"""Tests for the result containers."""

import pytest

from repro.common.types import AccessOutcome, PrefetchTimeliness
from repro.core.prefetch.timeliness import TimelinessCounts
from repro.sim.results import (
    RESULT_SCHEMA_VERSION, PrefetchStats, SimulationResult, VictimStats,
)
from repro.timing.processor import TimingResult


def timing(ipc=1.0, instructions=1000):
    cycles = int(instructions / ipc)
    return TimingResult(
        instructions=instructions, cycles=cycles, compute_cycles=cycles,
        stall_cycles=0, stall_breakdown={}, ipc=ipc,
    )


def result(ipc=1.0, **kwargs):
    defaults = dict(
        name="t", accesses=100, l1_hits=80, l1_misses=20,
        outcomes={AccessOutcome.L1_HIT: 80, AccessOutcome.L2_HIT: 20},
        timing=timing(ipc),
    )
    defaults.update(kwargs)
    return SimulationResult(**defaults)


class TestVictimStats:
    def test_hit_rate(self):
        v = VictimStats(probes=10, hits=4)
        assert v.hit_rate == pytest.approx(0.4)
        assert VictimStats().hit_rate == 0.0

    def test_fill_traffic_per_cycle(self):
        v = VictimStats(fills=50)
        assert v.fill_traffic_per_cycle(1000) == pytest.approx(0.05)
        assert v.fill_traffic_per_cycle(0) == 0.0


class TestPrefetchStats:
    def test_coverage(self):
        p = PrefetchStats(predictor_lookups=10, predictor_hits=7)
        assert p.coverage == pytest.approx(0.7)
        assert PrefetchStats().coverage == 0.0

    def test_address_accuracy_delegates(self):
        counts = TimelinessCounts()
        counts.add(True, PrefetchTimeliness.TIMELY)
        counts.add(False, PrefetchTimeliness.TIMELY)
        p = PrefetchStats(timeliness=counts)
        assert p.address_accuracy == pytest.approx(0.5)


class TestSimulationResult:
    def test_basic_properties(self):
        r = result(ipc=2.0)
        assert r.ipc == 2.0
        assert r.l1_miss_rate == pytest.approx(0.2)

    def test_speedup_over(self):
        fast, slow = result(ipc=2.2), result(ipc=2.0)
        assert fast.speedup_over(slow) == pytest.approx(0.1)

    def test_outcome_fraction(self):
        r = result()
        assert r.outcome_fraction(AccessOutcome.L2_HIT) == pytest.approx(0.2)
        assert r.outcome_fraction(AccessOutcome.MEMORY) == 0.0

    def test_zero_access_edge(self):
        r = result(accesses=0, l1_hits=0, l1_misses=0, outcomes={})
        assert r.l1_miss_rate == 0.0
        assert r.outcome_fraction(AccessOutcome.L1_HIT) == 0.0

    def test_summary_sections(self):
        r = result(
            victim=VictimStats(entries=32, fills=5, hits=2, rejected=1),
            prefetch=PrefetchStats(issued=9, useful=3),
        )
        text = r.summary()
        assert "victim cache" in text
        assert "prefetch" in text


class TestSerialization:
    def roundtrip(self, r):
        import json
        return SimulationResult.from_dict(json.loads(json.dumps(r.to_dict())))

    def test_minimal_roundtrip(self):
        r = result(ipc=2.0)
        assert self.roundtrip(r) == r

    def test_roundtrip_with_all_optional_stats(self):
        from repro.classify.three_c import MissCounts
        from repro.core.decay import DecayStats

        counts = TimelinessCounts()
        counts.add(True, PrefetchTimeliness.TIMELY)
        counts.add(False, PrefetchTimeliness.EARLY)
        r = result(
            miss_counts=MissCounts(cold=3, conflict=2, capacity=1),
            victim=VictimStats(entries=32, probes=9, hits=4, fills=5, rejected=1),
            prefetch=PrefetchStats(
                scheduled=10, fired=9, issued=8, arrived=7, useful=3,
                predictor_lookups=20, predictor_hits=11, table_bytes=4096,
                timeliness=counts,
            ),
            decay=DecayStats(off_line_cycles=100, total_line_cycles=400,
                             induced_misses=2, clean_decays=7),
            l2_hits=12, l2_misses=8, memory_accesses=8, writebacks=3,
        )
        back = self.roundtrip(r)
        assert back == r
        # Enum-keyed structures came back as real enums.
        assert AccessOutcome.L1_HIT in back.outcomes
        assert PrefetchTimeliness.TIMELY in back.prefetch.timeliness.correct

    def test_simulated_result_roundtrip(self):
        from repro.sim.sweep import run_workload

        r = run_workload(
            "vpr", {"run": {"victim_filter": "timekeeping"}}, length=2000
        )["run"]
        assert self.roundtrip(r) == r

    def test_metrics_are_dropped(self):
        from repro.sim.sweep import run_workload

        r = run_workload("gzip", {"run": {"collect_metrics": True}}, length=1000)["run"]
        assert r.metrics is not None
        back = self.roundtrip(r)
        assert back.metrics is None
        # Everything else still round-trips.
        assert back.timing == r.timing
        assert back.outcomes == r.outcomes

    def test_metrics_roundtrip_when_included(self):
        import json

        from repro.sim.sweep import run_workload

        r = run_workload("gzip", {"run": {"collect_metrics": True}}, length=1000)["run"]
        data = json.loads(json.dumps(r.to_dict(include_metrics=True)))
        back = SimulationResult.from_dict(data)
        assert back.metrics is not None
        assert back.metrics.to_dict() == r.metrics.to_dict()
        # Re-serialization is stable — the property behind byte-identical
        # report regeneration from a checkpoint store.
        assert back.to_dict(include_metrics=True) == r.to_dict(include_metrics=True)

    def test_retired_fidelity_tier_refused(self):
        # Results an earlier build's sampled or analytical tier
        # extrapolated must not load as if they were exact.
        from repro.common.errors import SimulationError

        for tier in ("sampled", "analytical"):
            data = dict(result().to_dict(), fidelity=tier,
                        error_bars={"l1_miss_rate": {"mean": 0.05, "ci95": 0.004}})
            with pytest.raises(SimulationError, match=f"fidelity '{tier}'"):
                SimulationResult.from_dict(data)
        exact = dict(result().to_dict(), fidelity="exact")
        assert SimulationResult.from_dict(exact) == result()

    def test_unsupported_version_rejected(self):
        from repro.common.errors import SimulationError

        data = result().to_dict()
        data["version"] = 99
        with pytest.raises(SimulationError, match="version"):
            SimulationResult.from_dict(data)

    def test_malformed_dict_rejected(self):
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError, match="malformed"):
            SimulationResult.from_dict({"version": RESULT_SCHEMA_VERSION, "name": "x"})
        # A current-version record carries every counter: one that lacks
        # one is undecodable, so its cell re-runs rather than reading 0.
        for key in ("l2_hits", "l2_misses", "memory_accesses", "writebacks"):
            data = result(l2_hits=5, l2_misses=3, memory_accesses=3,
                          writebacks=1).to_dict()
            del data[key]
            with pytest.raises(SimulationError, match=f"malformed.*{key}"):
                SimulationResult.from_dict(data)
