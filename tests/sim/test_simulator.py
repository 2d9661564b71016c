"""Tests for the trace-driven memory simulator (demand path)."""

import gc
import weakref

import pytest

from repro.common.config import paper_machine, small_test_machine
from repro.common.errors import SimulationError
from repro.common.types import AccessOutcome, AccessType, MissClass
from repro.sim import simulator as simulator_module
from repro.sim.simulator import MemorySimulator, simulate
from repro.traces.trace import TraceBuilder


def trace_of(addresses, gap=10, name="t", kinds=None):
    b = TraceBuilder(name=name)
    for i, addr in enumerate(addresses):
        kind = kinds[i] if kinds else AccessType.LOAD
        b.add(addr, pc=0x100, kind=kind, gap=gap)
    return b.build()


class TestBasicCounting:
    def test_hits_and_misses(self):
        t = trace_of([0, 0, 0, 32, 64])
        r = simulate(t)
        assert r.accesses == 5
        assert r.l1_hits == 2
        assert r.l1_misses == 3
        assert r.outcomes[AccessOutcome.L1_HIT] == 2

    def test_same_block_different_offsets_hit(self):
        t = trace_of([0, 8, 16, 24])
        r = simulate(t)
        assert r.l1_misses == 1
        assert r.l1_hits == 3

    def test_direct_mapped_conflict(self):
        t = trace_of([0, 32 * 1024, 0, 32 * 1024])
        r = simulate(t)
        assert r.l1_misses == 4
        assert r.miss_counts.conflict == 2
        assert r.miss_counts.cold == 2

    def test_l2_catches_l1_conflicts(self):
        t = trace_of([0, 32 * 1024] * 4)
        r = simulate(t)
        assert r.l2_hits > 0
        assert r.memory_accesses == 2  # two distinct 64B lines fetched once

    def test_single_use(self):
        sim = MemorySimulator()
        sim.run(trace_of([0]))
        with pytest.raises(SimulationError):
            sim.run(trace_of([0]))


class TestTiming:
    def test_memory_misses_cost_more_than_l2_hits(self):
        cold = simulate(trace_of(list(range(0, 32 * 100, 32))))
        warm_trace = trace_of(list(range(0, 32 * 100, 32)) * 2)
        warm = simulate(warm_trace, warmup=100)
        assert warm.ipc > cold.ipc

    def test_ipc_improves_with_hits(self):
        missy = simulate(trace_of([i * 32 for i in range(200)]))
        hitty = simulate(trace_of([0] * 200))
        assert hitty.ipc > missy.ipc

    def test_ipa_scales_instructions(self):
        t = trace_of([0] * 100)
        a = simulate(t, ipa=2.0)
        b = simulate(t, ipa=4.0)
        assert b.timing.instructions == 2 * a.timing.instructions

    def test_cycles_at_least_gap_sum(self):
        t = trace_of([0] * 50, gap=10)
        r = simulate(t)
        assert r.cycles >= 500


class TestClassification:
    def test_streaming_beyond_capacity_is_capacity(self):
        m = small_test_machine()  # 32-frame L1
        blocks = [i * 32 for i in range(64)]
        t = trace_of(blocks * 3)
        r = simulate(t, machine=m)
        assert r.miss_counts.capacity > 0
        assert r.miss_counts.cold == 64


class TestPerfectMode:
    def test_non_cold_misses_free(self):
        t = trace_of([0, 32 * 1024] * 50)
        base = simulate(t)
        perfect = simulate(t, perfect_non_cold=True)
        assert perfect.ipc > base.ipc
        # Cold misses still counted in classification.
        assert perfect.miss_counts.cold == 2

    def test_perfect_upper_bounds_any_mechanism(self):
        t = trace_of([0, 32 * 1024] * 50)
        perfect = simulate(t, perfect_non_cold=True)
        victim = simulate(t, victim_filter="timekeeping")
        assert perfect.ipc >= victim.ipc * 0.999


class TestWarmup:
    def test_warmup_resets_stats_keeps_state(self):
        t = trace_of([0] * 10 + [0] * 10)
        r = simulate(t, warmup=10)
        assert r.accesses == 10
        assert r.l1_misses == 0  # block 0 warmed

    def test_warmup_beyond_length(self):
        r = simulate(trace_of([0, 32]), warmup=100)
        assert r.accesses == 0

    def test_negative_warmup_rejected(self):
        with pytest.raises(SimulationError):
            simulate(trace_of([0]), warmup=-1)

    def test_warmup_hides_cold_misses(self):
        blocks = [i * 32 for i in range(50)]
        t = trace_of(blocks + blocks)
        cold = simulate(t)
        warm = simulate(t, warmup=50)
        assert cold.miss_counts.cold == 50
        assert warm.miss_counts.cold == 0


class TestVictimCachePath:
    def test_victim_hit_swaps_block_back(self):
        # 0 and 32KB thrash one set; a victim cache turns the repeat
        # misses into victim hits.
        t = trace_of([0, 32 * 1024] * 20)
        r = simulate(t, victim_filter="unfiltered")
        assert r.outcomes[AccessOutcome.VICTIM_HIT] > 0
        assert r.victim.hits == r.outcomes[AccessOutcome.VICTIM_HIT]

    def test_victim_cache_improves_conflicts(self):
        t = trace_of([0, 32 * 1024] * 200, gap=3)
        base = simulate(t)
        vic = simulate(t, victim_filter="unfiltered")
        assert vic.ipc > base.ipc

    def test_timekeeping_filter_rejects_long_dead(self):
        # Streaming: every eviction has a huge dead time -> all rejected.
        blocks = [i * 32 for i in range(2048)]
        t = trace_of(blocks * 2, gap=30)
        r = simulate(t, victim_filter="timekeeping")
        assert r.victim.rejected > 0
        assert r.victim.fills < r.victim.rejected

    def test_unfiltered_admits_everything(self):
        t = trace_of([0, 32 * 1024] * 10)
        r = simulate(t, victim_filter="unfiltered")
        assert r.victim.rejected == 0

    def test_no_victim_cache_by_default(self):
        assert simulate(trace_of([0])).victim is None


class TestStores:
    def test_store_miss_counts(self):
        t = trace_of([0, 0], kinds=[AccessType.STORE, AccessType.STORE])
        r = simulate(t)
        assert r.l1_misses == 1
        assert r.l1_hits == 1


class TestResultSummary:
    def test_summary_mentions_name_and_ipc(self):
        r = simulate(trace_of([0, 32], name="demo"))
        text = r.summary()
        assert "demo" in text
        assert "IPC" in text

    def test_outcome_fraction(self):
        r = simulate(trace_of([0, 0, 0, 0]))
        assert r.outcome_fraction(AccessOutcome.L1_HIT) == pytest.approx(0.75)


@pytest.fixture
def gc_setting():
    """Restore the collector's setting whatever a test leaves."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestGarbageCollectorBoundary:
    """simulate() keeps the collector off until the finished simulator
    is freed, and hands the caller's setting back either way."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_caller_setting_restored(self, gc_setting, enabled):
        t = trace_of([0, 32, 0, 64])
        (gc.enable if enabled else gc.disable)()
        simulate(t, warmup=1)
        assert gc.isenabled() is enabled
        with pytest.raises(SimulationError, match="warmup"):
            simulate(t, warmup=-1)
        assert gc.isenabled() is enabled

    def test_collector_off_while_the_simulator_is_freed(self, gc_setting,
                                                        monkeypatch):
        freed_with_gc = []
        make = simulator_module.make_simulator

        def watched(*args, **kwargs):
            sim = make(*args, **kwargs)
            weakref.finalize(sim, lambda: freed_with_gc.append(gc.isenabled()))
            return sim

        monkeypatch.setattr(simulator_module, "make_simulator", watched)
        gc.enable()
        simulate(trace_of([0, 32, 0, 64]), warmup=1)
        assert freed_with_gc == [False]
        assert gc.isenabled()
