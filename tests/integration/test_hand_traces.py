"""Integration tests over hand-built traces with exactly known metrics.

These drive the full simulator with traces whose generational metrics
can be computed by hand, pinning the wiring between simulator, frames,
generation tracker, and metrics collectors.
"""

import pytest

from repro.common.types import MissClass
from repro.sim.simulator import MemorySimulator, make_simulator
from repro.traces.trace import TraceBuilder


def build(rows, name="hand"):
    b = TraceBuilder(name=name)
    for addr, gap in rows:
        b.add(addr, gap=gap)
    return b.build()


def simulate_on(engine, trace, **config):
    """Run *trace* on *engine*, checking that engine really ran it."""
    sim = make_simulator(**config)
    result = sim.run(trace, engine=engine)
    assert sim.engine_used == engine, sim.batch_fallback
    return result


class TestKnownGenerations:
    engine = "batch"

    def test_single_generation_live_dead_times(self):
        # Block 0: miss at t0, hits, then evicted by 32KB alias.
        t = build([
            (0, 10),        # miss; fill
            (8, 5),         # hit (+5)
            (16, 5),        # hit (+5): live time = 10
            (32 * 1024, 100),  # conflict alias evicts block 0
        ])
        r = simulate_on(self.engine, t, collect_metrics=True)
        gens = r.metrics.generations
        assert len(gens) == 1
        rec = gens[0]
        assert rec.live_time == 10
        # Dead time spans the compute gap (100) plus the evicting
        # miss's fetch stall (the eviction happens when the new block
        # arrives, as in hardware).
        assert 100 <= rec.dead_time < 250
        assert rec.hit_count == 2

    def test_access_intervals_recorded(self):
        t = build([(0, 1), (8, 7), (16, 3)])
        r = simulate_on(self.engine, t, collect_metrics=True)
        hist = r.metrics.access_interval
        assert hist.total == 2
        assert hist.mean == pytest.approx(5.0)

    def test_zero_live_time_generation(self):
        t = build([(0, 1), (32 * 1024, 50)])
        r = simulate_on(self.engine, t, collect_metrics=True)
        assert r.metrics.generations[0].live_time == 0
        assert r.metrics.zero_live_fraction() == 1.0

    def test_reload_interval_and_conflict_correlation(self):
        # 0 evicted by alias, then re-referenced: reload interval equals
        # the gap-sum between the two fills (plus any stalls, which we
        # bound loosely).
        t = build([
            (0, 1),
            (32 * 1024, 200),
            (0, 300),
        ])
        r = simulate_on(self.engine, t, collect_metrics=True)
        cors = r.metrics.miss_correlations
        assert len(cors) == 1
        c = cors[0]
        assert c.miss_class == MissClass.CONFLICT
        assert c.last_live_time == 0
        # reload >= sum of intervening gaps; stalls only add
        assert c.reload_interval >= 500

    def test_capacity_correlation_beyond_fa_capacity(self):
        rows = [(i * 32, 1) for i in range(2048)]  # 2x L1 capacity
        rows += [(0, 1)]
        t = build(rows)
        r = simulate_on(self.engine, t, collect_metrics=True)
        caps = [c for c in r.metrics.miss_correlations
                if c.miss_class == MissClass.CAPACITY]
        assert len(caps) == 1


class TestVictimFilterEndToEnd:
    engine = "batch"

    def test_dead_time_filter_admits_only_fast_evictions(self):
        # Thrash two aliases quickly (short dead times -> admitted),
        # then thrash the same set slowly (dead times ~5000 cycles ->
        # rejected by the 1K-cycle filter).
        rows = [(0, 2), (32 * 1024, 2)] * 20
        rows += [(0, 5000), (32 * 1024, 5000)] * 10
        t = build(rows)
        r = simulate_on(self.engine, t, victim_filter="timekeeping")
        assert r.victim.fills > 0
        assert r.victim.rejected > 0

    def test_collins_filter_end_to_end(self):
        rows = [(0, 2), (32 * 1024, 2)] * 20  # pure A->B->A ping-pong
        r = simulate_on(self.engine, build(rows), victim_filter="collins")
        # After warm-up, every eviction is a returning block: admitted.
        assert r.victim.fills > 10
        assert r.victim.hits > 10


class TestClockMonotonicity:
    engine = "batch"

    def test_now_advances_monotonically(self):
        t = build([(i * 32, 3) for i in range(500)])
        sim = MemorySimulator(collect_metrics=True)
        r = sim.run(t, engine=self.engine)
        assert sim.engine_used == self.engine
        # every generation has non-negative live and dead times
        for rec in r.metrics.generations:
            assert rec.live_time >= 0
            assert rec.dead_time >= 0

    def test_cycle_count_includes_stalls(self):
        t = build([(i * 32, 1) for i in range(100)])
        r = simulate_on(self.engine, t)
        assert r.timing.stall_cycles > 0
        assert r.cycles == r.timing.compute_cycles + r.timing.stall_cycles


# The same scenarios on the scalar loop: both engines must hold them.


class TestKnownGenerationsOnScalarLoop(TestKnownGenerations):
    engine = "scalar"


class TestVictimFilterEndToEndOnScalarLoop(TestVictimFilterEndToEnd):
    engine = "scalar"


class TestClockMonotonicityOnScalarLoop(TestClockMonotonicity):
    engine = "scalar"
