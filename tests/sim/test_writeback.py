"""Tests for dirty-eviction write-back modeling, on both engines."""

from repro.common.types import AccessType
from repro.sim.simulator import make_simulator
from repro.traces.trace import TraceBuilder


def trace_of(rows):
    b = TraceBuilder()
    for addr, kind in rows:
        b.add(addr, kind=kind, gap=5)
    return b.build()


def simulate_on(engine, trace, *, warmup=0, **config):
    """Run *trace* on *engine*, checking that engine really ran it."""
    sim = make_simulator(**config)
    result = sim.run(trace, warmup=warmup, engine=engine)
    assert sim.engine_used == engine, sim.batch_fallback
    return result


L = AccessType.LOAD
S = AccessType.STORE


class TestWritebacks:
    engine = "batch"

    def test_dirty_eviction_counted(self):
        t = trace_of([(0, S), (32 * 1024, L)])  # store then conflict-evict
        r = simulate_on(self.engine, t)
        assert r.writebacks == 1

    def test_clean_eviction_not_counted(self):
        t = trace_of([(0, L), (32 * 1024, L)])
        assert simulate_on(self.engine, t).writebacks == 0

    def test_store_hit_dirties_line(self):
        t = trace_of([(0, L), (8, S), (32 * 1024, L)])
        assert simulate_on(self.engine, t).writebacks == 1

    def test_writeback_occupies_bus(self):
        # Dirty evictions steal L1/L2 bus slots, delaying later fills.
        dirty = trace_of([(i * 32, S) for i in range(2048)] * 2)
        clean = trace_of([(i * 32, L) for i in range(2048)] * 2)
        r_dirty = simulate_on(self.engine, dirty)
        r_clean = simulate_on(self.engine, clean)
        assert r_dirty.writebacks > 1000
        assert r_clean.writebacks == 0
        assert r_dirty.ipc <= r_clean.ipc

    def test_writebacks_reset_on_warmup(self):
        t = trace_of([(0, S), (32 * 1024, S), (0, S), (32 * 1024, S)])
        r = simulate_on(self.engine, t, warmup=2)
        assert r.writebacks == 2


class TestWritebacksOnScalarLoop(TestWritebacks):
    """The same scenarios on the scalar loop: both engines must hold
    them."""

    engine = "scalar"
