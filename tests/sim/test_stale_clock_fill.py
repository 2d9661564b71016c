"""Regression: fills must be timestamped *after* eviction-side stalls.

``_evict`` can advance the global clock — admitting a victim into the
victim cache charges swap bandwidth via ``add_fixed_stall``.  The miss
path in ``_consume`` used to keep using its pre-eviction local ``now``
for ``l1.fill``/``generations.on_fill``, so the incoming block's
generation started *before* a stall its own fill caused.  The fix
refreshes ``now = self.now`` after ``_evict``; this test fails without
it.  Both engines must keep the fix, so the check runs on each.
"""

from repro.common.types import AccessType
from repro.core.victim import UnfilteredAdmission
from repro.sim.simulator import MemorySimulator
from repro.traces.trace import TraceBuilder


def _same_set_trace(machine, count):
    """*count* distinct addresses that all map to L1 set 0."""
    l1 = machine.l1d
    stride = 1 << (l1.offset_bits + l1.index_bits)
    builder = TraceBuilder("same-set")
    for i in range(1, count + 1):
        builder.add(i * stride, kind=AccessType.LOAD, gap=1)
    return builder.build()


def check_fill_timestamp(engine):
    sim = MemorySimulator(victim_filter=UnfilteredAdmission())
    # Make every admitted victim cost a whole cycle immediately, so the
    # single eviction below is guaranteed to advance the clock.
    sim.victim_insert_quarter_cycles = 4
    assoc = sim.machine.l1d.associativity
    trace = _same_set_trace(sim.machine, assoc + 1)

    result = sim.run(trace, engine=engine)
    assert sim.engine_used == engine, sim.batch_fallback

    # The eviction really stalled the core (otherwise this test checks
    # nothing): the dead-time victim filter admitted and charged swap
    # bandwidth.
    assert result.timing.stall_breakdown.get("victim-fill", 0) >= 1

    # The last access misses, evicts the LRU resident (stalling the
    # core), then fills.  Nothing runs after that fill, so the fill
    # timestamp must equal the final clock — a pre-stall stamp would
    # read one cycle early.
    last_block = trace.addresses[-1] >> sim.machine.l1d.offset_bits
    frame = sim.l1.probe(last_block)
    assert frame is not None
    assert frame.fill_time == sim.now


def test_fill_timestamp_includes_victim_insert_stall():
    check_fill_timestamp("batch")


def test_fill_timestamp_includes_victim_insert_stall_on_scalar_loop():
    check_fill_timestamp("scalar")
