"""Regression: ``perfect_non_cold`` charged misses must not double-count.

A charged miss (a non-cold miss under ``perfect_non_cold=True``) is
booked as an L1 hit in the outcome tally *and* the mechanism hit/miss
counters, while cache state still takes the fill path.  The original
code charged the outcome but let the fill bump ``l1.misses`` anyway,
so ``hits + misses`` exceeded the access count and the reported miss
ratio was wrong in exactly the mode meant to isolate cold misses.

The alternating-conflict trace below makes the books easy to audit:
two blocks that map to the same direct-mapped set, touched in strict
alternation — two cold misses, then every access is a charged conflict
miss that still evicts the other block.
"""

import pytest

from repro.common.types import AccessOutcome
from repro.sim.simulator import MemorySimulator
from repro.traces.trace import TraceBuilder

# 32KB direct-mapped L1, 32B blocks: addresses 32KB apart share a set.
BLOCK_A = 0x0000
BLOCK_B = 0x8000
REPS = 50


def conflict_trace():
    b = TraceBuilder(name="conflict")
    for _ in range(REPS):
        b.add(BLOCK_A, gap=2)
        b.add(BLOCK_B, gap=2)
    return b.build()


@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_charged_misses_count_as_hits(engine):
    sim = MemorySimulator(perfect_non_cold=True)
    res = sim.run(conflict_trace(), engine=engine)
    assert sim.engine_used == engine

    accesses = 2 * REPS
    # Two cold misses; every other access is charged as an L1 hit.
    assert res.accesses == accesses
    assert res.l1_misses == 2
    assert res.l1_hits == accesses - 2
    assert res.outcomes[AccessOutcome.L1_HIT] == accesses - 2
    # The ledger balances — the original bug made this sum overshoot.
    assert res.l1_hits + res.l1_misses == res.accesses


@pytest.mark.parametrize("engine", ["scalar", "batch"])
def test_charged_misses_still_evolve_cache_state(engine):
    """Perfect mode hides the latency and the miss, not the mechanics:
    each charged miss still evicts the other block, so evictions run
    far ahead of the (cold-only) miss counter."""
    sim = MemorySimulator(perfect_non_cold=True)
    res = sim.run(conflict_trace(), engine=engine)

    # Every fill but the very first replaces the other block (B's cold
    # miss evicts A too).
    assert sim.l1.evictions == res.accesses - 1
    assert sim.l1.evictions > sim.l1.misses


def test_without_perfect_mode_every_conflict_misses():
    res = MemorySimulator().run(conflict_trace())
    assert res.l1_hits == 0
    assert res.l1_misses == res.accesses
