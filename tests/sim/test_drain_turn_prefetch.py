"""Regression: drain turns must still give queued prefetches a slot.

The scalar hot loop handles per-access event work with
``if <events due>: _drain_events() elif <prefetches queued>:
_issue_prefetches()``.  The elif looks like it starves the prefetch
queue on drain turns — and an earlier draft did exactly that, draining
events without a trailing issue pass, so a prefetch parked behind a
full MSHR file could sit queued indefinitely while unrelated timers
kept firing.  ``_drain_events`` now ends with ``_issue_prefetches``,
making the elif a pure de-duplication: every access gives queued
prefetches exactly one issue opportunity, drain turn or not.
"""

from repro.core.prefetch.policy import PrefetchPolicy
from repro.sim.simulator import _FIRE, MemorySimulator
from repro.traces.trace import TraceBuilder


class NeverPredicts(PrefetchPolicy):
    """Arms the prefetch engine without predicting anything itself, so
    only the hand-queued prefetch below can issue."""

    def on_miss(self, frame, frame_key, new_block_addr, pc, now):
        return None


def _one_access_trace(gap=10):
    b = TraceBuilder(name="one")
    b.add(0x9000, gap=gap)
    return b.build()


def test_drain_turn_issues_prefetches():
    sim = MemorySimulator(prefetch_policy=NeverPredicts())

    # A fired prediction parked in the queue, ready to issue.
    pending = sim.bookkeeper.scheduled(0, 0x40, 0, 0)
    sim.bookkeeper.fired(0)
    sim.prefetch_queue.push(pending)

    # An unrelated, already-cancelled fire event due before the first
    # access: its only effect is making the loop take the drain branch
    # instead of the elif.
    orphan = sim.bookkeeper.scheduled(1, 0x80, 0, 2)
    sim.bookkeeper.cancel(1)
    sim.events.schedule(2, (_FIRE, orphan))

    sim.run(_one_access_trace(), engine="scalar")

    # The queued prefetch issued on the drain turn itself.
    assert sim._prefetch_issued == 1
    assert len(sim.prefetch_queue) == 0


def test_non_drain_turn_issues_prefetches():
    """The elif branch: no due events, queued prefetch still issues."""
    sim = MemorySimulator(prefetch_policy=NeverPredicts())
    pending = sim.bookkeeper.scheduled(0, 0x40, 0, 0)
    sim.bookkeeper.fired(0)
    sim.prefetch_queue.push(pending)

    sim.run(_one_access_trace(), engine="scalar")

    assert sim._prefetch_issued == 1
    assert len(sim.prefetch_queue) == 0
