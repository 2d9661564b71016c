"""Prefetch policy interface.

The simulator owns the prefetch *engine* — queue, MSHRs, bus, fills —
and consults a :class:`PrefetchPolicy` for the *predictions*: what to
prefetch into a frame and when the timer should fire.  Policies see the
same frame events the hardware would:

- ``on_miss``: a demand miss on ``new_block_addr`` is about to evict
  the frame's resident (the frame still holds the old state);
- ``on_hit``: a demand hit just updated the frame;
- ``on_prefetch_fill``: a prefetched block is about to be installed.

Each hook may return a :class:`ScheduledPrefetch` to (re)arm that
frame's single prefetch timer.

A policy may also define ``next_hit_trigger(frame_key, frame)``: the
frame's demand-hit count at which ``on_hit`` can next return a
schedule or change policy state, or None when no hit can before the
frame's next fill.  The batch engine skips every other hit; a policy
without it runs on the scalar loop.
"""

from __future__ import annotations

import abc
from typing import NamedTuple, Optional

from ...cache.block import Frame


class ScheduledPrefetch(NamedTuple):
    """A request to arm one frame's prefetch timer.

    Immutable; a named tuple, because the prefetch engines build one per
    prediction and a tuple is the cheapest record to build.

    Attributes:
        frame_key: Identifies the L1 frame (set * assoc + way).
        target_block: L1 block address to prefetch.
        fire_at: Cycle at which the request enters the prefetch queue.
    """

    frame_key: int
    target_block: int
    fire_at: int


class PrefetchPolicy(abc.ABC):
    """Prediction logic behind the shared prefetch engine."""

    name = "base"
    #: Optional hit-trigger method (see the module docstring); None
    #: keeps the policy on the scalar loop.
    next_hit_trigger = None

    @abc.abstractmethod
    def on_miss(self, frame: Frame, frame_key: int, new_block_addr: int,
                pc: int, now: int) -> Optional[ScheduledPrefetch]:
        """Demand miss on *new_block_addr* evicting *frame*'s resident."""

    def on_hit(self, frame: Frame, frame_key: int, now: int) -> Optional[ScheduledPrefetch]:
        """Demand hit on *frame* (already recorded on the frame)."""
        return None

    def on_prefetch_fill(self, frame: Frame, frame_key: int, block_addr: int,
                         now: int) -> Optional[ScheduledPrefetch]:
        """Prefetched *block_addr* about to replace *frame*'s resident."""
        return None

    def state_bytes(self) -> int:
        """Approximate hardware state of the policy's tables, in bytes."""
        return 0
