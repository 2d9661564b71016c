"""The timekeeping prefetch policy (paper Section 5.2).

One correlation-table structure predicts *both* what to prefetch and
when (Figures 17, 18).  Per L1 frame the hardware keeps: a generation
counter (gt), a live-time register (lt, trailing gt by one access), the
previous resident's tag (prev_tag), the predicted next tag, and a
prefetch countdown counter — all 5-bit, ticked every 512 cycles.

Protocol on a demand miss of B replacing A (with D before A):

1. *Update*: the entry for history (D, A) learns next_tag = B and
   lt(A) — A's just-completed live time.
2. *Predict*: the entry for history (A, B) is read; if present it
   yields C (the tag to prefetch, same set) and a prediction of B's
   live time.  The prefetch counter is armed with **twice** the
   predicted live time (the Section 5.1.2 dead-block heuristic); when
   it reaches zero the prefetch of C enters the request queue.

When a *prefetched* block C is installed, the entry for (A, B) is
updated with the confirmed successor; the chain continues at C's first
demand use, which anchors C's generation for timing purposes and arms
the next prediction — this is what keeps a stream of successful
prefetches going without demand misses to trigger them.
"""

from __future__ import annotations

from typing import Optional

from ...cache.block import Frame
from ...common.config import CacheConfig
from ..tick import GlobalTicker
from .correlation import CorrelationTable
from .policy import PrefetchPolicy, ScheduledPrefetch

#: Width of the per-line gt/lt/prefetch counters (Figure 18).
COUNTER_BITS = 5
#: The value a saturated counter holds.
_COUNTER_MAX = (1 << COUNTER_BITS) - 1


class TimekeepingPrefetchPolicy(PrefetchPolicy):
    """Address + live-time correlation prefetching."""

    name = "timekeeping"

    def __init__(
        self,
        l1_config: CacheConfig,
        table: Optional[CorrelationTable] = None,
        *,
        tick_cycles: int = 512,
        live_time_scale: int = 2,
    ) -> None:
        """Predict for an L1 of *l1_config* from *table* (8KB by default)."""
        self.l1 = l1_config
        self.table = table if table is not None else CorrelationTable()
        self.ticker = GlobalTicker(tick_cycles)
        self.live_time_scale = live_time_scale
        self._index_bits = l1_config.index_bits
        self._set_mask = l1_config.num_sets - 1

    # -- helpers ---------------------------------------------------------------

    def _tag(self, block_addr: int) -> int:
        return block_addr >> self._index_bits

    def _block(self, tag: int, set_index: int) -> int:
        return (tag << self._index_bits) | set_index

    def _lt_ticks(self, frame: Frame) -> int:
        """A frame's live time as the 5-bit tick count the lt register holds.

        ``saturate(ticker.ticks_between(fill, fill + live_time()))``,
        written out: it runs on every eviction that updates the table.
        """
        fill = frame.fill_time
        live = frame.lt_register if frame.hit_count > 0 else 0
        tick = self.ticker.tick_cycles
        ticks = (fill + live) // tick - fill // tick
        return ticks if ticks < _COUNTER_MAX else _COUNTER_MAX

    def _arm(self, frame_key: int, set_index: int, predicted_tag: int,
             lt_ticks: int, now: int) -> Optional[ScheduledPrefetch]:
        """Build the timer event: fire after scale x predicted live time,
        aligned to the next global tick edge (counters decrement on
        edges, so a zero count still waits for the upcoming edge).

        A saturated countdown means the predicted live time exceeds what
        the 5-bit counter can represent — the block lives too long for a
        timely prediction, so no prefetch is armed.  Without this guard,
        long-lived (hot) residents would be displaced while live, and
        every displacement seeds further misses — a feedback storm on
        cache-resident working sets.
        """
        delay_ticks = self.live_time_scale * lt_ticks
        if delay_ticks >= _COUNTER_MAX:
            return None
        tick = self.ticker.tick_cycles
        fire_at = ((now // tick) + delay_ticks + 1) * tick
        return ScheduledPrefetch(frame_key, self._block(predicted_tag, set_index), fire_at)

    # -- policy hooks ------------------------------------------------------------

    def on_miss(self, frame: Frame, frame_key: int, new_block_addr: int,
                pc: int, now: int) -> Optional[ScheduledPrefetch]:
        """:meth:`PrefetchPolicy.on_miss`: learn (D, A) -> B, predict (A, B)."""
        if not frame.valid:
            return None
        set_index = new_block_addr & self._set_mask
        tag_b = new_block_addr >> self._index_bits
        tag_a = frame.tag
        table = self.table
        # Update: history (D, A) -> (B, lt(A)).
        if frame.prev_tag >= 0:
            table.update(frame.prev_tag, tag_a, set_index, tag_b, self._lt_ticks(frame))
        # Predict: history (A, B) -> (C, lt(B)).
        prediction = table.lookup(tag_a, tag_b, set_index)
        if prediction is None:
            return None
        next_tag, lt_ticks = prediction
        return self._arm(frame_key, set_index, next_tag, lt_ticks, now)

    def on_prefetch_fill(self, frame: Frame, frame_key: int, block_addr: int,
                         now: int) -> Optional[ScheduledPrefetch]:
        """:meth:`PrefetchPolicy.on_prefetch_fill`: prefetched C replaces B
        (A before it), so confirm (A, B) -> C with B's live time.  The
        chain re-arms at C's first demand use (:meth:`on_hit`)."""
        if not frame.valid or frame.prev_tag < 0:
            return None
        set_index = block_addr & self._set_mask
        self.table.update(
            frame.prev_tag, frame.tag, set_index, self._tag(block_addr), self._lt_ticks(frame)
        )
        return None

    def on_hit(self, frame: Frame, frame_key: int, now: int) -> Optional[ScheduledPrefetch]:
        """:meth:`PrefetchPolicy.on_hit`: at a prefetched block's first use,
        look up the chain's next link and arm the timer from this use."""
        if not (frame.prefetched and frame.hit_count == 1):
            return None
        if frame.prev_tag < 0:
            return None
        set_index = frame.block_addr & self._set_mask
        prediction = self.table.lookup(frame.prev_tag, frame.tag, set_index)
        if prediction is None:
            return None
        next_tag, lt_ticks = prediction
        return self._arm(frame_key, set_index, next_tag, lt_ticks, now)

    def next_hit_trigger(self, frame_key: int, frame: Frame) -> Optional[int]:
        """Hit 1 of an unused prefetched block, the only hit :meth:`on_hit` acts at."""
        return 1 if frame.prefetched and frame.hit_count == 0 else None

    def state_bytes(self) -> int:
        """:meth:`PrefetchPolicy.state_bytes`: the correlation table's size."""
        return self.table.size_bytes
