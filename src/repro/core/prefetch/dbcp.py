"""Dead-Block Correlating Prefetcher baseline (Lai, Fide, Falsafi).

The paper's comparison point: a 2MB correlation table indexed by a
signature that includes the **PC trace** (which the timekeeping scheme
deliberately avoids).  DBCP's death prediction is *time-independent*:
a block is predicted dead when its reference history repeats the
history that preceded its death last time.  We model that with the
reference-count form — the block is declared dead when its demand-hit
count reaches the hit count of its previous generation — which captures
DBCP's defining properties for this comparison:

- address predictions come from a large PC+history-indexed table, so
  accuracy keeps improving with table size (mcf's preference);
- prediction timing follows reference counts, not measured durations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...cache.block import Frame
from ...common.config import CacheConfig
from .correlation import DBCPTable
from .policy import PrefetchPolicy, ScheduledPrefetch


class _FrameState:
    """Per-frame DBCP bookkeeping."""

    __slots__ = ("signature", "predicted_block", "death_hits", "armed", "last_pc")

    def __init__(self) -> None:
        self.signature = -1
        self.predicted_block = -1
        self.death_hits = 0
        self.armed = False
        #: PC of the frame's last demand miss; reused for prefetch fills
        #: so learned and looked-up signatures stay consistent.
        self.last_pc = 0


class DBCPPrefetchPolicy(PrefetchPolicy):
    """PC+history correlating prefetcher with reference-count timing."""

    name = "dbcp"

    def __init__(self, l1_config: CacheConfig, table: Optional[DBCPTable] = None) -> None:
        """Predict for an L1 of *l1_config* from *table* (a 2MB one by default)."""
        self.l1 = l1_config
        self.table = table if table is not None else DBCPTable()
        self._index_bits = l1_config.index_bits
        #: block address -> demand-hit count of its previous generation.
        self._prev_hits: Dict[int, int] = {}
        self._frames: Dict[int, _FrameState] = {}

    def _state(self, frame_key: int) -> _FrameState:
        state = self._frames.get(frame_key)
        if state is None:
            state = _FrameState()
            self._frames[frame_key] = state
        return state

    def _tag(self, block_addr: int) -> int:
        return block_addr >> self._index_bits

    def _observe_fill(self, frame: Frame, frame_key: int, new_block_addr: int,
                      pc: int, now: int) -> Optional[ScheduledPrefetch]:
        state = self._state(frame_key)
        old_block = 0
        if frame.valid:
            # Close A's generation: remember its hit count and teach the
            # table that the old signature was followed by this block.
            self._prev_hits[frame.block_addr] = frame.hit_count
            if state.signature >= 0:
                self.table.update(state.signature, new_block_addr)
            old_block = frame.block_addr
        state.signature = DBCPTable.signature(pc, old_block, new_block_addr)
        predicted = self.table.lookup(state.signature)
        state.predicted_block = predicted if predicted is not None else -1
        state.death_hits = self._prev_hits.get(new_block_addr, 0)
        state.armed = False
        if predicted is not None and state.death_hits == 0:
            # History says this block dies without further hits: the
            # prefetch can go out immediately.
            state.armed = True
            return ScheduledPrefetch(frame_key, predicted, now + 1)
        return None

    # -- policy hooks ------------------------------------------------------------

    def on_miss(self, frame: Frame, frame_key: int, new_block_addr: int,
                pc: int, now: int) -> Optional[ScheduledPrefetch]:
        """:meth:`PrefetchPolicy.on_miss`: learn and predict from the miss PC."""
        self._state(frame_key).last_pc = pc
        return self._observe_fill(frame, frame_key, new_block_addr, pc, now)

    def on_prefetch_fill(self, frame: Frame, frame_key: int, block_addr: int,
                         now: int) -> Optional[ScheduledPrefetch]:
        """:meth:`PrefetchPolicy.on_prefetch_fill`: extend the per-frame
        history chain as a demand fill does, but never arm at once (the
        next prefetch waits for the block's first demand use).  The
        frame's last demand-miss PC stands in for the absent miss PC, so
        learned and looked-up signatures stay consistent."""
        state = self._state(frame_key)
        schedule = self._observe_fill(frame, frame_key, block_addr, state.last_pc, now)
        if schedule is not None:
            # Revert the immediate arm: hold until first demand use.
            state.armed = False
        return None

    def on_hit(self, frame: Frame, frame_key: int, now: int) -> Optional[ScheduledPrefetch]:
        """:meth:`PrefetchPolicy.on_hit`: arm at the predicted death count."""
        state = self._frames.get(frame_key)
        if state is None or state.armed or state.predicted_block < 0:
            return None
        if frame.hit_count >= state.death_hits:
            state.armed = True
            return ScheduledPrefetch(frame_key, state.predicted_block, now + 1)
        return None

    def next_hit_trigger(self, frame_key: int, frame: Frame) -> Optional[int]:
        """The first hit count reaching ``death_hits`` of an unarmed frame
        with a prediction; :meth:`on_hit` acts at no other hit."""
        state = self._frames.get(frame_key)
        if state is None or state.armed or state.predicted_block < 0:
            return None
        return max(state.death_hits, 1)

    def state_bytes(self) -> int:
        """:meth:`PrefetchPolicy.state_bytes`: the DBCP table's size."""
        return self.table.size_bytes
