"""Generational bookkeeping for cache lines (paper Section 3).

A *generation* of a cache frame starts with the miss that fills it and
ends when the block is evicted.  Within a generation (Figure 3):

- **live time**: fill to last hit (zero if never hit);
- **dead time**: last access to eviction;
- **access interval**: time between successive accesses within the live
  time;
- **reload interval**: time between the starts of two successive
  generations *of the same memory block* (equals the block's access
  interval one level down).

:class:`GenerationTracker` receives fill/hit/evict events from the
simulator and produces :class:`GenerationRecord` per closed generation,
plus per-block state needed to correlate a *miss* with the metrics of
the block's previous generation (Section 4 keys every miss-type
correlation off the last generation of the line that misses).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class GenerationRecord:
    """One closed cache-line generation.

    A slotted plain class rather than a frozen dataclass: one record is
    allocated per eviction, and ``object.__setattr__``-per-field makes
    frozen-dataclass construction the dominant cost of ``on_evict``.

    Attributes:
        max_access_interval: Largest access interval observed within the
            live time (0 when fewer than one hit); used by the decay
            dead-block evaluation.
        prev_live_time: Live time of the same block's previous
            generation, or None — the input to the live-time dead-block
            predictor evaluation.
    """

    __slots__ = (
        "block_addr",
        "start",
        "live_time",
        "dead_time",
        "hit_count",
        "max_access_interval",
        "prev_live_time",
    )

    def __init__(
        self,
        block_addr: int,
        start: int,
        live_time: int,
        dead_time: int,
        hit_count: int,
        max_access_interval: int,
        prev_live_time: Optional[int],
    ) -> None:
        """Store the fields as given (see the class attributes)."""
        self.block_addr = block_addr
        self.start = start
        self.live_time = live_time
        self.dead_time = dead_time
        self.hit_count = hit_count
        self.max_access_interval = max_access_interval
        self.prev_live_time = prev_live_time

    @property
    def generation_time(self) -> int:
        """Fill to eviction."""
        return self.live_time + self.dead_time

    def __repr__(self) -> str:
        return (
            f"GenerationRecord(block_addr={self.block_addr}, start={self.start}, "
            f"live_time={self.live_time}, dead_time={self.dead_time}, "
            f"hit_count={self.hit_count}, "
            f"max_access_interval={self.max_access_interval}, "
            f"prev_live_time={self.prev_live_time})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GenerationRecord):
            return NotImplemented
        return (
            self.block_addr == other.block_addr
            and self.start == other.start
            and self.live_time == other.live_time
            and self.dead_time == other.dead_time
            and self.hit_count == other.hit_count
            and self.max_access_interval == other.max_access_interval
            and self.prev_live_time == other.prev_live_time
        )


def records_from_table(table: np.ndarray) -> List[GenerationRecord]:
    """Build :class:`GenerationRecord` objects from a ``(7, n)`` int table.

    The table's rows are the record fields in slot order, with -1 for a
    missing ``prev_live_time`` (the layout of
    :class:`~repro.core.metrics.GenerationColumns`).
    """
    columns = table.tolist()
    columns[6] = [None if prev < 0 else prev for prev in columns[6]]
    return list(map(GenerationRecord, *columns))


class GenerationTracker:
    """Tracks generations across all frames of one cache.

    The caller owns frame state (``repro.cache.block.Frame`` already
    carries fill/last-access times); this tracker adds what frames
    cannot know — per-*block* history across generations — and closes
    the books on evictions.

    Args:
        on_generation: Optional callback invoked with each closed
            :class:`GenerationRecord` (metrics collectors hook here).
    """

    __slots__ = (
        "_on_generation",
        "_last_gen_map",
        "_pending_closed",
        "_open_last",
        "_open_max",
        "closed_generations",
    )

    def __init__(
        self,
        on_generation: Optional[Callable[[GenerationRecord], None]] = None,
    ) -> None:
        """No history and no open generation; *on_generation* gets each record."""
        self._on_generation = on_generation
        #: block_addr -> closed record of the block's previous tenancy
        #: (exposes the start/live_time/dead_time trio callers read).
        #: Batch-closed generations wait as tables in
        #: ``_pending_closed``: :meth:`history` searches them as they
        #: are, and a scalar read folds them into the map.
        self._last_gen_map: Dict[int, GenerationRecord] = {}
        self._pending_closed: List[np.ndarray] = []
        #: Open-generation state, split into parallel int-valued dicts
        #: so the per-hit update allocates nothing (no tuple per access);
        #: frame id is any hashable the caller uses.
        self._open_last: Dict[int, int] = {}
        self._open_max: Dict[int, int] = {}
        self.closed_generations = 0

    def set_on_generation(
        self, callback: Optional[Callable[[GenerationRecord], None]]
    ) -> None:
        """Replace the closed-generation callback.

        The warm-up reset uses this to hook a fresh metrics collector
        without reaching into tracker internals.
        """
        self._on_generation = callback

    # -- event feed ----------------------------------------------------------

    def on_fill(self, frame_id: int, block_addr: int, now: int) -> Optional[int]:
        """Record a fill; returns the block's reload interval, or None.

        The reload interval is ``now - start of the block's previous
        generation`` and is only defined from the second generation on.
        """
        self._open_last[frame_id] = now
        self._open_max[frame_id] = 0
        if self._pending_closed:
            self._flush_closed()
        last = self._last_gen_map.get(block_addr)
        if last is None:
            return None
        return now - last.start

    def on_hit(self, frame_id: int, now: int) -> int:
        """Record a demand hit; returns this access interval."""
        open_last = self._open_last
        interval = now - open_last[frame_id]
        open_last[frame_id] = now
        open_max = self._open_max
        if interval > open_max[frame_id]:
            open_max[frame_id] = interval
        return interval

    def on_evict(
        self,
        frame_id: int,
        block_addr: int,
        fill_time: int,
        live_time: int,
        now: int,
        hit_count: int = 0,
    ) -> GenerationRecord:
        """Close the generation open on *frame_id* and return its record.

        Args:
            block_addr: The evicted block.
            fill_time: Cycle its generation began.
            live_time: Fill-to-last-hit (0 when no hits) — the caller's
                frame holds this exactly (``Frame.live_time()``).
            now: Eviction cycle.
            hit_count: Demand hits the generation received.
        """
        self._open_last.pop(frame_id, None)
        max_interval = self._open_max.pop(frame_id, 0)
        if self._pending_closed:
            self._flush_closed()
        last_gen = self._last_gen_map
        prev = last_gen.get(block_addr)
        record = GenerationRecord(
            block_addr,
            fill_time,
            live_time,
            now - (fill_time + live_time),
            hit_count,
            max_interval,
            prev.live_time if prev is not None else None,
        )
        last_gen[block_addr] = record
        self.closed_generations += 1
        if self._on_generation is not None:
            self._on_generation(record)
        return record

    def absorb_closed(self, table: np.ndarray) -> None:
        """Fold a batch of closed generations, given as a table, into the books.

        The batch engine knows every record field from column math and
        delivers the metric effects in bulk itself, so this method
        deliberately does **not** invoke the per-record
        ``on_generation`` callback — it only counts the generations and
        queues *table* (a ``(7, n)`` int64 array laid out as
        :class:`~repro.core.metrics.GenerationColumns`, in eviction
        order) as per-block history.  The next batch reads that history
        with :meth:`history`, straight from the queued tables;
        :class:`GenerationRecord` objects are only built when a scalar
        fill/evict or a direct ``last_generation`` query reads it.  Last
        record per block wins, matching sequential :meth:`on_evict`
        order.  Open-generation state (``_open_last`` / ``_open_max``)
        is owned by the caller at batch granularity and is written back
        separately.
        """
        self.closed_generations += table.shape[1]
        self._pending_closed.append(table)

    def _flush_closed(self) -> None:
        """Materialize queued closed-generation tables into the map."""
        last_gen = self._last_gen_map
        for table in self._pending_closed:
            last_gen.update(zip(table[0].tolist(), records_from_table(table)))
        self._pending_closed.clear()

    def history(self, blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each of *blocks*' most recent closed generation, without records.

        Returns ``(found, fields)``: a bool column, and a ``(3, n)``
        int64 table of the generations' ``start``, ``live_time`` and
        ``dead_time`` (zero where not found).  The queued tables, which
        are newer than the record map, are merged into one and searched
        first.
        """
        found = np.zeros(blocks.size, dtype=bool)
        fields = np.zeros((3, blocks.size), dtype=np.int64)
        pending = self._pending_closed
        if len(pending) > 1:
            pending[:] = [np.concatenate(pending, axis=1)]
        if pending and blocks.size:
            table = pending[0]
            # A stable sort keeps eviction order within a block, so each
            # block's latest row ends its run.
            order = np.argsort(table[0], kind="stable")
            keys = table[0][order]
            ends = np.append(keys[1:] != keys[:-1], True)
            keys, rows = keys[ends], order[ends]
            pos = np.minimum(np.searchsorted(keys, blocks), keys.size - 1)
            found = keys[pos] == blocks
            fields[:, found] = table[1:4, rows[pos[found]]]
        if self._last_gen_map:
            get = self._last_gen_map.get
            for i in np.flatnonzero(~found).tolist():
                record = get(int(blocks[i]))
                if record is not None:
                    found[i] = True
                    fields[:, i] = record.start, record.live_time, record.dead_time
        return found, fields

    # -- miss-time queries (Section 4 correlations) ---------------------------

    def last_generation(self, block_addr: int) -> Optional[GenerationRecord]:
        """The block's most recent closed generation, if any.

        At a miss to ``block_addr``, this is "the last generation of the
        cache line that suffers the miss": its live time, dead time, and
        (via ``now - start``) the reload interval the paper's conflict
        predictors consume.
        """
        if self._pending_closed:
            self._flush_closed()
        return self._last_gen_map.get(block_addr)

    def reload_interval_at(self, block_addr: int, now: int) -> Optional[int]:
        """Reload interval if the block were refetched at *now*."""
        last = self.last_generation(block_addr)
        return None if last is None else now - last.start
