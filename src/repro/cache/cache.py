"""Set-associative LRU cache mechanism.

:class:`SetAssociativeCache` implements pure cache *mechanism* — tag
match, LRU victim selection, fill — and exposes the resident
:class:`Frame` objects so policy layers (generation tracking, victim
filters, prefetchers) can read and annotate per-frame state without
the cache knowing about them.

The access protocol is split so callers can observe evictions:

    frame = cache.probe(block_addr)          # None on miss
    if frame is None:
        victim = cache.choose_victim(block_addr)
        ... inspect victim (dead time, dirty, ...) ...
        cache.fill(victim, block_addr, now)
    else:
        cache.touch(frame, now)

``probe``/``touch``/``fill`` are kept small and allocation-free; they are
the simulator's hot path.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterator, List, Optional

from ..common.config import CacheConfig
from .block import Frame

#: Victim-selection key; attrgetter avoids a Python-level lambda frame
#: per comparison on the hot path.
_BY_STAMP = attrgetter("lru_stamp")


class SetAssociativeCache:
    """A set-associative cache of :class:`Frame` slots with LRU replacement.

    Every hit and every fill stamps its frame from a monotone clock, and
    a full set evicts the frame with the least stamp.

    Addresses given to this class are *block addresses* (byte address
    right-shifted by the block offset) — use :meth:`block_address` to
    convert.  Keeping the shift at the caller avoids repeating it on the
    L2 path where the block size differs.

    Residency is tracked two ways: the per-set frame lists (the physical
    geometry victim selection operates on) and a block→frame tag
    store, so :meth:`probe` is a single dict lookup instead of a set
    scan.  Every state change must go through :meth:`fill`,
    :meth:`invalidate`, or :meth:`invalidate_frame` to keep the two
    views consistent; flipping ``frame.valid`` directly will desync
    them.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.associativity = config.associativity
        self._set_mask = self.num_sets - 1
        self._index_bits = config.index_bits
        #: Per-set frame lists, materialized on first touch: a large L2
        #: allocates tens of thousands of frames, and sweeps over short
        #: traces never reference most sets.
        self._sets: List[Optional[List[Frame]]] = [None] * self.num_sets
        #: Resident block address -> its frame (the O(1) tag store).
        self._tags: Dict[int, Frame] = {}
        #: Valid frames per set; lets choose_victim skip the
        #: invalid-frame scan once a set is full (the steady state).
        self._valid_counts: List[int] = [0] * self.num_sets
        #: Monotone counter driving LRU stamps.
        self._clock = 0
        #: Pending lazily-installed contents (see :meth:`defer_contents`);
        #: None in normal operation.
        self._deferred = None
        # Aggregate counters (mechanism-level; outcome-level stats live
        # in the simulator).
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- address helpers ----------------------------------------------------

    def block_address(self, byte_address: int) -> int:
        """Convert a byte address to this cache's block address."""
        return byte_address >> self.config.offset_bits

    def set_index_of(self, block_addr: int) -> int:
        """Set index for a block address."""
        return block_addr & self._set_mask

    def tag_of(self, block_addr: int) -> int:
        """Tag for a block address."""
        return block_addr >> self._index_bits

    # -- access protocol ----------------------------------------------------

    def probe(self, block_addr: int) -> Optional[Frame]:
        """Return the resident frame for *block_addr*, or None on miss.

        Does not update replacement state; pair with :meth:`touch`.
        """
        if self._deferred is not None:
            self._thaw()
        return self._tags.get(block_addr)

    def touch(self, frame: Frame, now: int, *, store: bool = False) -> None:
        """Record a demand hit on *frame* at cycle *now*."""
        self.hits += 1
        frame.record_hit(now, store=store)
        self._clock += 1
        frame.lru_stamp = self._clock

    def choose_victim(self, block_addr: int) -> Frame:
        """Pick the frame that a fill of *block_addr* would replace.

        Prefers the first invalid frame in way order; otherwise the
        least recently used one.  Full sets (the steady state) skip the
        invalid-frame scan via the per-set valid count.
        """
        if self._deferred is not None:
            self._thaw()
        set_index = block_addr & self._set_mask
        frames = self._sets[set_index]
        if frames is None:
            frames = self._materialize_set(set_index)
        if self._valid_counts[set_index] < self.associativity:
            for frame in frames:
                if not frame.valid:
                    return frame
        if self.associativity == 1:
            return frames[0]
        return min(frames, key=_BY_STAMP)

    def fill(self, frame: Frame, block_addr: int, now: int, *, store: bool = False,
             prefetched: bool = False, lru_insert: bool = False) -> None:
        """Install *block_addr* into *frame*, starting a new generation.

        With ``lru_insert`` the new block enters at the least-recently-
        used position of its set instead of the most recent — the usual
        anti-pollution placement for speculative (prefetched) lines: a
        wrong prefetch is then the next block evicted rather than a
        demand line.
        """
        if frame.valid:
            self.evictions += 1
            del self._tags[frame.block_addr]
        else:
            self._valid_counts[frame.set_index] += 1
        if not prefetched:
            self.misses += 1
        frame.reset_generation(block_addr, block_addr >> self._index_bits, now,
                               prefetched=prefetched)
        self._tags[block_addr] = frame
        if store:
            frame.dirty = True
        if lru_insert and self.associativity > 1:
            frames = self._materialize_set(block_addr & self._set_mask)
            frame.lru_stamp = min(f.lru_stamp for f in frames if f is not frame) - 1
        else:
            self._clock += 1
            frame.lru_stamp = self._clock

    def access(self, block_addr: int, now: int, *, store: bool = False,
               lru_insert: bool = False) -> bool:
        """Convenience probe+touch / choose+fill; returns True on hit."""
        frame = self.probe(block_addr)
        if frame is not None:
            self.touch(frame, now, store=store)
            return True
        victim = self.choose_victim(block_addr)
        self.fill(victim, block_addr, now, store=store, lru_insert=lru_insert)
        return False

    def invalidate(self, block_addr: int) -> Optional[Frame]:
        """Remove *block_addr* if resident; return its frame."""
        frame = self.probe(block_addr)
        if frame is not None:
            self.invalidate_frame(frame)
        return frame

    def invalidate_frame(self, frame: Frame) -> None:
        """Invalidate *frame* in place, keeping the tag store consistent.

        The simulator's decay path drops lines by frame (it already
        holds the probe result); going through this method instead of
        flipping ``frame.valid`` keeps the block→frame map in sync.
        """
        if frame.valid:
            del self._tags[frame.block_addr]
            self._valid_counts[frame.set_index] -= 1
            frame.valid = False
            frame.block_addr = -1

    # -- deferred contents (batch engine) ------------------------------------

    def defer_contents(self, installer) -> None:
        """Schedule *installer* to rebuild this cache's contents lazily.

        The batch engine tracks the caches through lean per-set
        structures instead of :class:`Frame` objects (the L2 as block
        lists, the direct-mapped L1 as columns); at the end of a
        batched run it hands each cache an installer that can
        reconstruct the exact frame state, and the cache runs it on the
        first content access (``probe``/``choose_victim``/``access``/
        ``invalidate``/``frames``/``set_frames``).  Until then ``_tags``
        and ``_sets`` hold the *pre-batch* state, so direct field access
        must either go through the public methods or consume the pending
        installer via :meth:`deferred_contents` first.  Aggregate
        counters (hits/misses/evictions, ``_clock``) are not deferred —
        callers update those eagerly.

        *installer* is called as ``installer(cache)`` and must leave the
        ``_sets``/``_tags``/``_valid_counts`` views mutually consistent.
        """
        self._deferred = installer

    def deferred_contents(self):
        """Pop and return the pending contents installer, or None.

        A follow-up batched run (the warm-up boundary) consumes the
        installer's lean state directly instead of paying for frame
        reconstruction; after this call the caller owns the state and
        the cache no longer thaws.
        """
        installer, self._deferred = self._deferred, None
        return installer

    def _thaw(self) -> None:
        """Run the pending contents installer (idempotent)."""
        installer, self._deferred = self._deferred, None
        installer(self)

    # -- introspection -------------------------------------------------------

    def _materialize_set(self, set_index: int) -> List[Frame]:
        """Create (or return) the frame list of one set."""
        frames = self._sets[set_index]
        if frames is None:
            assoc = self.associativity
            base = set_index * assoc
            frames = [Frame(set_index, w, base + w) for w in range(assoc)]
            self._sets[set_index] = frames
        return frames

    def frames(self) -> Iterator[Frame]:
        """Iterate all frames (valid and invalid)."""
        if self._deferred is not None:
            self._thaw()
        for set_index in range(self.num_sets):
            yield from self._materialize_set(set_index)

    def set_frames(self, set_index: int) -> List[Frame]:
        """Frames of one set (the actual list; treat as read-only)."""
        if self._deferred is not None:
            self._thaw()
        return self._materialize_set(set_index)

    def resident_blocks(self) -> Iterator[int]:
        """Block addresses currently resident."""
        return (f.block_addr for f in self.frames() if f.valid)

    @property
    def accesses(self) -> int:
        """Demand accesses observed (hits + misses)."""
        return self.hits + self.misses

    def miss_rate(self) -> float:
        """Demand miss rate (0 when no accesses yet)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        """Zero the aggregate counters; contents are untouched (warm-up)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.config.name}: {self.num_sets}x"
            f"{self.associativity} ways, {self.config.block_size}B blocks)"
        )
