"""Hill's 3C miss classification (cold / conflict / capacity).

Definitions (paper Section 4, after Hill):

- **cold**: first reference ever to the block;
- **conflict**: the miss would have hit in a fully-associative LRU
  cache of the same total capacity;
- **capacity**: the miss would miss even in that fully-associative
  cache.

:class:`ThreeCClassifier` runs a fully-associative LRU shadow cache of
the L1's capacity alongside the real cache.  Feed it **every** L1
access (hits too — the shadow's recency state must see the full
reference stream) via :meth:`record_access`, and classify misses with
:meth:`classify_miss` *before* recording them.

An engine that computes the shadow's evolution elsewhere (the batch
engine's memoized replay, :func:`repro.sim.batch._classify`) hands the
classifier its exit state with :meth:`ThreeCClassifier.defer`; the
shadow and seen set are rebuilt from it only when something reads
them, through :meth:`ThreeCClassifier.contents` or the per-access
methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Set, Tuple

from ..common.types import MissClass
from .lru_stack import BoundedLRU

#: The state token of a classifier nothing has fed yet: an empty shadow
#: and an empty seen set (see :attr:`ThreeCClassifier.state`).
FRESH = object()


@dataclass
class MissCounts:
    """Tally of classified misses."""

    cold: int = 0
    conflict: int = 0
    capacity: int = 0

    @property
    def total(self) -> int:
        """Number of classified misses."""
        return self.cold + self.conflict + self.capacity

    def fraction(self, kind: MissClass) -> float:
        """Fraction of all misses that are *kind* (0 if no misses)."""
        if self.total == 0:
            return 0.0
        return {
            MissClass.COLD: self.cold,
            MissClass.CONFLICT: self.conflict,
            MissClass.CAPACITY: self.capacity,
        }[kind] / self.total

    def add(self, kind: MissClass) -> None:
        """Count one miss of class *kind*."""
        if kind == MissClass.COLD:
            self.cold += 1
        elif kind == MissClass.CONFLICT:
            self.conflict += 1
        else:
            self.capacity += 1


class ThreeCClassifier:
    """Online 3C classifier for one cache level.

    :attr:`state` is a token for the shadow and seen-set state: the
    module's :data:`FRESH` for an untouched classifier, the object
    whose exit state the classifier holds after :meth:`defer` (or after
    an engine replayed into it and set the token), and None once an
    access was recorded one at a time.  Equal tokens mean equal state,
    so an engine can test whether a memoized replay starts here without
    comparing the shadows.
    """

    __slots__ = ("capacity", "_shadow", "_seen", "_shadow_blocks", "counts",
                 "state", "_deferred")

    def __init__(self, capacity_blocks: int) -> None:
        """An empty classifier whose shadow holds *capacity_blocks* blocks."""
        self._shadow = BoundedLRU(capacity_blocks)
        self.capacity = capacity_blocks
        #: Direct view of the shadow's recency dict; membership tests in
        #: the hot path skip the BoundedLRU.__contains__ dispatch.
        self._shadow_blocks = self._shadow._blocks
        self._seen: Set[int] = set()
        self.counts = MissCounts()
        self.state: Any = FRESH
        #: The installer of a deferred state (see :meth:`defer`), or None.
        self._deferred = None

    def defer(self, installer) -> None:
        """Take *installer*'s state as this classifier's, lazily.

        *installer* becomes :attr:`state`; it is called as
        ``installer(shadow_blocks, seen)`` and must rebuild both in
        place (the shadow's keys in LRU order) the first time something
        reads them.  Counts are not deferred: callers update those
        eagerly.
        """
        self.state = self._deferred = installer

    def contents(self) -> Tuple[Dict[int, None], Set[int]]:
        """The shadow's blocks (a dict in LRU order, least recent first)
        and the seen set, after installing any deferred state.

        Both are the live structures: the one way to read the shadow
        and seen set, and the batch engine's way to replay into them.
        """
        installer = self._deferred
        if installer is not None:
            self._deferred = None
            installer(self._shadow_blocks, self._seen)
        return self._shadow_blocks, self._seen

    def classify_miss(self, block_addr: int) -> MissClass:
        """Classify a miss on *block_addr* (call before record_access).

        Consults only state from *previous* references, as the
        definition requires.
        """
        if self._deferred is not None:
            self.contents()
        counts = self.counts
        if block_addr not in self._seen:
            counts.cold += 1
            return MissClass.COLD
        if block_addr in self._shadow_blocks:
            counts.conflict += 1
            return MissClass.CONFLICT
        counts.capacity += 1
        return MissClass.CAPACITY

    def record_access(self, block_addr: int) -> None:
        """Update shadow state with an access (hit or miss) to *block_addr*."""
        if self._deferred is not None:
            self.contents()
        self.state = None
        self._seen.add(block_addr)
        self._shadow.access(block_addr)

    def reset_stats(self) -> None:
        """Zero the tallies; shadow/first-touch state is kept (warm-up)."""
        self.counts = MissCounts()

    def observe(self, block_addr: int, l1_hit: bool) -> MissClass:
        """Convenience: classify (if a miss) then record; returns the
        class, or raises on hits — use record_access for hits."""
        if l1_hit:
            raise ValueError("observe() is for misses; use record_access for hits")
        kind = self.classify_miss(block_addr)
        self.record_access(block_addr)
        return kind
