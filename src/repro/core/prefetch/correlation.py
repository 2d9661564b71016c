"""Address + live-time correlation tables (paper Section 5.2).

The timekeeping predictor (Figure 17) is a set-associative correlation
table indexed by the per-frame 1-miss history: when block B replaces
block A in a frame, the truncated sum of A's and B's tags supplies m
pointer bits and the cache set index supplies n bits; the selected set
is searched for an entry whose identification tag matches B.  The entry
predicts the tag of the block that will be fetched into the frame next
(the index is implied — same set) *and* the live time of B, stored as a
5-bit saturating tick count.

Indexing mostly by tag information (small n) deliberately aliases
histories from different sets onto the same entry — *constructive
aliasing*: distinct data structures traversed the same way share
entries, which is why an 8KB table competes with a 2MB DBCP.

:class:`DBCPTable` is the baseline's table: indexed by a hashed
signature of (PC, per-set miss history), predicting the next miss
address; it carries no timing information.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import DefaultDict, List, Optional, Tuple

from ...common.errors import ConfigError


class CorrelationTable:
    """The timekeeping address + live-time correlation table.

    Geometry: ``2**(tag_sum_bits + index_bits)`` sets of
    ``associativity`` entries, LRU within a set.  With the paper's
    defaults (m=7, n=1, 8-way, 4-byte entries) the table is 8KB.

    Entries are keyed by the identification tag (the current resident's
    tag) and store ``(next_tag, live_time_ticks)``.
    """

    def __init__(
        self,
        *,
        tag_sum_bits: int = 7,
        index_bits: int = 1,
        associativity: int = 8,
        entry_bytes: int = 4,
        live_time_bits: int = 5,
    ) -> None:
        """Check the geometry and start with an empty table and zero counters."""
        if tag_sum_bits < 0 or index_bits < 0:
            raise ConfigError("tag_sum_bits and index_bits must be non-negative")
        if tag_sum_bits + index_bits < 1:
            raise ConfigError("table needs at least one pointer bit")
        if associativity < 1:
            raise ConfigError("associativity must be >= 1")
        self.tag_sum_bits = tag_sum_bits
        self.index_bits = index_bits
        self.associativity = associativity
        self.entry_bytes = entry_bytes
        self.live_time_bits = live_time_bits
        self.num_sets = 1 << (tag_sum_bits + index_bits)
        self._tag_mask = (1 << tag_sum_bits) - 1
        self._idx_mask = (1 << index_bits) - 1
        self._lt_max = (1 << live_time_bits) - 1
        #: pointer -> {id_tag: [next_tag, live_time_ticks, confirmed]}.
        #: An entry only predicts once the same successor has been
        #: observed twice (a 1-bit confirmation, standard for
        #: correlation predictors); the live-time field always tracks
        #: the latest observation.  A set is allocated by its first
        #: update; lookups read with ``get`` so they never allocate.
        self._sets: DefaultDict[int, "OrderedDict[int, List[int]]"] = defaultdict(
            OrderedDict
        )
        # Statistics.
        self.lookups = 0
        self.lookup_hits = 0
        self.updates = 0

    @property
    def size_bytes(self) -> int:
        """Total table size in bytes."""
        return self.num_sets * self.associativity * self.entry_bytes

    @property
    def num_entries(self) -> int:
        """Entries the table can hold."""
        return self.num_sets * self.associativity

    def lookup(self, tag_a: int, tag_b: int, set_index: int) -> Optional[Tuple[int, int]]:
        """Prediction for history (A, B) in *set_index*.

        Returns ``(next_tag, live_time_ticks)`` for the entry whose
        identification tag is B, or None on a predictor miss or an
        unconfirmed entry (successor seen only once so far).
        """
        self.lookups += 1
        # The pointer of Figure 17: truncated tag sum, then index bits.
        entries = self._sets.get(
            (((tag_a + tag_b) & self._tag_mask) << self.index_bits)
            | (set_index & self._idx_mask)
        )
        entry = entries.get(tag_b) if entries is not None else None
        if entry is None or not entry[2]:
            return None
        entries.move_to_end(tag_b)
        self.lookup_hits += 1
        return entry[0], entry[1]

    def update(self, tag_a: int, tag_b: int, set_index: int,
               next_tag: int, live_time_ticks: int) -> None:
        """Install/refresh the entry for history (A, B): B's successor
        and B's observed live time (saturated to the counter width).

        A repeated successor confirms the entry; a different successor
        replaces it unconfirmed.  Live time always takes the latest
        observation.
        """
        self.updates += 1
        entries = self._sets[
            (((tag_a + tag_b) & self._tag_mask) << self.index_bits)
            | (set_index & self._idx_mask)
        ]
        lt_max = self._lt_max
        lt = live_time_ticks if live_time_ticks < lt_max else lt_max
        entry = entries.get(tag_b)
        if entry is not None and entry[0] == next_tag:
            entry[1] = lt
            entry[2] = 1
        else:
            entries[tag_b] = [next_tag, lt, 0]
        entries.move_to_end(tag_b)
        if len(entries) > self.associativity:
            entries.popitem(last=False)

    def hit_rate(self) -> float:
        """Predictor coverage: fraction of lookups that found an entry."""
        return self.lookup_hits / self.lookups if self.lookups else 0.0

    def reset_stats(self) -> None:
        """Zero the counters; entries are kept (warm-up)."""
        self.lookups = 0
        self.lookup_hits = 0
        self.updates = 0


class DBCPTable:
    """Dead-Block Correlating Prefetcher table (Lai et al. baseline).

    Indexed by a hashed signature of the miss PC and the frame's miss
    history; stores the next miss's block address.  The paper's
    comparison point is a 2MB table (the default geometry below:
    2^15 sets x 8 ways x 8-byte entries).
    """

    def __init__(
        self,
        *,
        pointer_bits: int = 15,
        associativity: int = 8,
        entry_bytes: int = 8,
    ) -> None:
        """Check the geometry and start with an empty table and zero counters."""
        if pointer_bits < 1:
            raise ConfigError("pointer_bits must be >= 1")
        if associativity < 1:
            raise ConfigError("associativity must be >= 1")
        self.pointer_bits = pointer_bits
        self.associativity = associativity
        self.entry_bytes = entry_bytes
        self.num_sets = 1 << pointer_bits
        self._mask = self.num_sets - 1
        #: pointer -> {key: [next_block, confirmed]}; an entry predicts
        #: only once the same successor has been observed twice in a row
        #: (the confirmation/confidence mechanism of correlation
        #: prefetchers — without it a single noisy transition would
        #: trigger prefetches).  Sets are allocated on first update, as
        #: in :class:`CorrelationTable`.
        self._sets: DefaultDict[int, "OrderedDict[int, List[int]]"] = defaultdict(
            OrderedDict
        )
        self.lookups = 0
        self.lookup_hits = 0
        self.updates = 0

    @property
    def size_bytes(self) -> int:
        """Total table size in bytes."""
        return self.num_sets * self.associativity * self.entry_bytes

    @staticmethod
    def signature(pc: int, block_a: int, block_b: int) -> int:
        """Hash the PC + per-frame miss-address history into a signature.

        DBCP's history is built from full cache-block addresses plus the
        PC trace (the costly input the timekeeping predictor avoids);
        truncated-add mixing as in the paper's indexing.
        """
        return (pc * 0x9E3779B1 + block_a * 0x85EBCA6B + block_b) & 0x7FFFFFFFFFFF

    def lookup(self, signature: int) -> Optional[int]:
        """Predicted next block address for *signature*, or None.

        Unconfirmed entries (successor seen only once) do not predict.
        """
        self.lookups += 1
        entries = self._sets.get(signature & self._mask)
        key = signature >> self.pointer_bits
        entry = entries.get(key) if entries is not None else None
        if entry is None or not entry[1]:
            return None
        entries.move_to_end(key)
        self.lookup_hits += 1
        return entry[0]

    def update(self, signature: int, next_block_addr: int) -> None:
        """Record that *signature* was followed by *next_block_addr*.

        A repeat of the stored successor confirms the entry; a different
        successor replaces it unconfirmed.
        """
        self.updates += 1
        entries = self._sets[signature & self._mask]
        key = signature >> self.pointer_bits
        entry = entries.get(key)
        if entry is not None and entry[0] == next_block_addr:
            entry[1] = 1
        else:
            entries[key] = [next_block_addr, 0]
        entries.move_to_end(key)
        if len(entries) > self.associativity:
            entries.popitem(last=False)

    def hit_rate(self) -> float:
        """Fraction of lookups that found a confirmed entry."""
        return self.lookup_hits / self.lookups if self.lookups else 0.0

    def reset_stats(self) -> None:
        """Zero the counters; entries are kept (warm-up)."""
        self.lookups = 0
        self.lookup_hits = 0
        self.updates = 0
