"""Vectorized batch-dispatch engine for :class:`MemorySimulator`.

The scalar simulator walks the trace one access at a time; for the
paper's configurations — direct-mapped L1, LRU L2, no decay, and
either no mechanism, a victim cache behind the unfiltered, Collins or
timekeeping admission filter, or the timekeeping or DBCP prefetcher —
most accesses are hits whose effects fold into columns.  This module
exploits that: it scans the trace's columns once with
numpy (set decomposition, hit/miss detection, generation
segmentation), runs lean Python passes for the genuinely sequential
state (the 3C shadow stack, one bus/stall recurrence over misses, the
prefetch event loop), and reconstructs every observable —
counters, histograms, generation records, miss correlations, timing
breakdown, prefetch engine state and final cache contents —
bitwise-identically to the scalar loop.

Two engines share that work: :func:`consume_batch` walks the misses of
the base, perfect and victim machines in one recurrence, and
:func:`_consume_prefetch` the misses and events of a prefetching one.
Each walks only those; one opening pass and one post-pass
(:class:`_Batch`) do the rest, each step written once: the column
scan, set order and static hit rule with the entry L1 and L2 state;
then the clock pass, one stall breakdown over a per-miss category log,
one finishing step for the deferred L2 and every counter and, with a
metric bank, the access-interval pass, one correlation rule and one
generation close.  Only a bank reads a generation, so without one
(``sim.generations`` is None) the loops record no closure and the
post-pass closes none; the L1 frame fields stay, since the policies,
the victim filters and the next batch read them.  Two things stay per
engine.  The L1 final state, because the prefetch policies act on real
frames, which the event loop leaves behind.  And
the base recurrence's inline copy of the lean L2 step, which the event
loop calls as :meth:`_DeferredL2State.access`: a method call per miss
shows in the base configurations' time.

Exactness is the contract, not an aspiration: the equivalence harness
(`tools/equivalence.py`) compares full result dictionaries between the
two engines cell by cell.  The invariants the reconstruction leans on:

- direct-mapped L1: an access hits iff the previous access to its set
  (or the set's resident at batch entry) touched the same block, so
  hit/miss falls out of one stable sort by set index;
- every L1 access stamps the LRU clock exactly once (hit or fill), so
  without prefetch fills a frame's final stamp is
  ``clock0 + original position + 1``;
- every L1 miss that reaches the hierarchy stamps the L2 clock exactly
  once (L2 hit or L2 fill), and demand fills never use LRU insertion,
  so per-set L2 state reduces to an ordered list of resident blocks;
- buses serve demand requests in request order, which is miss order,
  so bus occupancy is a short recurrence over misses;
- the 3C shadow and seen set evolve the same way on hits and misses,
  so each access's class flags depend only on the rows, the L1
  geometry and the classifier's state at entry: :func:`_classify`
  memoizes one replay on the trace, and every configuration samples
  it at its own misses;
- the core clock is ``gap prefix-sum + stall prefix-sum``, and stalls
  depend only on bus/L2/victim-cache state, never on L1 frame metadata;
- a victim cache never changes L1 contents: the direct-mapped L1
  installs the missing block whether it comes from the victim cache or
  from L2, so hit/miss, generations and 3C classes are those of the
  plain machine, and only latency and traffic change.  The same holds
  for a ``perfect_non_cold`` charge, which only removes a non-cold
  miss's latency and L2 traffic.  So one stream of misses drives the
  base, perfect and victim machines, and one recurrence walks it: a
  charged miss adds no stall and only sends its dirty victim over the
  L1/L2 bus, a victim hit skips the L2, and with a victim cache every
  eviction runs the admission, the buffer's LRU insert and the fill
  penalty.  One per-miss log records which branch each miss took, and
  the counters, the deferred L2 events, the closed generations and the
  stall breakdown are all derived from it;
- with a victim cache a miss stalls the clock in two components: the
  demand stall, then the quarter-cycle ``victim-fill`` penalty of an
  admission.  Correlations and L2 events see the clock before both,
  the evicted generation closes (and is admitted) between them, and
  the new block fills after both.

With a prefetch policy (:func:`_consume_prefetch`) the engine becomes
an event loop.  Its events are the ones the scalar loop drains at the
top of an access: a prefetch timer firing into the queue, a queued
request issuing (an L2 hit moves to MRU, an L2 fill enters at the LRU
position without advancing the clock, and both buses make it wait out
the demand shadow), and an arrival, which fills the target's own set
at its arrival time.  Python runs once per demand miss, per event and
per hit where the policy acts; the hit runs between them stay columns:

- an arrival changes only the outcome of the next access to its set,
  and the static hit rule above holds again after that access, so the
  loop visits the static misses, the first access to a set after each
  arrival, and the first access at which an event is due (one
  ``bisect`` over the base clock) — every access while the queue holds
  requests;
- the policy's ``next_hit_trigger`` names the one demand hit of a
  frame at which ``on_hit`` can act (the first use of a prefetched
  block for timekeeping, the hit reaching the death count for DBCP);
  the loop visits it and skips every other hit;
- before a hook, an eviction or a probe reads an L1 frame, the loop
  catches its fields up for the skipped hits (hit count, last access
  time, live-time register, dirty bit, LRU stamp), from the base clock
  plus the stall of the misses before each hit and the prefetch fills
  that advanced the L1 clock;
- the loop records only its misses (position, stall and category log
  entry), its L2 events and, with a bank, the generations it closes,
  each with its correlation key; the post-pass derives everything else
  and rebuilds the open generations and the closed ones' maximum
  access intervals from columns.

Nothing observable reads frame fields of either cache during a run, so
neither is rebuilt as :class:`Frame` objects at the end of a batch:
the engine hands the L2 a :class:`_DeferredL2State` installer (its
per-set lists and event log, tens of thousands of frames if built) and
the L1 a :class:`_DeferredL1State` (one column per frame field,
indexed by set), and each cache thaws its installer only if someone
actually looks (`SetAssociativeCache.defer_contents`).  The next batch
(the warm-up boundary) reads its entry state straight from both.  The
prefetch event loop works on real L1 frames, so it thaws a deferred L1
at entry.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from itertools import repeat
from typing import Dict, List, Optional

import numpy as np

from ..cache.block import Frame
from ..common.types import AccessOutcome, AccessType, MissClass
from ..core.tick import VICTIM_FILTER_COUNTER_BITS
from ..core.victim import (
    AdaptiveTimekeepingAdmission,
    CollinsAdmission,
    TimekeepingAdmission,
    UnfilteredAdmission,
)

#: MissClass int values, hoisted for the hot classification pass.
_COLD = int(MissClass.COLD)
_CONFLICT = int(MissClass.CONFLICT)
_CAPACITY = int(MissClass.CAPACITY)
_STORE = int(AccessType.STORE)

#: Admission filters whose decision the batch engine reproduces.
_BATCH_FILTERS = (UnfilteredAdmission, CollinsAdmission, TimekeepingAdmission)

#: Event-queue payload kinds: a prefetch timer firing, a prefetch arriving.
_FIRE = 0
_ARRIVE = 1


def batch_fallback_reason(sim) -> Optional[str]:
    """Why *sim* cannot run through the batch engine, or None.

    The batch engine covers the paper's baseline machine shape (a
    direct-mapped L1 over an LRU L2), its three victim-cache
    configurations (unfiltered, Collins and timekeeping admission,
    threshold variants included) and its two prefetchers (any policy
    that defines ``next_hit_trigger``).  Features that make an
    access's behavior depend on frame metadata (decay, an associative
    L1) or on per-eviction filter state (adaptive admission, custom
    filters), and prefetch combined with a victim cache or perfect
    mode, fall back to the scalar loop.  Pending events at
    entry are only accepted from a prefetch engine (the warm-up
    boundary leaves them).  Every reason is about the simulated model:
    neither the trace nor anything an observer arms (telemetry,
    logging, tracing) changes the engine.  :meth:`MemorySimulator.run`
    stores the returned string on ``sim.batch_fallback``, so a
    fallback stays observable next to ``sim.engine_used``.
    """
    if not getattr(sim, "_batch_capable", False):
        return "simulator subclass is not batch-capable"
    policy = sim.policy
    if policy is not None:
        if policy.next_hit_trigger is None:
            return "prefetch policy has no next_hit_trigger"
        if sim.victim_cache is not None:
            return "prefetch policy with a victim cache"
        if sim.perfect_non_cold:
            return "prefetch policy with perfect_non_cold"
    if sim.victim_cache is not None:
        admission = sim.admission
        if type(admission) is AdaptiveTimekeepingAdmission:
            return "adaptive victim admission (threshold moves per eviction)"
        if type(admission) not in _BATCH_FILTERS:
            return "custom victim admission filter"
        if sim.perfect_non_cold:
            return "victim cache with perfect_non_cold"
    if sim.decay is not None:
        return "decay policy configured"
    if sim._assoc != 1:
        return "L1 is not direct-mapped"
    if policy is None and sim.events._heap:
        return "pending timing events"
    return None


class _DeferredL2State:
    """The batch engines' lean L2, and its lazily reconstructable final
    contents.

    Built at batch entry from the L2 itself: chained from the previous
    batch's payload (the warm-up boundary), or snapshotted from real
    frames; ``had_state`` records whether the L2 held anything.  During
    the batch an engine tracks the L2 through lean per-set structures
    (``set_lists``: resident block addresses in LRU→MRU order,
    ``way_of``: block → way, ``free_ways``: unfilled ways in scalar
    fill order) and keeps a flat event log with one ``(block, now,
    store, packed)`` row per L2 hit or fill, which it hands over as the
    zero-argument ``events`` callable before passing the object to
    ``l2.defer_contents``.  :meth:`final_fields` replays the log over
    the entry per-block field snapshot to get every frame field; the
    object doubles as the cache's contents installer (calling it
    materializes real :class:`Frame` objects).  A follow-up batch
    instead consumes the lean structures directly and chains
    ``final_fields`` as its entry snapshot, so frames are only ever
    built if someone looks.
    """

    __slots__ = (
        "set_lists",
        "way_of",
        "free_ways",
        "entry_fields_fn",
        "had_state",
        "events",
        "clock0",
        "index_bits",
        "set_mask",
        "assoc",
        "_fields",
    )

    def __init__(self, l2) -> None:
        payload = l2.deferred_contents()
        if payload is not None:
            self.set_lists = payload.set_lists
            self.way_of = payload.way_of
            self.free_ways = payload.free_ways
            self.entry_fields_fn = payload.final_fields
            self.had_state = True
        else:
            set_lists: Dict[int, List[int]] = {}
            way_of: Dict[int, int] = {}
            free_ways: Dict[int, List[int]] = {}
            by_set: Dict[int, List[Frame]] = {}
            for frame in l2._tags.values():
                by_set.setdefault(frame.set_index, []).append(frame)
            for s, frames in by_set.items():
                frames.sort(key=lambda f: f.lru_stamp)
                set_lists[s] = [f.block_addr for f in frames]
                for f in frames:
                    way_of[f.block_addr] = f.way
                used = {f.way for f in frames}
                free_ways[s] = [
                    w for w in range(l2.associativity - 1, -1, -1) if w not in used
                ]
            entry_snapshot = {
                f.block_addr: (
                    f.fill_time, f.last_access_time, f.hit_count, f.lt_register,
                    f.dirty, f.prev_tag, f.lru_stamp,
                )
                for f in l2._tags.values()
            }
            self.set_lists = set_lists
            self.way_of = way_of
            self.free_ways = free_ways
            self.entry_fields_fn = lambda: entry_snapshot
            self.had_state = bool(set_lists)
        self.events = None
        self.clock0 = l2._clock
        self.index_bits = l2._index_bits
        self.set_mask = l2._set_mask
        self.assoc = l2.associativity
        self._fields = None

    def access(self, lb: int, lru: bool) -> int:
        """One access to L2 block *lb* in the lean structures; returns
        its packed log value (see :meth:`final_fields`).

        A hit moves the block to MRU.  A miss takes the set's next free
        way, else evicts its LRU block, and enters at MRU, or at the LRU
        position when *lru* is set (a prefetch fill into an associative
        L2).
        """
        way_of = self.way_of
        if lb in way_of:
            lst = self.set_lists[lb & self.set_mask]
            if lst[-1] != lb:
                lst.remove(lb)
                lst.append(lb)
            return 1
        s = lb & self.set_mask
        lst = self.set_lists.get(s)
        if lst is None:
            lst = self.set_lists[s] = []
            free = self.free_ways[s] = list(range(self.assoc - 1, -1, -1))
        else:
            free = self.free_ways[s]
        if free:
            way_of[lb] = free.pop()
            packed = 0
        else:
            old = lst.pop(0)
            way_of[lb] = way_of.pop(old)
            packed = (old + 1) << 1
        if lru:
            lst.insert(0, lb)
            return ~packed
        lst.append(lb)
        return packed

    def final_fields(self) -> Dict[int, tuple]:
        """block → (fill, last, hits, lt, dirty, prev_tag, stamp).

        Replays the event log (L2 hits re-anchoring hit state, fills
        starting generations with the evicted block's tag as
        ``prev_tag``) over the entry snapshot; memoized.  A packed
        value's low bit marks an L2 hit, its higher bits carry an
        evicted block plus one; a negative value ``~packed`` marks a
        prefetch fill inserted at the LRU position, whose stamp is one
        below every other frame of its set (a never-filled frame counts
        as 0) and which does not advance the clock.  The log is read
        here, off the simulation hot path — a run nobody inspects never
        pays for it.
        """
        if self._fields is not None:
            return self._fields
        fields = dict(self.entry_fields_fn())
        clk = self.clock0
        index_bits = self.index_bits
        set_mask = (1 << index_bits) - 1
        # Per-set residents, tracked from the first LRU insertion on.
        members: Optional[Dict[int, set]] = None
        for block, now, store, packed in self.events():
            lru = packed < 0
            if lru:
                packed = ~packed
                if members is None:
                    members = {}
                    for resident in fields:
                        members.setdefault(resident & set_mask, set()).add(resident)
            else:
                clk += 1
                if packed & 1:
                    fill, _, hits, _, dirty, prev_tag, _ = fields[block]
                    fields[block] = (
                        fill, now, hits + 1, now - fill, dirty or store, prev_tag, clk,
                    )
                    continue
            evicted = packed >> 1
            if evicted:
                old = evicted - 1
                prev_tag = old >> index_bits
                del fields[old]
                if members is not None:
                    members[old & set_mask].discard(old)
            else:
                prev_tag = -1
            stamp = clk
            if members is not None:
                others = members.setdefault(block & set_mask, set())
                if lru:
                    stamps = [fields[b][6] for b in others]
                    if len(others) + 1 < self.assoc:
                        stamps.append(0)
                    stamp = min(stamps) - 1
                others.add(block)
            fields[block] = (now, now, 0, 0, store, prev_tag, stamp)
        self._fields = fields
        return fields

    def __call__(self, cache) -> None:
        """Materialize frames into *cache* (the thaw path).

        Rebuilds ``_tags``/``_sets``/``_valid_counts`` wholesale:
        resident ways become restored frames, unfilled ways fresh ones
        — exactly the state the scalar loop's per-access mutations
        would have left.
        """
        fields = self.final_fields()
        assoc = self.assoc
        index_bits = self.index_bits
        way_of = self.way_of
        tags: Dict[int, Frame] = {}
        sets_arr = cache._sets
        valid_counts = cache._valid_counts
        for set_index, resident in self.set_lists.items():
            base = set_index * assoc
            by_way = {}
            for block in resident:
                way = way_of[block]
                fill, last, hits, lt, dirty, prev_tag, stamp = fields[block]
                frame = Frame.restore(
                    set_index, way, base + way, True, block >> index_bits,
                    block, dirty, stamp, fill, last, hits, lt, prev_tag,
                )
                by_way[way] = frame
                tags[block] = frame
            sets_arr[set_index] = [
                by_way.get(w) or Frame(set_index, w, base + w) for w in range(assoc)
            ]
            valid_counts[set_index] = len(resident)
        cache._tags = tags


class _DeferredL1State:
    """The batch engine's direct-mapped L1 as per-set columns, and its
    lazily reconstructable frames.

    One column per frame field, each indexed by L1 set: ``block`` (the
    resident block, -1 for an empty set), ``fill``, ``last``, ``hits``,
    ``lt``, ``dirty``, ``prev_tag`` and ``stamp`` (the LRU stamp), plus
    ``maxiv``, the open generation's maximum access interval (zero
    without a tracker, which only a metric bank has).  A batch
    reads its entry state from the columns: the previous batch's final
    state (the warm-up boundary, popped off the L1 by the opening pass
    of :class:`_Batch`), or a snapshot of real frames (an L1 that a
    scalar run or the prefetch event loop filled, or that nothing
    filled), which is what the constructor takes.  A base batch hands
    :meth:`with_tails`'s copy to ``l1.defer_contents`` as its final
    state, and the object doubles as the cache's contents installer
    (calling it materializes real :class:`Frame` objects).
    """

    __slots__ = (
        "block", "fill", "last", "hits", "lt", "dirty", "prev_tag", "stamp",
        "maxiv",
    )

    def __init__(self, l1, tracker) -> None:
        num_sets = l1.num_sets
        self.block = np.full(num_sets, -1, dtype=np.int64)
        self.prev_tag = np.full(num_sets, -1, dtype=np.int64)
        self.dirty = np.zeros(num_sets, dtype=bool)
        for name in ("fill", "last", "hits", "lt", "stamp", "maxiv"):
            setattr(self, name, np.zeros(num_sets, dtype=np.int64))
        frames = l1._tags.values()
        if frames:
            # One row per frame in slot order, scattered by set at once.
            open_max = tracker._open_max if tracker is not None else {}
            rows = np.array([
                (f.set_index, f.block_addr, f.fill_time, f.last_access_time,
                 f.hit_count, f.lt_register, f.dirty, f.prev_tag, f.lru_stamp,
                 open_max.get(f.set_index, 0))
                for f in frames
            ], dtype=np.int64)
            sets = rows[:, 0]
            for k, name in enumerate(self.__slots__, 1):
                getattr(self, name)[sets] = rows[:, k]

    def with_tails(self, sets: np.ndarray, *columns: np.ndarray) -> "_DeferredL1State":
        """A copy whose rows at *sets* hold *columns* (in slot order)."""
        final = _DeferredL1State.__new__(_DeferredL1State)
        for name, column in zip(self.__slots__, columns):
            merged = getattr(self, name).copy()
            merged[sets] = column
            setattr(final, name, merged)
        return final

    def __call__(self, cache) -> None:
        """Materialize frames into *cache* (the thaw path).

        Rebuilds ``_tags`` wholesale, and ``_sets``/``_valid_counts``
        for every non-empty set (an empty set kept its pre-batch state,
        since no batch access touched it) — exactly the state the
        scalar loop's per-access mutations would have left.
        """
        index_bits = cache._index_bits
        sets_arr = cache._sets
        valid_counts = cache._valid_counts
        restore = Frame.restore
        tags: Dict[int, Frame] = {}
        valid = np.flatnonzero(self.block >= 0)
        rows = zip(valid.tolist(), *(
            column[valid].tolist() for column in (
                self.block, self.fill, self.last, self.hits, self.lt,
                self.dirty, self.prev_tag, self.stamp,
            )
        ))
        for s, block, fill, last, hits, lt, dirty, prev_tag, stamp in rows:
            frame = restore(
                s, 0, s, True, block >> index_bits, block, dirty, stamp, fill,
                last, hits, lt, prev_tag,
            )
            tags[block] = frame
            sets_arr[s] = [frame]
            valid_counts[s] = 1
        cache._tags = tags


def _set_order(sets: np.ndarray, num_sets: int) -> np.ndarray:
    """Stable argsort of *sets*: each set's accesses become one run.

    Sorting a narrow integer key lets numpy use its radix path (int64
    stable falls back to mergesort, ~4x slower); set indices fit int16
    for every realistic L1.
    """
    if num_sets <= 32768:
        return np.argsort(sets.astype(np.int16), kind="stable")
    return np.argsort(sets, kind="stable")


def _transfer_cycles(bus, num_bytes: int) -> int:
    """Occupancy of one *num_bytes* transfer on *bus* (memoized on it)."""
    cycles = bus._transfer_cycles.get(num_bytes)
    if cycles is None:
        cycles = bus._transfer_cycles[num_bytes] = bus.config.transfer_cycles(num_bytes)
    return cycles


class _ShadowReplay:
    """One replay of the 3C shadow over rows [start:stop) of a trace.

    ``cold`` and ``in_shadow`` hold each access's flags, ``entry_*`` the
    classifier state the replay started from, ``exit_shadow`` the
    shadow's keys in LRU order after it and ``new_blocks`` the blocks
    it added to the seen set.
    """

    __slots__ = ("entry_shadow", "entry_seen", "cold", "in_shadow",
                 "exit_shadow", "new_blocks")

    def matches(self, classifier) -> bool:
        """Whether *classifier* is in the state this replay started from."""
        shadow = classifier._shadow_blocks
        seen = classifier._seen
        return (
            len(shadow) == len(self.entry_shadow)
            and tuple(shadow) == self.entry_shadow
            and seen == self.entry_seen
        )


def _replay_shadow(classifier, blocks: np.ndarray,
                   blocks_l: Optional[List[int]]) -> _ShadowReplay:
    """Run *blocks* through *classifier*'s shadow and seen set, recording
    each access's cold and in-shadow flags as the scalar classify reads
    them (before the access updates the state)."""
    shadow = classifier._shadow_blocks
    seen = classifier._seen
    replay = _ShadowReplay()
    replay.entry_shadow = tuple(shadow)
    replay.entry_seen = frozenset(seen)
    # Cold: the rows' first touch of a block the seen set lacks.
    uniq_blocks, uniq_first = np.unique(blocks, return_index=True)
    uniq_l = uniq_blocks.tolist()
    new = np.fromiter((b not in seen for b in uniq_l), dtype=bool, count=len(uniq_l))
    cold = np.zeros(blocks.size, dtype=bool)
    cold[uniq_first[new]] = True
    replay.cold = cold
    replay.new_blocks = uniq_blocks[new].tolist()
    # The 1024-entry fully associative LRU shadow is inherently
    # sequential: one lean pass in original order.
    shadow_move = shadow.move_to_end
    shadow_popitem = shadow.popitem
    shadow_cap = classifier.shadow.capacity
    in_shadow: List[bool] = []
    in_shadow_append = in_shadow.append
    shadow_len = len(shadow)
    if blocks_l is None:
        blocks_l = blocks.tolist()
    for b in blocks_l:
        if b in shadow:
            in_shadow_append(True)
            shadow_move(b)
        else:
            in_shadow_append(False)
            if shadow_len >= shadow_cap:
                shadow_popitem(False)
            else:
                shadow_len += 1
            shadow[b] = None
    replay.in_shadow = np.array(in_shadow, dtype=bool)
    replay.exit_shadow = tuple(shadow)
    seen.update(replay.new_blocks)
    return replay


def _classify(sim, trace, start: int, stop: int, blocks: np.ndarray,
              miss_pos: np.ndarray, blocks_l: Optional[List[int]] = None) -> np.ndarray:
    """3C class of each miss at *miss_pos* in rows [start:stop), folded
    into ``sim.classifier``.

    Leaves the classifier's counts, seen set and shadow (contents and
    LRU order) exactly as the scalar loop's per-access classify/record
    sequence would.  The shadow evolves the same way on hits and
    misses, and whether an access is a block's first touch does not
    depend on hits either, so each access's flags depend only on the
    rows, the L1 geometry and the classifier's state at entry — not on
    the configuration.  One replay is therefore memoized on *trace*
    (``trace.memo``, keyed by the L1 offset bits, the shadow capacity
    and the row range) and every later batch over those rows that
    enters in the replay's entry state samples its flags at its own
    misses and installs its exit state.  Any other entry state
    replays.  *blocks_l* is ``blocks.tolist()`` when the caller
    already has it.
    """
    classifier = sim.classifier
    key = ("3c", sim._offset_bits, classifier.shadow.capacity, start, stop)
    replay = trace.memo.get(key)
    if replay is not None and replay.matches(classifier):
        shadow = classifier._shadow_blocks
        shadow.clear()
        shadow.update(zip(replay.exit_shadow, repeat(None)))
        classifier._seen.update(replay.new_blocks)
    else:
        fresh = _replay_shadow(classifier, blocks, blocks_l)
        if replay is None:
            trace.memo[key] = fresh
        replay = fresh
    cold = replay.cold[miss_pos]
    cls = np.where(cold, _COLD,
                   np.where(replay.in_shadow[miss_pos], _CONFLICT, _CAPACITY))
    counts = classifier.counts
    counts.cold += int(cold.sum())
    counts.conflict += int((cls == _CONFLICT).sum())
    counts.capacity += int((cls == _CAPACITY).sum())
    return cls


class _Batch:
    """One batch's shared passes: the opening pass both engines start
    from (the constructor), and the post-pass they end with
    (:meth:`clocks`, :meth:`close`, then :meth:`finish`).

    The opening pass derives each access's block, store flag and base
    clock (its clock before any stall of this batch), the stable set
    order (``order``; ``ss``/``sb`` are the sets and blocks in it) with
    its run ``heads``, the static hit rule (``hit_sorted``: an access
    hits iff its set predecessor, or at a run head the set's entry
    resident, is the same block) and both caches' entry state.  A
    deferred L1 is the entry ``l1_state`` as it is (``l1_thaw`` keeps
    it for an engine that needs frames); any other L1 is snapshotted.
    """

    __slots__ = (
        "sim", "n", "gaps", "blocks", "stores", "base_now", "order", "ss", "sb",
        "heads", "hit_sorted", "l1_state", "l1_thaw", "l2_state", "now_eff",
        "now_s", "pre_now",
    )

    def __init__(self, sim, addresses: np.ndarray, kinds: np.ndarray,
                 gaps: np.ndarray) -> None:
        l1 = sim.l1
        num_sets = l1.num_sets
        n = self.n = int(len(addresses))
        self.sim = sim
        self.gaps = gaps
        blocks = self.blocks = addresses >> sim._offset_bits
        sets = blocks & (num_sets - 1)
        self.stores = kinds == _STORE
        self.base_now = sim.now + np.cumsum(gaps, dtype=np.int64)
        thaw = self.l1_thaw = l1.deferred_contents()
        l1_state = self.l1_state = (
            thaw if thaw is not None else _DeferredL1State(l1, sim.generations)
        )
        l2 = sim.hierarchy.l2
        self.l2_state = _DeferredL2State(l2)
        order = self.order = _set_order(sets, num_sets)
        ss = self.ss = sets[order]
        sb = self.sb = blocks[order]
        heads = self.heads = np.empty(n, dtype=bool)
        heads[0] = True
        heads[1:] = ss[1:] != ss[:-1]
        prev_blk = np.empty(n, dtype=np.int64)
        prev_blk[1:] = sb[:-1]
        prev_blk[heads] = l1_state.block[ss[heads]]
        self.hit_sorted = sb == prev_blk

    def clocks(self, miss_pos: np.ndarray, m_stall: np.ndarray) -> None:
        """The clock pass: from *m_stall*, each miss's clock stall (every
        stall falls at a miss), set ``sim.now`` and keep every access's
        clock (``now_eff``; ``now_s`` in set order) and each miss's
        clock before its stalls (``pre_now``)."""
        stall_full = np.zeros(self.n, dtype=np.int64)
        stall_full[miss_pos] = m_stall
        now_eff = self.now_eff = self.base_now + np.cumsum(stall_full)
        self.sim.now = int(now_eff[-1])
        self.pre_now = now_eff[miss_pos] - m_stall
        self.now_s = now_eff[self.order]

    def intervals(self, seg_starts: np.ndarray, hit_s: np.ndarray,
                  arrivals: Optional[tuple] = None) -> np.ndarray:
        """The access-interval pass, run only with a metric bank: feed the
        hits' intervals to the bank and return each generation segment's
        maximum hit interval.  *seg_starts* are the set-order indices
        where segments start, *hit_s* the hit flags in set order,
        *arrivals* the set-order indices and times of prefetch fills
        that restart an access's interval."""
        now_s = self.now_s
        heads = self.heads
        prev_now = np.empty(self.n, dtype=np.int64)
        prev_now[1:] = now_s[:-1]
        prev_now[heads] = self.l1_state.last[self.ss[heads]]
        if arrivals is not None:
            prev_now[arrivals[0]] = arrivals[1]
        intervals = now_s - prev_now
        self.sim.metrics.access_interval.add_many(intervals[hit_s])
        return np.maximum.reduceat(np.where(hit_s, intervals, 0), seg_starts)

    def close(self, cls: np.ndarray, m_blocks: np.ndarray, closures: tuple) -> None:
        """The miss correlations, then the close of the evicted
        generations; run only with a metric bank.

        *closures* holds the closed generations' columns in closure
        order (block, start, live time, dead time, hit count, maximum
        access interval, key); a closure's key is the number of misses
        begun when it happened.  Correlations sample each non-cold
        miss's *previous closed generation* of the missed block (*cls*
        and *m_blocks* are per miss, in miss order): the latest
        in-batch closure of that block whose key is at most the miss's
        rank, else the tracker's pre-batch history.  So a miss's own
        eviction, which lands after its correlation, is not seen, and a
        prefetch arrival's eviction before the miss is.
        """
        sim = self.sim
        metrics = sim.metrics
        tracker = sim.generations
        e_block, e_start, e_live, e_dead, e_hits, e_max, e_key = closures
        n_closed = int(e_block.size)
        # Each evicted block's previous live time within the batch: a
        # stable block-sort puts same-block evictions adjacent in
        # eviction order, so it is the previous sorted element's.  Each
        # block's first eviction (-1 here) looks the tracker's history up.
        so = np.argsort(e_block, kind="stable")
        sb = e_block[so]
        same = np.zeros(n_closed, dtype=bool)
        same[1:] = sb[1:] == sb[:-1]
        prev_live = np.full(n_closed, -1, dtype=np.int64)
        prev_live[so[same]] = e_live[so[np.flatnonzero(same) - 1]]
        firsts = so[~same]
        noncold = np.flatnonzero(cls != _COLD)
        q_block = m_blocks[noncold]
        q_now = self.pre_now[noncold]
        nq = int(noncold.size)
        # Each correlation's reload interval, dead time and live time.
        corr = np.zeros((3, nq), dtype=np.int64)
        fallback = np.arange(nq)
        if nq and n_closed:
            # One searchsorted over dense (block, key) keys: the
            # block-sorted closures are key ordered within a block,
            # and a query takes the dense id of its block's run
            # (at lo, the run's first closure, if it has one).
            stride = int(cls.size) + 1
            gid = np.zeros(n_closed, dtype=np.int64)
            np.cumsum(~same[1:], out=gid[1:])
            ev_keys = gid * stride + e_key[so]
            lo = np.searchsorted(sb, q_block)
            run = np.minimum(lo, n_closed - 1)
            q_keys = gid[run] * stride + noncold
            pos = np.searchsorted(ev_keys, q_keys, side="right") - 1
            inb = (pos >= lo) & (sb[run] == q_block)
            src = so[pos[inb]]
            corr[:, inb] = (q_now[inb] - e_start[src], e_dead[src], e_live[src])
            fallback = np.flatnonzero(~inb)
        # One history lookup serves both the blocks' first evictions and
        # the misses with no in-batch closure before them.
        found, prior = tracker.history(
            np.concatenate((e_block[firsts], q_block[fallback]))
        )
        n_first = int(firsts.size)
        prev_live[firsts] = np.where(found[:n_first], prior[1, :n_first], -1)
        if nq:
            keep = np.ones(nq, dtype=bool)
            keep[fallback] = found[n_first:]
            start, live, dead = prior[:, n_first:]
            corr[:, fallback] = (q_now[fallback] - start, dead, live)
            metrics.bulk_correlations(np.vstack((cls[noncold], corr))[:, keep])
        if not n_closed:
            return
        # The closed generations go to the tracker and the metrics as
        # one table; neither builds a GenerationRecord from it.
        table = np.stack((e_block, e_start, e_live, e_dead, e_hits, e_max, prev_live))
        tracker.absorb_closed(table)
        metrics.bulk_generations(table)

    def finish(self, miss_log: np.ndarray, demand: np.ndarray,
               penalty: Optional[np.ndarray], served, served_charges_l2: bool,
               l2_events, buses: tuple, n_wb: int, n_closed: int,
               prefetch: tuple = (0, 0, 0, 0)) -> None:
        """The stall breakdown, the deferred L2, and every L2,
        hierarchy, bus, timing, L1 and outcome counter.

        *miss_log* is the per-miss category column: the packed L2 event
        of a miss that reached the L2, -1 for one served beside it (a
        victim-cache hit or a merge with an in-flight prefetch: outcome
        *served*, charging "l2" if *served_charges_l2*), -2 for a
        charged (``perfect_non_cold``) one.  *demand* and *penalty* are
        each miss's demand stall and victim-fill penalty (None without
        a victim cache); *l2_events* is the deferred L2's event log.
        *buses* holds ``(free_at, last_demand_end, demand wait,
        prefetch wait)`` per bus, L1/L2 first; a None
        ``last_demand_end`` means all traffic was demand traffic.
        *prefetch* counts the prefetch L2 hits, fills and evictions,
        and the L1 prefetch fills.
        """
        sim = self.sim
        n = self.n
        l1 = sim.l1
        hierarchy = sim.hierarchy
        l2 = hierarchy.l2
        timing = sim.timing
        pf_l2h, pf_fill, pf_evict, l1_pf_fills = prefetch
        nm = int(miss_log.size)
        reach = miss_log >= 0
        packed = miss_log[reach]
        n_reach = int(packed.size)
        n_l2h = int((packed & 1).sum())
        n_fill = n_reach - n_l2h
        n_served = int((miss_log == -1).sum())
        n_charged = nm - n_reach - n_served

        # Breakdown keys are inserted in order of first occurrence, a
        # miss's demand category before its penalty, as the scalar
        # add_stall / add_fixed_stall sequence would.
        l2_mask = miss_log == 1
        if served_charges_l2:
            l2_mask |= miss_log == -1
        categories = [
            ("l2", l2_mask, demand),
            ("memory", reach & ((miss_log & 1) == 0), demand),
        ]
        if penalty is not None:
            categories.append(("victim-fill", penalty > 0, penalty))
        firsts = []
        for name, mask, amounts in categories:
            where = np.flatnonzero(mask)
            if where.size:
                order_key = 2 * int(where[0]) + (name == "victim-fill")
                firsts.append((order_key, name, int(amounts[where].sum())))
        breakdown = timing._breakdown
        for _, name, amount in sorted(firsts):
            breakdown[name] = breakdown.get(name, 0) + amount

        l2_state = self.l2_state
        if l2_state.had_state or n_reach + pf_l2h + pf_fill:
            l2_state.events = l2_events
            l2.defer_contents(l2_state)
        # A prefetch fill inserted at the LRU position does not advance
        # the L2 clock.
        l2._clock += n_reach + pf_l2h + (pf_fill if l2.associativity == 1 else 0)
        l2.hits += n_l2h + pf_l2h
        l2.misses += n_fill + pf_fill
        l2.evictions += int((packed > 1).sum()) + pf_evict
        hierarchy.l2_demand_hits += n_l2h
        hierarchy.l2_demand_misses += n_fill
        hierarchy.l2_prefetch_hits += pf_l2h
        hierarchy.l2_prefetch_misses += pf_fill
        hierarchy.memory_accesses += n_fill + pf_fill
        # Every dirty victim crossed the L1/L2 bus once, and every miss
        # that reached the L2 requested one fetch.
        for bus, (free, lde, wait, pf_wait), transfers, pf_transfers in (
            (hierarchy.l1_l2_bus, buses[0], n_reach + n_wb, pf_l2h + pf_fill),
            (hierarchy.memory_bus, buses[1], n_fill, pf_fill),
        ):
            if lde is None:
                lde = free if transfers else bus.last_demand_end
            bus.free_at = free
            bus.last_demand_end = lde
            bus.demand_transfers += transfers
            bus.demand_wait_cycles += wait
            bus.prefetch_transfers += pf_transfers
            bus.prefetch_wait_cycles += pf_wait

        timing.compute_cycles += int(self.gaps.sum(dtype=np.int64))
        timing._accesses += n
        # The batch's stall is how far its clock ran ahead of the base.
        timing.stall_cycles += int(self.now_eff[-1] - self.base_now[-1])
        # Charged (perfect_non_cold) misses count as L1 hits in both the
        # outcome tally and the mechanism counters; see the accounting
        # note in MemorySimulator.
        l1._clock += n + l1_pf_fills
        l1.hits += n - nm + n_charged
        l1.misses += nm - n_charged
        l1.evictions += n_closed
        sim.writebacks += n_wb
        sim._accesses += n
        outcomes = sim._outcomes
        outcomes[AccessOutcome.L1_HIT] += n - nm + n_charged
        outcomes[served] += n_served
        outcomes[AccessOutcome.L2_HIT] += n_l2h
        outcomes[AccessOutcome.MEMORY] += n_fill


def consume_batch(sim, trace, start: int, stop: int) -> None:
    """Run trace rows [start:stop) through *sim*, batch-dispatched.

    Leaves *sim* in the same externally observable state as
    ``sim._consume`` over the same rows: counters, clocks, the metric
    bank and tracker if any, and the contents of both caches (deferred,
    frames built only when read — see :class:`_DeferredL1State` and
    :class:`_DeferredL2State`) all match bitwise, and so does the
    prefetch engine's state when a policy is configured (then the
    event loop :func:`_consume_prefetch` walks the rows).  Both start
    from the opening pass and end with the post-pass of
    :class:`_Batch`.  The caller (the engine dispatch in
    :meth:`MemorySimulator.run`) has already verified
    :func:`batch_fallback_reason` returned None.
    """
    addresses, kinds, gaps = trace.scan_columns(start, stop)
    if not len(addresses):
        return
    bt = _Batch(sim, addresses, kinds, gaps)
    if sim.policy is not None:
        _consume_prefetch(sim, trace, start, stop, bt)
        return

    n = bt.n
    l1 = sim.l1
    hierarchy = sim.hierarchy
    timing = sim.timing
    tracker = sim.generations
    victim_cache = sim.victim_cache

    l1_index_bits = l1._index_bits
    l2_shift = hierarchy._l2_shift
    l2_set_mask = hierarchy.l2._set_mask
    l2_hit_latency = hierarchy._l2_hit_latency
    memory_latency = hierarchy._memory_latency
    hidden_latency = timing.HIDDEN_LATENCY
    mlp = timing._mlp

    # ---- PRE: column math --------------------------------------------------
    blocks = bt.blocks
    base_now = bt.base_now
    l1_state = bt.l1_state
    entry_resident = l1_state.block
    entry_fill = l1_state.fill
    entry_last = l1_state.last
    entry_hits = l1_state.hits
    entry_lt = l1_state.lt
    entry_maxiv = l1_state.maxiv
    entry_dirty = l1_state.dirty

    # Without a prefetcher the static hit rule is the outcome.
    order, ss, heads, hit_sorted = bt.order, bt.ss, bt.heads, bt.hit_sorted
    store_sorted = bt.stores[order]
    miss_sorted = ~hit_sorted
    hit = np.empty(n, dtype=bool)
    hit[order] = hit_sorted
    miss_pos = np.flatnonzero(~hit)
    nm = int(miss_pos.size)

    # Generation segmentation (sorted domain): a generation starts at a
    # set head that hits (continuing the entry resident's generation) or
    # at any miss; it runs to the next start or set end, all hits.
    gen_head = heads | miss_sorted
    gen_starts = np.flatnonzero(gen_head)
    gen_id = np.cumsum(gen_head) - 1
    gen_set = ss[gen_starts]
    gen_block = bt.sb[gen_starts]
    gen_is_entry = heads[gen_starts] & hit_sorted[gen_starts]
    gen_batch_hits = np.add.reduceat(hit_sorted.astype(np.int64), gen_starts)
    gen_dirty = np.logical_or.reduceat(store_sorted, gen_starts) | (
        gen_is_entry & entry_dirty[gen_set]
    )
    gen_hits_total = gen_batch_hits + np.where(gen_is_entry, entry_hits[gen_set], 0)
    # Last access of each generation: the position just before the next
    # generation start (or the batch end).
    gen_last_pos = np.append(gen_starts[1:] - 1, n - 1)

    # Per-miss victim identity (sorted-miss order). Non-timing fields
    # only — timing-dependent victim fields wait for the stall pass.
    mpos_sorted = np.flatnonzero(miss_sorted)
    m_gid = gen_id[mpos_sorted]
    m_is_head = heads[mpos_sorted]
    m_set = ss[mpos_sorted]
    g_prev = m_gid - 1  # masked out by where() for head misses
    v_block = np.where(m_is_head, entry_resident[m_set], gen_block[g_prev])
    v_valid = np.where(m_is_head, entry_resident[m_set] != -1, True)
    v_dirty = np.where(m_is_head, entry_dirty[m_set], gen_dirty[g_prev]) & v_valid
    # The prev_tag each miss's fill leaves in its frame.
    v_tag = np.where(v_valid, v_block >> l1_index_bits, -1)
    # Sorted-miss rank -> miss (original) order permutation, via the
    # original-rank scatter (cheaper than argsort over the subset).
    m_orig = order[mpos_sorted]
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[miss_pos] = np.arange(nm, dtype=np.int64)
    perm = np.empty(nm, dtype=np.int64)
    perm[rank_of[m_orig]] = np.arange(nm, dtype=np.int64)

    # ---- classification (PASS A) ------------------------------------------
    cls = _classify(sim, trace, start, stop, blocks, miss_pos)

    # ---- PASS BC: the miss recurrence --------------------------------------
    # Sequential by necessity: each miss's L2/memory latency depends on
    # bus occupancy left by earlier misses, and its stall shifts every
    # later access.  Everything else is precomputed columns.  One loop
    # serves every configuration: a charged (perfect_non_cold) miss and
    # a victim-cache hit only change where a miss's latency comes from.
    # The L2 step is written out inline rather than calling
    # _DeferredL2State.access: a method call per miss shows in the
    # base configurations' time.
    l1_l2_bus = hierarchy.l1_l2_bus
    memory_bus = hierarchy.memory_bus
    c32 = _transfer_cycles(l1_l2_bus, sim.machine.l1d.block_size)
    c64 = _transfer_cycles(memory_bus, hierarchy._l2_block)
    l1l2_free = l1_l2_bus.free_at
    mem_free = memory_bus.free_at
    l1l2_wait = 0
    mem_wait = 0

    l2_state = bt.l2_state
    set_lists = l2_state.set_lists
    way_of = l2_state.way_of
    free_ways = l2_state.free_ways
    sl_get = set_lists.get
    way_pop = way_of.pop
    default_ways = range(l2_state.assoc - 1, -1, -1)

    # The per-miss log (the post-pass's category column): the packed L2
    # event of a miss that reaches the L2, -1 for a victim-cache hit, -2
    # for a charged miss.
    miss_log: List[int] = []
    log_append = miss_log.append
    stall_list: List[int] = []  # demand stall per miss
    stall_append = stall_list.append
    stall_acc = 0
    m_blocks = blocks[miss_pos]
    l2b_arr = m_blocks >> l2_shift
    # perfect_non_cold charges every non-cold miss as a hit; a charged
    # miss carries -1 as its L2 block.
    lb_col = np.where(cls != _COLD, -1, l2b_arr) if sim.perfect_non_cold else l2b_arr
    # Victim-cache fields per miss, None without a victim cache: probed
    # block, victim valid, victim block, admission decision and the
    # victim's last-access terms.
    vic_col = repeat(None)
    # cum[k]: clock stall (demand + victim-fill) through the first k
    # misses; kept only with a victim cache, whose fill penalty is the
    # only stall outside the demand stall.
    cum: List[int] = [0]
    vc_fills = 0
    vc_lru_evictions = 0
    if victim_cache is not None:
        admission = sim.admission
        adm_col = repeat(True)
        lbase_col = lk_col = repeat(0)
        timekeeping = type(admission) is TimekeepingAdmission
        if type(admission) is CollinsAdmission:
            # The victim frame's prev_tag: the entry frame's when the
            # victim is the set's entry resident or entry generation,
            # else the tag of the previous same-set miss's victim
            # (sorted-miss index m - 1).
            from_entry = m_is_head | gen_is_entry[g_prev]
            prev = np.arange(nm) - 1  # -1 only where from_entry
            prev_tag = np.where(from_entry, l1_state.prev_tag[m_set], v_tag[prev])
            adm_col = (
                prev_tag[perm] == m_blocks >> admission._index_bits
            ).tolist()
        elif timekeeping:
            # The victim's last access happened at lbase + cum[lk]: the
            # entry frame's time for set-head victims (lk = 0), else
            # base_now at its generation's last position plus the stall
            # of the lk misses at or before it.
            last_pos = order[gen_last_pos[g_prev]]
            lbase_col = np.where(
                m_is_head, entry_last[m_set], base_now[last_pos]
            )[perm].tolist()
            lk_col = np.where(
                m_is_head, 0, np.searchsorted(miss_pos, last_pos, side="right")
            )[perm].tolist()
            tick = admission.ticker.tick_cycles
            max_counter = admission.max_counter
            saturated = (1 << VICTIM_FILTER_COUNTER_BITS) - 1
        vic_col = zip(
            m_blocks.tolist(), v_valid[perm].tolist(),
            v_block[perm].tolist(), adm_col, lbase_col, lk_col,
        )
        vcb = victim_cache._blocks
        vcb_pop_lru = vcb.popitem
        vc_entries = victim_cache.entries
        vc_latency = victim_cache.hit_latency
        penalty_q = sim.victim_insert_quarter_cycles
        penalty_acc = sim._victim_penalty_acc
        cum_append = cum.append

    rows = zip(
        lb_col.tolist(), (l2b_arr & l2_set_mask).tolist(),
        base_now[miss_pos].tolist(), v_dirty[perm].tolist(), vic_col,
    )
    for lb, s, base, vd, vic in rows:
        now = base + stall_acc
        if vic is not None and vic[0] in vcb:
            # Victim hit: the block swaps back into the L1; no L2 or bus
            # traffic.
            del vcb[vic[0]]
            log_append(-1)
            latency = vc_latency
        elif lb < 0:
            # Charged miss: no hierarchy traffic, so no stall.
            log_append(-2)
            latency = 0
        else:
            if lb in way_of:
                # L2 hit: MRU move (skipped when already most recent).
                lst = set_lists[s]
                if lst[-1] != lb:
                    lst.remove(lb)
                    lst.append(lb)
                log_append(1)
                data_at = now + l2_hit_latency
            else:
                lst = sl_get(s)
                if lst is None:
                    lst = set_lists[s] = []
                    free = free_ways[s] = list(default_ways)
                else:
                    free = free_ways[s]
                if free:
                    w = free.pop()
                    packed = 0
                else:
                    old = lst.pop(0)
                    w = way_pop(old)
                    packed = (old + 1) << 1
                way_of[lb] = w
                lst.append(lb)
                log_append(packed)
                l2_ready = now + l2_hit_latency
                s0 = l2_ready if l2_ready > mem_free else mem_free
                mem_wait += s0 - l2_ready
                mem_free = s0 + c64
                data_at = mem_free + memory_latency
            s1 = data_at if data_at > l1l2_free else l1l2_free
            l1l2_wait += s1 - data_at
            l1l2_free = s1 + c32
            latency = l1l2_free - now
        exposed = latency - hidden_latency
        stall = int(exposed / mlp) if exposed > 0 else 0
        stall_acc += stall
        stall_append(stall)
        if vd:
            # Dirty victim write-back, requested after the stall
            # advances the clock (scalar eviction order); a charged
            # miss's write-back crosses the L1/L2 bus too.
            wnow = now + stall
            s1 = wnow if wnow > l1l2_free else l1l2_free
            l1l2_wait += s1 - wnow
            l1l2_free = s1 + c32
        if vic is not None:
            _, vv, vb, admit, lbase, lk = vic
            if vv:
                # The eviction, after the write-back and at the same
                # clock: admission, LRU insert, then the fill penalty.
                wnow = now + stall
                if timekeeping:
                    ticks = wnow // tick - (lbase + cum[lk]) // tick
                    admit = (ticks if ticks < saturated else saturated) <= max_counter
                if admit:
                    if vb in vcb:
                        del vcb[vb]
                    elif len(vcb) >= vc_entries:
                        vcb_pop_lru(False)
                        vc_lru_evictions += 1
                    vcb[vb] = wnow
                    vc_fills += 1
                    penalty_acc += penalty_q
                    if penalty_acc >= 4:
                        whole = penalty_acc // 4
                        penalty_acc -= 4 * whole
                        stall_acc += whole
            cum_append(stall_acc)
    if victim_cache is not None:
        sim._victim_penalty_acc = penalty_acc
    miss_log_arr = np.array(miss_log, dtype=np.int64)
    # Per-miss stalls: the demand stall (the breakdown's l2/memory
    # share) and the clock stall, which adds any victim-fill penalty.
    demand_stalls = np.array(stall_list, dtype=np.int64)
    stalls_np = (
        demand_stalls if victim_cache is None
        else np.diff(np.array(cum, dtype=np.int64))
    )

    # ---- POST: clocks, then generations and correlations with a bank ------
    bt.clocks(miss_pos, stalls_np)
    gen_last_now = bt.now_s[gen_last_pos]
    gen_fill = np.where(gen_is_entry, entry_fill[gen_set], bt.now_s[gen_starts])
    gen_lt = np.where(
        gen_batch_hits > 0,
        gen_last_now - gen_fill,
        np.where(gen_is_entry, entry_lt[gen_set], 0),
    )
    if tracker is not None:
        seg_max = bt.intervals(gen_starts, hit_sorted)
        gen_max = np.where(
            gen_is_entry, np.maximum(seg_max, entry_maxiv[gen_set]), seg_max
        )
        gen_live = np.where(gen_hits_total > 0, gen_lt, 0)
        # Each miss closes its valid victim's generation, in miss order,
        # at the clock after its demand stall and before any fill penalty.
        entry_live = np.where(entry_hits > 0, entry_lt, 0)
        v_start = np.where(m_is_head, entry_fill[m_set], gen_fill[g_prev])
        v_live = np.where(m_is_head, entry_live[m_set], gen_live[g_prev])
        v_hits = np.where(m_is_head, entry_hits[m_set], gen_hits_total[g_prev])
        v_max = np.where(m_is_head, entry_maxiv[m_set], gen_max[g_prev])
        val_mask = v_valid[perm]
        e_block, e_start, e_live, e_hits, e_max = np.stack(
            (v_block, v_start, v_live, v_hits, v_max))[:, perm[val_mask]]
        e_dead = (bt.pre_now + demand_stalls)[val_mask] - (e_start + e_live)
        bt.close(cls, m_blocks, (e_block, e_start, e_live, e_dead, e_hits, e_max,
                                 np.flatnonzero(val_mask) + 1))

    # ---- L1 final state (deferred) ----------------------------------------
    # Each touched set ends in the generation of its last access.  One
    # that began at a miss carries that miss's prev_tag; one that
    # continued the entry resident keeps the entry's.
    tail_pos = np.append(np.flatnonzero(heads[1:]), n - 1)  # each set's last
    f_set = ss[tail_pos]
    f_gid = gen_id[tail_pos]
    f_last = gen_last_now[f_gid]
    f_max = gen_max[f_gid] if tracker is not None else entry_maxiv[f_set]
    f_prev = l1_state.prev_tag[f_set]
    missed = ~gen_is_entry[f_gid]
    gen_missrank = np.empty(gen_starts.size, dtype=np.int64)
    gen_missrank[m_gid] = np.arange(nm)
    f_prev[missed] = v_tag[gen_missrank[f_gid[missed]]]
    l1.defer_contents(l1_state.with_tails(
        f_set, gen_block[f_gid], gen_fill[f_gid], f_last,
        gen_hits_total[f_gid], gen_lt[f_gid], gen_dirty[f_gid], f_prev,
        l1._clock + order[tail_pos] + 1, f_max,
    ))
    if tracker is not None:
        f_set_l = f_set.tolist()
        tracker._open_last.update(zip(f_set_l, f_last.tolist()))
        tracker._open_max.update(zip(f_set_l, f_max.tolist()))

    # ---- counters -----------------------------------------------------------
    # The deferred L2's event columns come from the miss columns of the
    # misses that reached the L2, cut out only when someone reads it.
    stores_arr = bt.stores
    pre_now = bt.pre_now

    def l2_events():
        reach = miss_log_arr >= 0
        return zip(
            l2b_arr[reach].tolist(), pre_now[reach].tolist(),
            stores_arr[miss_pos][reach].tolist(), miss_log_arr[reach].tolist(),
        )

    n_evictions = int(v_valid.sum())
    bt.finish(
        miss_log_arr, demand_stalls,
        stalls_np - demand_stalls if victim_cache is not None else None,
        AccessOutcome.VICTIM_HIT,
        victim_cache is not None and bool(victim_cache.hit_latency),
        l2_events, ((l1l2_free, None, l1l2_wait, 0), (mem_free, None, mem_wait, 0)),
        int(v_dirty.sum()), n_evictions,
    )
    if victim_cache is not None:
        victim_cache.probes += nm
        victim_cache.hits += int((miss_log_arr == -1).sum())
        victim_cache.fills += vc_fills
        victim_cache.rejected += n_evictions - vc_fills
        victim_cache.lru_evictions += vc_lru_evictions


def _consume_prefetch(sim, trace, start: int, stop: int, bt: _Batch) -> None:
    """Rows [start:stop) through a machine with a prefetch policy.

    An event loop over the positions where something other than a
    plain hit happens — static misses, the first access to a set after
    a prefetch arrival, hits the policy's ``next_hit_trigger`` names,
    and accesses at which an event is due (every access while the
    prefetch queue holds requests).  Each visited access runs the
    scalar loop's steps on the real L1 frames, policy, bookkeeper,
    queue, MSHRs and event queue, with the lean L2
    (:meth:`_DeferredL2State.access`) and local bus state.  A frame is
    caught up for the hits skipped since its last visit before anything
    reads it.  The loop records only its misses (position, stall,
    category), the L2 events and, with a bank, the generations it
    closes; the post-pass of :class:`_Batch` derives clocks, counters
    and, with a bank, intervals and correlations from them, and
    rebuilds the open generations from columns.
    """
    n = bt.n
    l1 = sim.l1
    hierarchy = sim.hierarchy
    timing = sim.timing
    tracker = sim.generations
    policy = sim.policy
    bookkeeper = sim.bookkeeper
    mshrs = sim.prefetch_mshrs
    prefetch_queue = sim.prefetch_queue
    events = sim.events

    num_sets = l1.num_sets
    set_mask = num_sets - 1
    l1_index_bits = l1._index_bits
    l2_shift = hierarchy._l2_shift
    lru_insert = hierarchy.l2.associativity > 1
    l2_hit_latency = hierarchy._l2_hit_latency
    memory_latency = hierarchy._memory_latency
    hidden_latency = timing.HIDDEN_LATENCY
    mlp = timing._mlp

    # ---- PRE: the loop's columns -------------------------------------------
    blocks = bt.blocks
    order = bt.order
    ss = bt.ss
    heads = bt.heads
    entry_maxiv = bt.l1_state.maxiv
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    # The loop works on real frames: thaw an L1 that a base batch left
    # as columns.
    if bt.l1_thaw is not None:
        bt.l1_thaw(l1)
    frames: List[Optional[Frame]] = [fs[0] if fs else None for fs in l1._sets]

    # Static misses: only an arrival can change the static hit rule's
    # outcome, and only for the set's next access, which is visited.
    static_miss_sorted = ~bt.hit_sorted
    static_miss = np.empty(n, dtype=bool)
    static_miss[order] = static_miss_sorted
    miss_l = np.flatnonzero(static_miss).tolist()
    miss_l.append(n)
    # next_miss_l[j]: first static miss at sorted index >= j.
    next_miss_l = np.minimum.accumulate(
        np.where(static_miss_sorted, np.arange(n), n)[::-1]
    )[::-1].tolist()
    set_ids = np.arange(num_sets)
    run_start_l = np.searchsorted(ss, set_ids, side="left").tolist()
    run_end = np.searchsorted(ss, set_ids, side="right")
    run_end_l = run_end.tolist()
    store_cs = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(bt.stores[order], out=store_cs[1:])
    store_cs_l = store_cs.tolist()
    order_l = order.tolist()
    rank_l = rank.tolist()
    base_l = bt.base_now.tolist()
    base_l.append(base_l[-1])  # sentinel: position n is never due
    blocks_l = blocks.tolist()
    stores_l = bt.stores.tolist()
    pcs_l = trace.pcs[start:stop].tolist()

    # ---- L2, buses ---------------------------------------------------------
    l2_access = bt.l2_state.access
    l2_log: List[tuple] = []  # (block, now, store, packed) per L2 access
    l2_log_append = l2_log.append
    l1_l2_bus = hierarchy.l1_l2_bus
    memory_bus = hierarchy.memory_bus
    c32 = _transfer_cycles(l1_l2_bus, sim.machine.l1d.block_size)
    c64 = _transfer_cycles(memory_bus, hierarchy._l2_block)
    l1l2_free = l1_l2_bus.free_at
    l1l2_lde = l1_l2_bus.last_demand_end
    l1l2_shadow = l1_l2_bus.demand_shadow
    mem_free = memory_bus.free_at
    mem_lde = memory_bus.last_demand_end
    mem_shadow = memory_bus.demand_shadow
    l1l2_wait = l1l2_pf_wait = mem_wait = mem_pf_wait = 0

    # ---- loop state ----------------------------------------------------------
    clock0 = l1._clock
    l1_tags = l1._tags
    l1_valid_counts = l1._valid_counts
    l1_sets = l1._sets
    # With a bank, closed generations: (block, start, live, dead, hits,
    # segment, key), segment the sorted index of the generation's first
    # access in the batch (-1 if none), key the number of misses begun.
    track = tracker is not None
    closed: List[tuple] = []
    closed_append = closed.append
    ev_heap = events._heap
    ev_counter = events._counter
    scheduled = bookkeeper.scheduled
    pending_for = bookkeeper.pending_for
    demand_miss = bookkeeper.demand_miss
    on_miss = policy.on_miss
    on_hit = policy.on_hit
    on_prefetch_fill = policy.on_prefetch_fill
    next_hit_trigger = policy.next_hit_trigger
    inflight = mshrs._inflight
    mshr_entries = mshrs.entries
    mshr_release = mshrs.release
    queued = prefetch_queue._queue

    synced = list(run_start_l)  # per set: first sorted index not applied
    # With a bank: per set, the open generation's first access; and
    # sorted index -> arrival time of the latest fill before that access.
    gen_first = list(run_start_l)
    after_arrival: Dict[int, int] = {}
    visits: List[int] = []  # heap: positions to visit beyond the static misses
    stall_pos = [-1]  # positions of stalling misses ...
    stall_cum = [0]  # ... and the clock stall through each
    pf_fill_pos: List[int] = []  # position before which each arrival filled
    miss_at: List[int] = []
    miss_log: List[int] = []  # per miss: packed L2 event, -1 for a merge
    log_append = miss_log.append
    n_wb = n_evict = n_useful = n_issued = n_arrived = n_scheduled = n_fired = 0
    n_pf_l2h = n_pf_evict = 0
    stall_acc = 0
    stamp0 = clock0 + 1  # L1 stamp of access 0, advanced by each arrival

    def catch_up(frame, j0: int, j1: int) -> None:
        """Apply the skipped hits at sorted indices [j0, j1) to *frame*:
        what ``Frame.record_hit`` and the LRU stamp would have left."""
        q = order_l[j1 - 1]
        if q > stall_pos[-1]:
            t = base_l[q] + stall_cum[-1]
        else:
            t = base_l[q] + stall_cum[bisect_right(stall_pos, q) - 1]
        frame.hit_count += j1 - j0
        frame.last_access_time = t
        frame.lt_register = t - frame.fill_time
        if store_cs_l[j1] != store_cs_l[j0]:
            frame.dirty = True
        fills = len(pf_fill_pos)
        if fills and q < pf_fill_pos[-1]:
            fills = bisect_right(pf_fill_pos, q)
        frame.lru_stamp = clock0 + q + 1 + fills

    # Sets whose run starts with a hit on the entry resident: a
    # prefetched block's first use, or a hit the policy waits for, may
    # fall in this batch.
    head_hits = np.flatnonzero(heads & bt.hit_sorted)
    for j, s in zip(head_hits.tolist(), ss[head_hits].tolist()):
        frame = frames[s]
        if frame.prefetched and frame.hit_count == 0:
            heappush(visits, order_l[j])
            continue
        trigger = next_hit_trigger(s, frame)
        if trigger is not None and trigger > frame.hit_count:
            j += trigger - frame.hit_count - 1
            if j < run_end_l[s] and j < next_miss_l[run_start_l[s]]:
                heappush(visits, order_l[j])

    mi = 0
    p = 0
    while True:
        # ---- next position to visit --------------------------------------------
        nxt = miss_l[mi]
        while visits and visits[0] < p:
            heappop(visits)
        if visits and visits[0] < nxt:
            nxt = visits[0]
        if queued:
            # The scalar loop offers queued requests an issue slot on
            # every access.
            nxt = p
        elif ev_heap:
            # First access whose clock reaches the earliest event.
            due = ev_heap[0][0] - stall_acc
            if base_l[nxt] >= due:
                nxt = bisect_left(base_l, due, p, nxt)
        if nxt >= n:
            break
        p = nxt
        static = miss_l[mi] == p
        if static:
            mi += 1
        now = base_l[p] + stall_acc

        # ---- due events, then queued prefetches ------------------------------
        if ev_heap and ev_heap[0][0] <= now:
            while ev_heap and ev_heap[0][0] <= now:
                when, _, (kind, pending) = heappop(ev_heap)
                fk = pending.frame_key
                target = pending.target_block
                if kind == _FIRE:
                    if pending_for(fk) is not pending:
                        continue  # superseded or resolved
                    if target in l1_tags:
                        bookkeeper.cancel(fk)
                        continue
                    bookkeeper.fired(fk)
                    n_fired += 1
                    displaced = prefetch_queue.push(pending)
                    if displaced is not None:
                        bookkeeper.discarded(displaced)
                    continue
                if pending_for(fk) is not pending:
                    # Resolved or superseded in flight: retire the MSHR
                    # entry only if it is this arrival's own fetch.
                    completes = inflight.get(target)
                    if completes is not None and completes <= when:
                        mshr_release(target)
                    continue
                mshr_release(target)
                if target in l1_tags:
                    bookkeeper.cancel(fk)
                    continue
                s = target & set_mask
                frame = frames[s]
                if frame is None:
                    frame = frames[s] = Frame(s, 0, s)
                    l1_sets[s] = [frame]
                j = bisect_left(order_l, p, run_start_l[s], run_end_l[s])
                if synced[s] < j:
                    catch_up(frame, synced[s], j)
                    synced[s] = j
                displaced = -1
                valid = frame.valid
                if valid:
                    # Eviction at the arrival time: the write-back is a
                    # demand transfer; the generation closes at *when*.
                    displaced = frame.block_addr
                    if frame.dirty:
                        b0 = when if when > l1l2_free else l1l2_free
                        l1l2_wait += b0 - when
                        l1l2_free = l1l2_lde = b0 + c32
                        n_wb += 1
                    n_evict += 1
                    if track:
                        hc = frame.hit_count
                        live = frame.lt_register if hc > 0 else 0
                        fill = frame.fill_time
                        g = gen_first[s]
                        closed_append((
                            displaced, fill, live, when - (fill + live), hc,
                            g if g < j else -1, len(miss_at),
                        ))
                schedule = on_prefetch_fill(frame, s, target, when)
                if schedule is not None:
                    fire_at = schedule.fire_at
                    heappush(ev_heap, (fire_at, next(ev_counter), (_FIRE, scheduled(
                        schedule.frame_key, schedule.target_block, now, fire_at,
                    ))))
                    n_scheduled += 1
                if valid:
                    del l1_tags[displaced]
                else:
                    l1_valid_counts[s] += 1
                frame.reset_generation(target, target >> l1_index_bits, when, True)
                l1_tags[target] = frame
                pf_fill_pos.append(p)
                frame.lru_stamp = stamp0 + p
                stamp0 += 1
                bookkeeper.arrived(fk, when, displaced)
                n_arrived += 1
                if j < run_end_l[s]:
                    heappush(visits, order_l[j])
                if track:
                    gen_first[s] = j
                    if j < run_end_l[s]:
                        after_arrival[j] = when
            issue = True
        else:
            issue = queued
        if issue:
            mshrs.expire(now)
            while queued:
                pending = queued[0]
                fk = pending.frame_key
                if pending_for(fk) is not pending:
                    queued.popleft()  # stale entry
                    continue
                target = pending.target_block
                if target in l1_tags:
                    queued.popleft()
                    bookkeeper.cancel(fk)
                    continue
                if len(inflight) >= mshr_entries:
                    break
                queued.popleft()
                # Prefetch fetch: L2 hits move to MRU, fills enter at the
                # LRU position; both buses wait out the demand shadow.
                lb = target >> l2_shift
                l2_ready = now + l2_hit_latency
                packed = l2_access(lb, lru_insert)
                l2_log_append((lb, now, False, packed))
                if packed == 1:
                    n_pf_l2h += 1
                    data_at = l2_ready
                else:
                    if (packed if packed >= 0 else ~packed) > 1:
                        n_pf_evict += 1
                    b0 = l2_ready if l2_ready > mem_free else mem_free
                    horizon = mem_lde + mem_shadow
                    if b0 < horizon:
                        b0 = horizon
                    mem_pf_wait += b0 - l2_ready
                    mem_free = b0 + c64
                    data_at = mem_free + memory_latency
                b0 = data_at if data_at > l1l2_free else l1l2_free
                horizon = l1l2_lde + l1l2_shadow
                if b0 < horizon:
                    b0 = horizon
                l1l2_pf_wait += b0 - data_at
                l1l2_free = b0 + c32
                mshrs.allocate(target, l1l2_free)
                bookkeeper.issued(fk, now)
                heappush(ev_heap, (l1l2_free, next(ev_counter), (_ARRIVE, pending)))
                n_issued += 1

        # ---- the access ---------------------------------------------------------
        if not static:
            while visits and visits[0] < p:
                heappop(visits)
            if not visits or visits[0] != p:
                # A plain hit visited only for its events: the catch-up
                # applies it with the set's other skipped hits.
                p += 1
                continue
        b = blocks_l[p]
        s = b & set_mask
        k = rank_l[p]
        frame = frames[s]
        if synced[s] < k:
            catch_up(frame, synced[s], k)
        synced[s] = k + 1
        store = stores_l[p]
        if b in l1_tags:
            first_use = frame.prefetched and frame.hit_count == 0
            frame.record_hit(now, store)
            frame.lru_stamp = stamp0 + p
            if first_use:
                n_useful += 1
                bookkeeper.demand_hit_on_prefetched(s, b, now)
            schedule = on_hit(frame, s, now)
        else:
            completes = inflight.get(b)
            if completes is not None and completes > now:
                # Merge with the in-flight prefetch of this block.
                latency = completes - now
                mshr_release(b)
                log_append(-1)
            else:
                lb = b >> l2_shift
                packed = l2_access(lb, False)
                log_append(packed)
                l2_log_append((lb, now, store, packed))
                if packed == 1:
                    data_at = now + l2_hit_latency
                else:
                    l2_ready = now + l2_hit_latency
                    b0 = l2_ready if l2_ready > mem_free else mem_free
                    mem_wait += b0 - l2_ready
                    mem_free = mem_lde = b0 + c64
                    data_at = mem_free + memory_latency
                b0 = data_at if data_at > l1l2_free else l1l2_free
                l1l2_wait += b0 - data_at
                l1l2_free = l1l2_lde = b0 + c32
                latency = l1l2_free - now
            exposed = latency - hidden_latency
            stall = int(exposed / mlp) if exposed > 0 else 0
            if stall:
                stall_acc += stall
                now += stall
                stall_pos.append(p)
                stall_cum.append(stall_acc)
            miss_at.append(p)
            if frame is None:
                # First fill of the set: the frame the cache would
                # materialize (one way, frame key = set index).
                frame = frames[s] = Frame(s, 0, s)
                l1_sets[s] = [frame]
            demand_miss(s, b, now)
            valid = frame.valid
            if valid:
                old = frame.block_addr
                if frame.dirty:
                    b0 = now if now > l1l2_free else l1l2_free
                    l1l2_wait += b0 - now
                    l1l2_free = l1l2_lde = b0 + c32
                    n_wb += 1
                n_evict += 1
                if track:
                    hc = frame.hit_count
                    live = frame.lt_register if hc > 0 else 0
                    fill = frame.fill_time
                    g = gen_first[s]
                    closed_append((
                        old, fill, live, now - (fill + live), hc,
                        g if g < k else -1, len(miss_at),
                    ))
            schedule = on_miss(frame, s, b, pcs_l[p], now)
            if valid:
                del l1_tags[old]
            else:
                l1_valid_counts[s] += 1
            frame.reset_generation(b, b >> l1_index_bits, now)
            l1_tags[b] = frame
            if store:
                frame.dirty = True
            frame.lru_stamp = stamp0 + p
            if track:
                gen_first[s] = k
        if schedule is not None:
            fire_at = schedule.fire_at
            heappush(ev_heap, (fire_at, next(ev_counter), (_FIRE, scheduled(
                schedule.frame_key, schedule.target_block, now, fire_at,
            ))))
            n_scheduled += 1
        # The hit at which the policy acts next, if one can come before
        # the set's next static miss.
        j = k + 1
        if j < run_end_l[s] and next_miss_l[j] != j:
            trigger = next_hit_trigger(s, frame)
            if trigger is not None and trigger > frame.hit_count:
                j += trigger - frame.hit_count - 1
                if j < run_end_l[s] and j < next_miss_l[k + 1]:
                    heappush(visits, order_l[j])
        p += 1

    # ---- POST: clocks, L1 final state ---------------------------------------
    nm = len(miss_at)
    miss_pos = np.array(miss_at, dtype=np.int64)
    m_stall = np.zeros(nm, dtype=np.int64)
    m_stall[np.searchsorted(miss_pos, stall_pos[1:])] = np.diff(stall_cum)
    bt.clocks(miss_pos, m_stall)
    cls = _classify(sim, trace, start, stop, blocks, miss_pos, blocks_l)
    synced_arr = np.array(synced, dtype=np.int64)
    rest = np.flatnonzero(synced_arr < run_end)
    if rest.size:
        # Skipped hits after each set's last visit, from the final clocks.
        last_q = order[run_end[rest] - 1]
        rest_t = bt.now_eff[last_q]
        rest_dirty = store_cs[run_end[rest]] != store_cs[synced_arr[rest]]
        rest_stamp = clock0 + last_q + 1 + np.searchsorted(
            np.array(pf_fill_pos, dtype=np.int64), last_q, side="right"
        )
        for s, cnt, t, dirty, stamp in zip(
            rest.tolist(), (run_end[rest] - synced_arr[rest]).tolist(),
            rest_t.tolist(), rest_dirty.tolist(), rest_stamp.tolist(),
        ):
            frame = frames[s]
            frame.hit_count += cnt
            frame.last_access_time = t
            frame.lt_register = t - frame.fill_time
            if dirty:
                frame.dirty = True
            frame.lru_stamp = stamp

    # ---- generation segments, correlations, open generations (bank) -------
    if track:
        hit_s = np.ones(n, dtype=bool)
        hit_s[rank[miss_pos]] = False
        # Generation segments in the sorted domain start at set heads, at
        # misses and at the first access after an arrival.
        gen_head = heads | ~hit_s
        after = list(after_arrival)
        gen_head[after] = True
        seg_max = bt.intervals(
            np.flatnonzero(gen_head), hit_s, (after, list(after_arrival.values()))
        )
        seg_of = np.cumsum(gen_head) - 1
        # A set's first closed generation is its entry generation when
        # the set had a resident at batch entry; that one also carries
        # the tracker's maximum interval.
        entry_valid = bt.l1_state.block >= 0
        e_block, e_start, e_live, e_dead, e_hits, e_seg, e_key = (
            np.array(closed, dtype=np.int64).reshape(-1, 7).T
        )
        e_max = np.where(e_seg >= 0, seg_max[seg_of[np.maximum(e_seg, 0)]], 0)
        e_set = e_block & set_mask
        first_sets, first = np.unique(e_set, return_index=True)
        closed_sets = np.zeros(num_sets, dtype=bool)
        closed_sets[first_sets] = True
        first = first[entry_valid[first_sets]]
        e_max[first] = np.maximum(e_max[first], entry_maxiv[e_set[first]])
        bt.close(cls, blocks[miss_pos],
                 (e_block, e_start, e_live, e_dead, e_hits, e_max, e_key))
        # Open generations, one per valid frame: last access (or prefetch
        # fill) time, and the maximum interval of the current segment,
        # which an untouched set keeps from entry.
        gen_first = np.array(gen_first, dtype=np.int64)
        o_max = np.where(
            gen_first < run_end, seg_max[seg_of[np.minimum(gen_first, n - 1)]], 0
        )
        o_max = np.where(entry_valid & ~closed_sets, np.maximum(o_max, entry_maxiv), o_max)
        valid = [s for s, frame in enumerate(frames) if frame is not None and frame.valid]
        tracker._open_last.update((s, frames[s].last_access_time) for s in valid)
        tracker._open_max.update(zip(valid, o_max[valid].tolist()))

    # ---- counters -----------------------------------------------------------
    bt.finish(
        np.array(miss_log, dtype=np.int64), m_stall, None,
        AccessOutcome.PREFETCH_HIT, True, lambda: l2_log,
        ((l1l2_free, l1l2_lde, l1l2_wait, l1l2_pf_wait),
         (mem_free, mem_lde, mem_wait, mem_pf_wait)),
        n_wb, n_evict,
        prefetch=(n_pf_l2h, n_issued - n_pf_l2h, n_pf_evict, len(pf_fill_pos)),
    )
    sim._prefetch_useful += n_useful
    sim._prefetch_scheduled += n_scheduled
    sim._prefetch_fired += n_fired
    sim._prefetch_issued += n_issued
    sim._prefetch_arrived += n_arrived
