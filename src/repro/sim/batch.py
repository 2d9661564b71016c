"""Vectorized batch-dispatch engine for :class:`MemorySimulator`.

The scalar simulator walks the trace one access at a time; for the
paper's dominant configurations — direct-mapped L1, LRU L2, no
prefetcher, no decay, and either no victim cache or one behind the
unfiltered, Collins or timekeeping admission filter — nothing an
access does depends on *future* accesses, and almost nothing it does
needs the full machine.  This module exploits that: it scans an
array-backed trace's columns once with numpy (set decomposition,
hit/miss detection, generation segmentation), runs two lean Python
passes for the genuinely sequential state (the 3C shadow stack and the
bus/stall/victim-cache recurrence over misses only), and reconstructs
every observable — counters, histograms, generation records, miss
correlations, timing breakdown, and final cache contents —
bitwise-identically to the scalar loop.

Exactness is the contract, not an aspiration: the equivalence harness
(`tools/equivalence.py`) compares full result dictionaries between the
two engines cell by cell.  The invariants the reconstruction leans on:

- direct-mapped L1: an access hits iff the previous access to its set
  (or the set's resident at batch entry) touched the same block, so
  hit/miss falls out of one stable sort by set index;
- every L1 access stamps the LRU clock exactly once (hit or fill), so
  a frame's final stamp is ``clock0 + original position + 1``;
- every L1 miss that reaches the hierarchy stamps the L2 clock exactly
  once (L2 hit or L2 fill), and demand fills never use LRU insertion,
  so per-set L2 state reduces to an ordered list of resident blocks;
- buses serve demand requests in request order, which is miss order,
  so bus occupancy is a short recurrence over misses;
- the core clock is ``gap prefix-sum + stall prefix-sum``, and stalls
  depend only on bus/L2/victim-cache state, never on L1 frame metadata;
- a victim cache never changes L1 contents: the direct-mapped L1
  installs the missing block whether it comes from the victim cache or
  from L2, so hit/miss, generations and 3C classes are those of the
  plain machine, and only latency and traffic change.  Probes,
  admissions and the buffer's LRU order therefore ride the bus/stall
  recurrence as one more per-miss step;
- with a victim cache a miss stalls the clock in two components: the
  demand stall, then the quarter-cycle ``victim-fill`` penalty of an
  admission.  Correlations and L2 events see the clock before both,
  the evicted generation closes (and is admitted) between them, and
  the new block fills after both.

The L2 would be the one expensive reconstruction (tens of thousands of
:class:`Frame` objects), and nothing observable reads L2 frame fields
during a run — so the engine hands the cache a
:class:`_DeferredL2State` installer and the cache thaws it only if
someone actually looks (`SetAssociativeCache.defer_contents`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional

import numpy as np

from ..cache.block import Frame
from ..cache.replacement import LRUPolicy
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


def batch_fallback_reason(sim, trace) -> Optional[str]:
    """Why *sim* cannot run *trace* through the batch engine, or None.

    The batch engine covers the paper's baseline machine shape and its
    three victim-cache configurations (unfiltered, Collins and
    timekeeping admission, threshold variants included); any feature
    that makes an access's behavior depend on frame metadata or
    asynchronous events (prefetch timers, decay) or on per-eviction
    filter state (adaptive admission, custom filters) falls back to
    the scalar loop.  The returned string is surfaced in
    results/telemetry so a silent fallback is still observable.
    """
    if not getattr(sim, "_batch_capable", False):
        return "simulator subclass is not batch-capable"
    if getattr(sim, "_recorder", None) is not None:
        # The batch engine closes generations in column order with no
        # per-event callbacks, so a recording run needs the scalar
        # loop; results are bitwise-identical either way.
        return "flight recorder armed (per-generation events need the scalar loop)"
    if not trace.columns_are_arrays:
        return "trace is list-backed (no column arrays to scan)"
    if sim.policy is not None:
        return "prefetch policy configured"
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
    if not sim.l1._stamps_on_hit:
        return "L1 replacement does not stamp on hit"
    l2 = sim.hierarchy.l2
    if type(l2.policy) is not LRUPolicy:
        return "L2 replacement is not LRU"
    if not l2._stamps_on_hit:
        return "L2 replacement does not stamp on hit"
    if sim.events._heap:
        return "pending timing events"
    return None


class _DeferredL2State:
    """Lazily reconstructable final L2 contents after a batched run.

    During the batch the L2 is tracked through lean per-set structures
    (``set_lists``: resident block addresses in LRU→MRU order,
    ``way_of``: block → way, ``free_ways``: unfilled ways in scalar
    fill order) plus a flat event log of the reaching misses (one
    entry per L2 hit or fill).  :meth:`final_fields` replays the log
    over the entry per-block field snapshot to get every frame field;
    the object doubles as the cache's contents installer (calling it
    materializes real :class:`Frame` objects).  A follow-up batch (the warm-up boundary) instead consumes
    the lean structures directly and chains ``final_fields`` as its
    entry snapshot, so frames are only ever built if someone looks.
    """

    __slots__ = (
        "set_lists",
        "way_of",
        "free_ways",
        "entry_fields_fn",
        "ev_block",
        "ev_now",
        "ev_store",
        "ev_packed",
        "clock0",
        "index_bits",
        "assoc",
        "_fields",
    )

    def __init__(
        self,
        set_lists: Dict[int, List[int]],
        way_of: Dict[int, int],
        free_ways: Dict[int, List[int]],
        entry_fields_fn,
        ev_block: np.ndarray,
        ev_now: np.ndarray,
        ev_store: np.ndarray,
        ev_packed: np.ndarray,
        clock0: int,
        index_bits: int,
        assoc: int,
    ) -> None:
        self.set_lists = set_lists
        self.way_of = way_of
        self.free_ways = free_ways
        self.entry_fields_fn = entry_fields_fn
        self.ev_block = ev_block
        self.ev_now = ev_now
        self.ev_store = ev_store
        self.ev_packed = ev_packed
        self.clock0 = clock0
        self.index_bits = index_bits
        self.assoc = assoc
        self._fields = None

    def final_fields(self) -> Dict[int, tuple]:
        """block → (fill, last, hits, lt, dirty, prev_tag, stamp).

        Replays the event log (L2 hits re-anchoring hit state, fills
        starting generations with the evicted block's tag as
        ``prev_tag``) over the entry snapshot; memoized.  The event
        columns arrive as numpy arrays and are converted here, off the
        simulation hot path — a run nobody inspects never pays for it.
        """
        if self._fields is not None:
            return self._fields
        fields = dict(self.entry_fields_fn())
        clk = self.clock0
        index_bits = self.index_bits
        for block, now, store, packed in zip(
            self.ev_block.tolist(),
            self.ev_now.tolist(),
            self.ev_store.tolist(),
            self.ev_packed.tolist(),
        ):
            clk += 1
            if packed & 1:
                fill, _, hits, _, dirty, prev_tag, _ = fields[block]
                fields[block] = (
                    fill, now, hits + 1, now - fill, dirty or store, prev_tag, clk,
                )
            else:
                evicted = packed >> 1
                if evicted:
                    old = evicted - 1
                    prev_tag = old >> index_bits
                    del fields[old]
                else:
                    prev_tag = -1
                fields[block] = (now, now, 0, 0, store, prev_tag, clk)
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


def consume_batch(sim, trace, start: int, stop: int) -> None:
    """Run trace rows [start:stop) through *sim*, batch-dispatched.

    Leaves *sim* in the same externally observable state as
    ``sim._consume`` over the same rows: counters, clocks, metrics,
    tracker state, L1 frames (installed eagerly — there are at most
    ``num_sets`` of them) and L2 contents (deferred — see
    :class:`_DeferredL2State`) all match bitwise.  The caller (the
    engine dispatch in :meth:`MemorySimulator.run`) has already
    verified :func:`batch_fallback_reason` returned None.
    """
    addresses, kinds, gaps = trace.scan_columns(start, stop)
    n = int(len(addresses))
    if n == 0:
        return

    l1 = sim.l1
    hierarchy = sim.hierarchy
    l2 = hierarchy.l2
    timing = sim.timing
    metrics = sim.metrics
    tracker = sim.generations
    classifier = sim.classifier
    classifying = classifier is not None
    perfect = sim.perfect_non_cold

    offset_bits = sim._offset_bits
    num_sets = l1.num_sets
    l1_index_bits = l1._index_bits
    l2_shift = hierarchy._l2_shift
    l2_index_bits = l2._index_bits
    l2_set_mask = l2._set_mask
    l2_assoc = l2.associativity
    l2_hit_latency = hierarchy._l2_hit_latency
    memory_latency = hierarchy._memory_latency
    hidden_latency = timing.HIDDEN_LATENCY
    mlp = timing._mlp

    # ---- PRE: column math --------------------------------------------------
    blocks = addresses >> offset_bits
    sets = blocks & (num_sets - 1)
    stores_arr = kinds == _STORE
    base_now = sim.now + np.cumsum(gaps, dtype=np.int64)

    # Entry L1 state, scattered into per-set arrays (<= num_sets frames).
    entry_resident = np.full(num_sets, -1, dtype=np.int64)
    entry_fill = np.zeros(num_sets, dtype=np.int64)
    entry_last = np.zeros(num_sets, dtype=np.int64)
    entry_hits = np.zeros(num_sets, dtype=np.int64)
    entry_lt = np.zeros(num_sets, dtype=np.int64)
    entry_maxiv = np.zeros(num_sets, dtype=np.int64)
    entry_dirty = np.zeros(num_sets, dtype=bool)
    entry_frame: Dict[int, Frame] = {}
    open_max_entry = tracker._open_max
    for frame in l1._tags.values():
        s = frame.set_index
        entry_frame[s] = frame
        entry_resident[s] = frame.block_addr
        entry_fill[s] = frame.fill_time
        entry_last[s] = frame.last_access_time
        entry_hits[s] = frame.hit_count
        entry_lt[s] = frame.lt_register
        entry_dirty[s] = frame.dirty
        entry_maxiv[s] = open_max_entry.get(s, 0)

    # Stable sort by set: each set's accesses become one contiguous run,
    # and within a run an access hits iff its predecessor (or the entry
    # resident, at the run head) is the same block.  Sorting a narrow
    # integer key lets numpy use its radix path (int64 stable falls
    # back to mergesort, ~4x slower); set indices fit int16 for every
    # realistic L1.
    if num_sets <= 32768:
        order = np.argsort(sets.astype(np.int16), kind="stable")
    else:
        order = np.argsort(sets, kind="stable")
    ss = sets[order]
    sb = blocks[order]
    store_sorted = stores_arr[order]
    heads = np.empty(n, dtype=bool)
    heads[0] = True
    heads[1:] = ss[1:] != ss[:-1]
    tails = np.empty(n, dtype=bool)
    tails[-1] = True
    tails[:-1] = heads[1:]
    prev_blk = np.empty(n, dtype=np.int64)
    prev_blk[1:] = sb[:-1]
    prev_blk[heads] = entry_resident[ss[heads]]
    hit_sorted = sb == prev_blk
    miss_sorted = ~hit_sorted
    hit = np.empty(n, dtype=bool)
    hit[order] = hit_sorted
    miss_pos = np.flatnonzero(~hit)
    nm = int(miss_pos.size)
    n_hit = n - nm

    # Generation segmentation (sorted domain): a generation starts at a
    # set head that hits (continuing the entry resident's generation) or
    # at any miss; it runs to the next start or set end, all hits.
    gen_head = heads | miss_sorted
    gen_starts = np.flatnonzero(gen_head)
    gen_id = np.cumsum(gen_head) - 1
    gen_set = ss[gen_starts]
    gen_block = sb[gen_starts]
    gen_is_entry = heads[gen_starts] & hit_sorted[gen_starts]
    gen_batch_hits = np.add.reduceat(hit_sorted.astype(np.int64), gen_starts)
    gen_dirty = np.logical_or.reduceat(store_sorted, gen_starts) | (
        gen_is_entry & entry_dirty[gen_set]
    )
    gen_hits_total = gen_batch_hits + np.where(gen_is_entry, entry_hits[gen_set], 0)
    # Last access of each generation: the position just before the next
    # generation start (or the batch end).
    gen_last_pos = np.empty(gen_starts.size, dtype=np.int64)
    gen_last_pos[:-1] = gen_starts[1:] - 1
    gen_last_pos[-1] = n - 1

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
    # Sorted-miss rank -> miss (original) order permutation, via the
    # original-rank scatter (cheaper than argsort over the subset).
    m_orig = order[mpos_sorted]
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[miss_pos] = np.arange(nm, dtype=np.int64)
    perm = np.empty(nm, dtype=np.int64)
    perm[rank_of[m_orig]] = np.arange(nm, dtype=np.int64)

    # ---- classification (PASS A) ------------------------------------------
    cls = None
    charged_list: List[bool] = []
    n_charged = 0
    if classifying:
        seen_set = classifier._seen
        # Cold candidates: the batch's first touch of a block (hit or
        # miss), filtered against the pre-batch seen set.
        first_occ = np.zeros(n, dtype=bool)
        uniq_blocks, uniq_first = np.unique(blocks, return_index=True)
        first_occ[uniq_first] = True
        cand_mask = first_occ[miss_pos]
        cand_blocks = blocks[miss_pos][cand_mask]
        if cand_blocks.size and seen_set:
            in_seen = np.fromiter(
                (b in seen_set for b in cand_blocks.tolist()),
                dtype=bool,
                count=cand_blocks.size,
            )
        else:
            in_seen = np.zeros(cand_blocks.size, dtype=bool)
        cold_arr = np.zeros(nm, dtype=bool)
        cold_arr[cand_mask] = ~in_seen
        # Shadow-stack replay: the 1024-entry fully associative LRU
        # shadow is inherently sequential — one lean pass in original
        # order, sampling membership at misses (before the update, as
        # the scalar classify does).
        shadow = classifier._shadow_blocks
        shadow_move = shadow.move_to_end
        shadow_popitem = shadow.popitem
        shadow_cap = classifier.shadow.capacity
        in_shadow_list: List[bool] = []
        in_shadow_append = in_shadow_list.append
        shadow_len = len(shadow)
        blocks_l = blocks.tolist()
        for b, h in zip(blocks_l, hit.tolist()):
            if b in shadow:
                if not h:
                    in_shadow_append(True)
                shadow_move(b)
            else:
                if not h:
                    in_shadow_append(False)
                if shadow_len >= shadow_cap:
                    shadow_popitem(False)
                else:
                    shadow_len += 1
                shadow[b] = None
        in_shadow_arr = np.array(in_shadow_list, dtype=bool)
        cls = np.where(cold_arr, _COLD, np.where(in_shadow_arr, _CONFLICT, _CAPACITY))
        counts = classifier.counts
        n_cold = int(cold_arr.sum())
        counts.cold += n_cold
        counts.conflict += int((cls == _CONFLICT).sum())
        counts.capacity += int((cls == _CAPACITY).sum())
        seen_set.update(uniq_blocks.tolist())
        if perfect:
            charged_arr = cls != _COLD
            n_charged = nm - n_cold
            charged_list = charged_arr.tolist()

    # ---- PASS BC: bus/stall recurrence over misses ------------------------
    # Sequential by necessity: each miss's L2/memory latency depends on
    # bus occupancy left by earlier misses, and its stall shifts every
    # later access.  Everything else is precomputed columns.
    l1_l2_bus = hierarchy.l1_l2_bus
    memory_bus = hierarchy.memory_bus
    l1_block_size = sim.machine.l1d.block_size
    l2_block_size = hierarchy._l2_block
    c32 = l1_l2_bus._transfer_cycles.get(l1_block_size)
    if c32 is None:
        c32 = l1_l2_bus._transfer_cycles[l1_block_size] = (
            l1_l2_bus.config.transfer_cycles(l1_block_size)
        )
    c64 = memory_bus._transfer_cycles.get(l2_block_size)
    if c64 is None:
        c64 = memory_bus._transfer_cycles[l2_block_size] = (
            memory_bus.config.transfer_cycles(l2_block_size)
        )
    l1l2_free = l1_l2_bus.free_at
    mem_free = memory_bus.free_at
    l1l2_wait = 0
    mem_wait = 0
    l1l2_transfers = 0
    mem_transfers = 0

    # Entry L2 lean state: either chained from the previous batch's
    # deferred payload, or snapshotted from real frames.
    payload = l2.deferred_contents()
    if payload is not None:
        set_lists = payload.set_lists
        way_of = payload.way_of
        free_ways = payload.free_ways
        entry_fields_fn = payload.final_fields
    else:
        set_lists = {}
        way_of = {}
        free_ways = {}
        by_set: Dict[int, List[Frame]] = {}
        for frame in l2._tags.values():
            by_set.setdefault(frame.set_index, []).append(frame)
        for s, frames in by_set.items():
            frames.sort(key=lambda f: f.lru_stamp)
            set_lists[s] = [f.block_addr for f in frames]
            used = set()
            for f in frames:
                way_of[f.block_addr] = f.way
                used.add(f.way)
            free_ways[s] = [w for w in range(l2_assoc - 1, -1, -1) if w not in used]
        entry_snapshot = {
            f.block_addr: (
                f.fill_time, f.last_access_time, f.hit_count, f.lt_register,
                f.dirty, f.prev_tag, f.lru_stamp,
            )
            for f in l2._tags.values()
        }
        entry_fields_fn = lambda snap=entry_snapshot: snap
    l2_had_state = payload is not None or bool(set_lists)

    ev_packed: List[int] = []
    stall_list: List[int] = []
    n_l2h = 0
    n_fill = 0
    n_l2_evict = 0
    n_wb = 0
    victim_cache = sim.victim_cache
    # cum[k]: clock stall (demand + victim-fill) through the first k misses.
    cum: List[int] = [0]
    vc_fills = 0
    vc_lru_evictions = 0

    if nm:
        l2b_arr = blocks[miss_pos] >> l2_shift
        mb_l = l2b_arr.tolist()
        ms_l = (l2b_arr & l2_set_mask).tolist()
        mbase_l = base_now[miss_pos].tolist()
        vd_l = v_dirty[perm].tolist()
        sl_get = set_lists.get
        way_pop = way_of.pop
        ev_packed_append = ev_packed.append
        stall_append = stall_list.append
        default_ways = range(l2_assoc - 1, -1, -1)
        stall_acc = 0
        if n_charged:
            # Perfect-mode batches carry the per-miss charged flag; the
            # common (no charged misses) loop below is the same body
            # minus the flag column and its branch — keep them in sync.
            rows = zip(mb_l, ms_l, mbase_l, vd_l, charged_list)
            for lb, s, base, vd, charged in rows:
                now = base + stall_acc
                if charged:
                    # perfect_non_cold: no hierarchy traffic, no stall;
                    # the eviction write-back still crosses the L1/L2
                    # bus.
                    stall_append(0)
                    if vd:
                        s1 = now if now > l1l2_free else l1l2_free
                        l1l2_wait += s1 - now
                        l1l2_free = s1 + c32
                    continue
                if lb in way_of:
                    # L2 hit: MRU move (skipped when already most recent).
                    lst = set_lists[s]
                    if lst[-1] != lb:
                        lst.remove(lb)
                        lst.append(lb)
                    ev_packed_append(1)
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
                    ev_packed_append(packed)
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
                    # advances the clock (scalar eviction order).
                    wnow = now + stall
                    s1 = wnow if wnow > l1l2_free else l1l2_free
                    l1l2_wait += s1 - wnow
                    l1l2_free = s1 + c32
        elif victim_cache is not None:
            # Victim-cache batches: the common loop's L2 step (keep them
            # in sync) behind a victim-cache probe, plus the eviction's
            # admission, LRU insert and quarter-cycle fill penalty.
            admission = sim.admission
            vv_l = v_valid[perm].tolist()
            vb_l = v_block[perm].tolist()
            blk_l = blocks[miss_pos].tolist()
            adm_col = repeat(True)
            lbase_col = lk_col = repeat(0)
            timekeeping = type(admission) is TimekeepingAdmission
            if type(admission) is CollinsAdmission:
                # The victim frame's prev_tag: the entry frame's when
                # the victim is the set's entry resident or entry
                # generation, else the tag of the previous same-set
                # miss's victim (sorted-miss index m - 1).
                entry_prev = np.full(num_sets, -1, dtype=np.int64)
                for s, frame in entry_frame.items():
                    entry_prev[s] = frame.prev_tag
                from_entry = m_is_head | gen_is_entry[g_prev]
                prev = np.arange(nm) - 1  # -1 only where from_entry
                chained = np.where(
                    v_valid[prev], v_block[prev] >> l1_index_bits, -1
                )
                prev_tag = np.where(from_entry, entry_prev[m_set], chained)
                adm_col = (
                    prev_tag[perm] == blocks[miss_pos] >> admission._index_bits
                ).tolist()
            elif timekeeping:
                # The victim's last access happened at lbase + cum[lk]:
                # the entry frame's time for set-head victims (lk = 0),
                # else base_now at its generation's last position plus
                # the stall of the lk misses at or before it.
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
            vcb = victim_cache._blocks
            vcb_pop_lru = vcb.popitem
            vc_entries = victim_cache.entries
            vc_latency = victim_cache.hit_latency
            penalty_q = sim.victim_insert_quarter_cycles
            penalty_acc = sim._victim_penalty_acc
            cum_append = cum.append
            rows = zip(
                mb_l, ms_l, mbase_l, vd_l, blk_l, vv_l, vb_l, adm_col,
                lbase_col, lk_col,
            )
            for lb, s, base, vd, blk, vv, vb, admit, lbase, lk in rows:
                now = base + stall_acc
                if blk in vcb:
                    # Victim hit: the block swaps back into the L1; no
                    # L2 or bus traffic.  Marked -1 in the event log.
                    del vcb[blk]
                    ev_packed_append(-1)
                    latency = vc_latency
                else:
                    if lb in way_of:
                        lst = set_lists[s]
                        if lst[-1] != lb:
                            lst.remove(lb)
                            lst.append(lb)
                        ev_packed_append(1)
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
                        ev_packed_append(packed)
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
                if vv:
                    # Eviction at the post-demand-stall clock: write-back,
                    # admission, LRU insert, then the fill penalty.
                    wnow = now + stall
                    if vd:
                        s1 = wnow if wnow > l1l2_free else l1l2_free
                        l1l2_wait += s1 - wnow
                        l1l2_free = s1 + c32
                    if timekeeping:
                        ticks = wnow // tick - (lbase + cum[lk]) // tick
                        admit = (
                            ticks if ticks < saturated else saturated
                        ) <= max_counter
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
            sim._victim_penalty_acc = penalty_acc
        else:
            for lb, s, base, vd in zip(mb_l, ms_l, mbase_l, vd_l):
                now = base + stall_acc
                if lb in way_of:
                    # L2 hit: MRU move (skipped when already most recent).
                    lst = set_lists[s]
                    if lst[-1] != lb:
                        lst.remove(lb)
                        lst.append(lb)
                    ev_packed_append(1)
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
                    ev_packed_append(packed)
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
                    # advances the clock (scalar eviction order).
                    wnow = now + stall
                    s1 = wnow if wnow > l1l2_free else l1l2_free
                    l1l2_wait += s1 - wnow
                    l1l2_free = s1 + c32

    # Per-event counters, derived from the event log instead of being
    # incremented inside the recurrence: low bit tags L2 hits, larger
    # packed values carry an evicted block, every dirty victim crossed
    # the L1/L2 bus once, and every reaching miss requested one fetch.
    packed_arr = np.array(ev_packed, dtype=np.int64)
    # Per-miss stalls: the demand stall (the breakdown's l2/memory
    # share) and the clock stall, which adds any victim-fill penalty.
    demand_stalls = np.array(stall_list, dtype=np.int64)
    stalls_np = demand_stalls
    vhit_mask = None
    n_vhit = 0
    if victim_cache is not None and nm:
        packed_all = packed_arr
        vhit_mask = packed_all < 0
        n_vhit = int(vhit_mask.sum())
        packed_arr = packed_all[~vhit_mask]
        stalls_np = np.diff(np.array(cum, dtype=np.int64))
        penalties = stalls_np - demand_stalls
    n_reach = int(packed_arr.size)
    if n_reach:
        n_l2h = int((packed_arr & 1).sum())
        n_fill = n_reach - n_l2h
        n_l2_evict = int((packed_arr > 1).sum())
        mem_transfers = n_fill
    if nm:
        n_wb = int(v_dirty.sum())
        l1l2_transfers = n_reach + n_wb

    # ---- PASS D: clocks and intervals -------------------------------------
    stall_full = np.zeros(n, dtype=np.int64)
    if nm:
        stall_full[miss_pos] = stalls_np
    incl = np.cumsum(stall_full)
    now_eff = base_now + incl
    now_s = now_eff[order]
    sim.now = int(now_eff[-1])
    prev_now = np.empty(n, dtype=np.int64)
    prev_now[1:] = now_s[:-1]
    prev_now[heads] = entry_last[ss[heads]]
    intervals = now_s - prev_now
    if metrics is not None and n_hit:
        metrics.access_interval.add_many(intervals[hit_sorted])
    gen_max = np.maximum.reduceat(np.where(hit_sorted, intervals, 0), gen_starts)
    gen_max = np.where(
        gen_is_entry, np.maximum(gen_max, entry_maxiv[gen_set]), gen_max
    )
    gen_last_now = now_s[gen_last_pos]
    gen_fill = np.where(gen_is_entry, entry_fill[gen_set], now_s[gen_starts])
    gen_lt = np.where(
        gen_batch_hits > 0,
        gen_last_now - gen_fill,
        np.where(gen_is_entry, entry_lt[gen_set], 0),
    )
    gen_live = np.where(gen_hits_total > 0, gen_lt, 0)

    # ---- PASS E: generations, correlations, metrics, installs -------------
    if nm:
        pre_now = base_now[miss_pos] + incl[miss_pos] - stalls_np
        close_now = now_s[mpos_sorted]
        if vhit_mask is not None:
            # The evicted generation closes before the fill penalty.
            close_now = close_now - penalties[rank_of[m_orig]]
        entry_live = np.where(entry_hits > 0, entry_lt, 0)
        v_start = np.where(m_is_head, entry_fill[m_set], gen_fill[g_prev])
        v_live = np.where(m_is_head, entry_live[m_set], gen_live[g_prev])
        v_hits = np.where(m_is_head, entry_hits[m_set], gen_hits_total[g_prev])
        v_max = np.where(m_is_head, entry_maxiv[m_set], gen_max[g_prev])
        v_dead = close_now - (v_start + v_live)
        # Reorder to miss (original) order; drop invalid victims.
        val_mask = v_valid[perm]
        e_rank = np.flatnonzero(val_mask)
        e_block = v_block[perm][val_mask]
        e_start = v_start[perm][val_mask]
        e_live = v_live[perm][val_mask]
        e_dead = v_dead[perm][val_mask]
        e_hits = v_hits[perm][val_mask]
        e_max = v_max[perm][val_mask]
        n_evictions = int(e_rank.size)

        # Correlations sample each non-cold miss's *previous closed
        # generation* of the missed block, in scalar order: the miss's
        # own eviction lands after its correlation, so a query at miss
        # rank k sees in-batch evictions at ranks strictly below k and
        # falls back to the tracker's pre-batch history otherwise.
        last_gen_get = tracker._last_gen.get
        e_block_l = e_block.tolist()
        e_start_l = e_start.tolist()
        e_live_l = e_live.tolist()
        e_dead_l = e_dead.tolist()
        corr_cls: List[int] = []
        corr_reload: List[int] = []
        corr_dead: List[int] = []
        corr_live: List[int] = []
        do_corr = metrics is not None and classifying
        prev_live_list: List[Optional[int]]
        if n_evictions:
            # Previous generation of each evicted block: the prior
            # eviction of the same block in this batch (a stable
            # block-sort puts same-block evictions adjacent in rank
            # order, so that is just the previous sorted element), else
            # the tracker's last closed generation.
            so = np.argsort(e_block, kind="stable")
            sb = e_block[so]
            samep = np.empty(n_evictions, dtype=bool)
            samep[0] = False
            samep[1:] = sb[1:] == sb[:-1]
            rep_pos = np.flatnonzero(samep)
            rep_idx = so[rep_pos]
            prev_live_arr = np.zeros(n_evictions, dtype=np.int64)
            prev_live_arr[rep_idx] = e_live[so[rep_pos - 1]]
            have_prev = np.zeros(n_evictions, dtype=bool)
            have_prev[rep_idx] = True
            prev_live_list = prev_live_arr.tolist()
            for j in np.flatnonzero(~have_prev).tolist():
                lg = last_gen_get(e_block_l[j])
                prev_live_list[j] = lg.live_time if lg is not None else None
        else:
            prev_live_list = []
        if do_corr:
            noncold = np.flatnonzero(cls != _COLD)
            if noncold.size:
                q_block = blocks[miss_pos][noncold]
                q_now = pre_now[noncold]
                nq = int(noncold.size)
                r_reload = np.zeros(nq, dtype=np.int64)
                r_dead = np.zeros(nq, dtype=np.int64)
                r_live = np.zeros(nq, dtype=np.int64)
                keep = np.ones(nq, dtype=bool)
                if n_evictions:
                    # Latest in-batch eviction of the queried block
                    # strictly before the miss's rank, via one
                    # searchsorted over dense (block, rank) keys (the
                    # block-sorted evictions above are already key
                    # ordered).  A victim never equals the missed
                    # block, so no eviction shares a query's key.
                    ub = np.unique(np.concatenate([e_block, q_block]))
                    stride = nm + 1
                    ev_keys = np.searchsorted(ub, sb) * stride + e_rank[so]
                    q_keys = np.searchsorted(ub, q_block) * stride + noncold
                    pos = np.searchsorted(ev_keys, q_keys, side="left") - 1
                    safe = np.maximum(pos, 0)
                    inb = (pos >= 0) & (sb[safe] == q_block)
                    src = so[safe]
                    r_reload = np.where(inb, q_now - e_start[src], 0)
                    r_dead = np.where(inb, e_dead[src], 0)
                    r_live = np.where(inb, e_live[src], 0)
                    fallback = np.flatnonzero(~inb)
                else:
                    fallback = np.arange(nq)
                if fallback.size:
                    qb_l = q_block.tolist()
                    qn_l = q_now.tolist()
                    for i in fallback.tolist():
                        lg = last_gen_get(qb_l[i])
                        if lg is None:
                            keep[i] = False
                        else:
                            r_reload[i] = qn_l[i] - lg.start
                            r_dead[i] = lg.dead_time
                            r_live[i] = lg.live_time
                corr_cls = cls[noncold][keep].tolist()
                corr_reload = r_reload[keep].tolist()
                corr_dead = r_dead[keep].tolist()
                corr_live = r_live[keep].tolist()

        # Record columns, handed to the tracker and metrics as-is: both
        # queue them and only build GenerationRecord objects when
        # someone reads per-block history or the record lists.
        gen_columns = (
            e_block_l,
            e_start_l,
            e_live_l,
            e_dead_l,
            e_hits.tolist(),
            e_max.tolist(),
            prev_live_list,
        )
        tracker.absorb_closed(gen_columns)
        if metrics is not None:
            metrics.bulk_generations(e_live, e_dead, gen_columns)
            if corr_cls:
                metrics.bulk_correlations(
                    corr_cls, corr_reload, corr_dead, corr_live
                )
    else:
        n_evictions = 0

    # ---- L1 final state (eager: at most num_sets frames) ------------------
    l1_clock0 = l1._clock
    l1._clock = l1_clock0 + n
    tail_pos = np.flatnonzero(tails)
    f_gid = gen_id[tail_pos]
    f_stamp_l = (l1_clock0 + order[tail_pos] + 1).tolist()
    f_set_l = ss[tail_pos].tolist()
    f_entry_l = gen_is_entry[f_gid].tolist()
    f_block_l = gen_block[f_gid].tolist()
    f_fill_l = gen_fill[f_gid].tolist()
    f_last_l = gen_last_now[f_gid].tolist()
    f_hits_l = gen_hits_total[f_gid].tolist()
    f_lt_l = gen_lt[f_gid].tolist()
    f_max_l = gen_max[f_gid].tolist()
    f_dirty_l = gen_dirty[f_gid].tolist()
    if nm:
        gen_to_missrank = np.full(gen_starts.size, -1, dtype=np.int64)
        gen_to_missrank[m_gid] = np.arange(nm)
        f_missrank_l = gen_to_missrank[f_gid].tolist()
        v_block_l = v_block.tolist()
        v_valid_l = v_valid.tolist()
    else:
        f_missrank_l = v_block_l = v_valid_l = None
    l1_tags = l1._tags
    l1_sets = l1._sets
    l1_valid_counts = l1._valid_counts
    open_last = tracker._open_last
    open_max = tracker._open_max
    frame_restore = Frame.restore
    for i in range(len(f_set_l)):
        s = f_set_l[i]
        last_now = f_last_l[i]
        if f_entry_l[i]:
            # The set never missed: its entry frame's generation simply
            # accumulated hits — mutate it in place.
            frame = entry_frame[s]
            frame.hit_count = f_hits_l[i]
            frame.lt_register = f_lt_l[i]
            frame.last_access_time = last_now
            frame.lru_stamp = f_stamp_l[i]
            frame.dirty = f_dirty_l[i]
        else:
            block = f_block_l[i]
            k = f_missrank_l[i]
            prev_tag = v_block_l[k] >> l1_index_bits if v_valid_l[k] else -1
            frame = frame_restore(
                s, 0, s, True, block >> l1_index_bits, block, f_dirty_l[i],
                f_stamp_l[i], f_fill_l[i], last_now, f_hits_l[i], f_lt_l[i],
                prev_tag,
            )
            old = entry_frame.get(s)
            if old is not None:
                del l1_tags[old.block_addr]
            else:
                l1_valid_counts[s] += 1
            l1_tags[block] = frame
            l1_sets[s] = [frame]
        open_last[s] = last_now
        open_max[s] = f_max_l[i]

    # ---- L2 final state (deferred) and counters ---------------------------
    # The event columns the deferred-state replay needs are rebuilt from
    # the precomputed miss columns (reaching misses only — charged ones
    # and victim hits touched no L2 state), rather than appended inside
    # the hot loop.
    if nm:
        if n_charged:
            reach_mask = ~charged_arr
        elif vhit_mask is not None:
            reach_mask = ~vhit_mask
        else:
            reach_mask = None
        if reach_mask is not None:
            ev_block_arr = l2b_arr[reach_mask]
            ev_now_arr = pre_now[reach_mask]
            ev_store_arr = stores_arr[miss_pos][reach_mask]
        else:
            ev_block_arr = l2b_arr
            ev_now_arr = pre_now
            ev_store_arr = stores_arr[miss_pos]
    else:
        ev_block_arr = ev_now_arr = packed_arr
        ev_store_arr = np.zeros(0, dtype=bool)
    if l2_had_state or n_l2h or n_fill:
        l2.defer_contents(
            _DeferredL2State(
                set_lists, way_of, free_ways, entry_fields_fn,
                ev_block_arr, ev_now_arr, ev_store_arr, packed_arr,
                l2._clock, l2_index_bits, l2_assoc,
            )
        )
    l2._clock += n_l2h + n_fill
    l2.hits += n_l2h
    l2.misses += n_fill
    l2.evictions += n_l2_evict
    hierarchy.l2_demand_hits += n_l2h
    hierarchy.l2_demand_misses += n_fill
    hierarchy.memory_accesses += n_fill

    l1_l2_bus.free_at = l1l2_free
    if l1l2_transfers:
        l1_l2_bus.last_demand_end = l1l2_free
    l1_l2_bus.demand_transfers += l1l2_transfers
    l1_l2_bus.demand_wait_cycles += l1l2_wait
    memory_bus.free_at = mem_free
    if mem_transfers:
        memory_bus.last_demand_end = mem_free
    memory_bus.demand_transfers += mem_transfers
    memory_bus.demand_wait_cycles += mem_wait

    # ---- timing, counters, outcomes ---------------------------------------
    timing.compute_cycles += int(gaps.sum(dtype=np.int64))
    timing._accesses += n
    if nm:
        timing.stall_cycles += int(stalls_np.sum())
        # Breakdown keys are inserted in order of first occurrence, a
        # miss's demand category before its penalty, as the scalar
        # add_stall/add_fixed_stall sequence would.  The low bit of a
        # packed event distinguishes L2 hits from memory fills; with a
        # victim cache the masks run over all misses (victim hits, -1
        # in the log, charge "l2" unless their latency is zero).
        if vhit_mask is None:
            hit_mask = (packed_arr & 1).astype(bool)
            reach_stalls = stalls_np if reach_mask is None else stalls_np[reach_mask]
            categories = [
                ("l2", hit_mask, reach_stalls), ("memory", ~hit_mask, reach_stalls),
            ]
        else:
            l2_mask = packed_all == 1
            if victim_cache.hit_latency:
                l2_mask |= vhit_mask
            categories = [
                ("l2", l2_mask, demand_stalls),
                ("memory", (packed_all & 1) == 0, demand_stalls),
                ("victim-fill", penalties > 0, penalties),
            ]
        firsts = []
        for name, mask, amounts in categories:
            where = np.flatnonzero(mask)
            if where.size:
                order_key = 2 * int(where[0]) + (name == "victim-fill")
                firsts.append((order_key, name, int(amounts[where].sum())))
        breakdown = timing._breakdown
        for _, name, amount in sorted(firsts):
            breakdown[name] = breakdown.get(name, 0) + amount

    # Charged (perfect_non_cold) misses count as L1 hits in both the
    # outcome tally and the mechanism counters; see the accounting note
    # in MemorySimulator.
    l1.hits += n_hit + n_charged
    l1.misses += nm - n_charged
    l1.evictions += n_evictions
    sim.writebacks += n_wb
    sim._accesses += n
    outcomes = sim._outcomes
    outcomes[AccessOutcome.L1_HIT] += n_hit + n_charged
    outcomes[AccessOutcome.VICTIM_HIT] += n_vhit
    outcomes[AccessOutcome.L2_HIT] += n_l2h
    outcomes[AccessOutcome.MEMORY] += n_fill
    if victim_cache is not None:
        victim_cache.probes += nm
        victim_cache.hits += n_vhit
        victim_cache.fills += vc_fills
        victim_cache.rejected += n_evictions - vc_fills
        victim_cache.lru_evictions += vc_lru_evictions
