"""Trace-driven memory-system simulator.

:class:`MemorySimulator` runs one :class:`~repro.traces.Trace` through
the Table-1 machine: L1 data cache, optional victim cache with an
admission filter, optional prefetch engine (policy + 128-entry queue +
32 prefetch MSHRs + contended buses), the L2/memory hierarchy, 3C miss
classification, generational timekeeping metrics, and the analytical
IPC model.

Event ordering per access:

1. advance the clock by the access's compute gap;
2. drain due events — prefetch timers fire into the queue, in-flight
   prefetches arrive and fill the L1 — then issue queued prefetches
   while prefetch MSHRs are free;
3. probe the L1; on a hit update frame/metrics and let the policy
   chain-arm; on a miss classify, probe victim cache / merge with an
   in-flight prefetch / fetch from the hierarchy, resolve the frame's
   pending prefetch, run the victim admission filter, close the old
   generation, consult the policy, and fill.

``perfect_non_cold`` mode charges zero latency for every non-cold miss
(state still evolves normally); it produces the Figure-1 "all conflict
and capacity misses eliminated" upper bound.
"""

from __future__ import annotations

import gc as _gc
from contextlib import contextmanager as _contextmanager
from itertools import islice as _islice
from typing import Iterator, Optional

from ..obs.metrics import current as _telemetry_current

from ..cache.cache import SetAssociativeCache
from ..cache.hierarchy import MemoryHierarchy
from ..cache.mshr import MSHRFile
from ..cache.victim import VictimCache
from ..classify.three_c import ThreeCClassifier
from ..common.config import MachineConfig, paper_machine
from ..common.errors import SimulationError
from ..common.types import AccessOutcome, AccessType, MissClass
from ..core.decay import DecayPolicy
from ..core.generations import GenerationTracker
from ..core.metrics import TimekeepingMetrics
from ..core.prefetch.policy import PrefetchPolicy, ScheduledPrefetch
from ..core.prefetch.queue import PrefetchQueue
from ..core.prefetch.timeliness import PendingPrefetch, PrefetchBookkeeper
from ..core.victim import AdmissionFilter, make_admission_filter
from ..timing.events import EventQueue
from ..timing.processor import TimingModel
from ..traces.trace import Trace
from .batch import _ARRIVE, _FIRE, batch_fallback_reason, consume_batch
from .results import PrefetchStats, SimulationResult, VictimStats

#: Engines :meth:`MemorySimulator.run` accepts.
ENGINES = ("batch", "scalar")


@_contextmanager
def _gc_suspended() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the block, then restore
    the caller's setting (nested use is a no-op)."""
    was_enabled = _gc.isenabled()
    if was_enabled:
        _gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            _gc.enable()


class MemorySimulator:
    """One configured machine instance, run once over one trace.

    Accounting note (``perfect_non_cold``): a non-cold miss in perfect
    mode is *charged* as an L1 hit — zero latency, counted as a hit in
    both the outcome tally and the ``l1.hits``/``l1.misses`` mechanism
    counters — while cache state still evolves as if it missed (the
    old generation closes, the block is refilled).  One visible
    consequence: ``l1.evictions`` can exceed ``l1.misses`` in perfect
    mode, because charged misses still evict.
    """

    #: Whether the batch-dispatch engine understands this class's
    #: semantics.  Subclasses that override behavior (e.g. the
    #: reference model in tools/equivalence.py) must set this False so
    #: engine dispatch falls back to their scalar loop.
    _batch_capable = True

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        *,
        ipa: float = 3.0,
        victim_filter: Optional[str] = None,
        prefetch_policy: Optional[PrefetchPolicy] = None,
        collect_metrics: bool = False,
        perfect_non_cold: bool = False,
        decay: Optional[DecayPolicy] = None,
    ) -> None:
        """Assemble the machine: caches, timing, filters, predictors and,
        with *collect_metrics*, a metric bank and the generation tracker
        that feeds it (only a bank reads a generation, so without one
        ``generations`` is None and neither engine tracks any)."""
        self.machine = machine if machine is not None else paper_machine()
        self.ipa = ipa
        self.l1 = SetAssociativeCache(self.machine.l1d)
        self.hierarchy = MemoryHierarchy(self.machine)
        self.timing = TimingModel(self.machine.processor, ipa)
        self.classifier = ThreeCClassifier(self.machine.l1d.num_blocks)
        self.perfect_non_cold = perfect_non_cold
        self.collect_metrics = collect_metrics
        self.metrics = self.generations = None
        if collect_metrics:
            self.metrics = TimekeepingMetrics()
            self.generations = GenerationTracker(self.metrics.on_generation)
        # Victim cache.
        self.victim_cache: Optional[VictimCache] = None
        self.admission: Optional[AdmissionFilter] = None
        #: Port/bandwidth cost of moving one victim into the buffer,
        #: in quarter-cycles (swaps steal L1 fill bandwidth); this is
        #: what makes an *unfiltered* victim cache a net loss on
        #: capacity-dominated programs (paper Figure 13).
        self.victim_insert_quarter_cycles = 1
        self._victim_penalty_acc = 0
        if victim_filter is not None:
            self.victim_cache = VictimCache()
            if isinstance(victim_filter, AdmissionFilter):
                self.admission = victim_filter
            else:
                self.admission = make_admission_filter(
                    victim_filter,
                    l1_index_bits=self.machine.l1d.index_bits,
                    tick_cycles=self.machine.tick_cycles,
                    victim_entries=self.victim_cache.entries,
                )
        #: Optional cache-decay mechanism on the L1 (leakage study).
        self.decay = decay
        # Prefetch engine.
        self.policy = prefetch_policy
        self.prefetch_queue = PrefetchQueue(self.machine.prefetch.queue_entries)
        self.prefetch_mshrs = MSHRFile(self.machine.prefetch.mshrs)
        self.bookkeeper = PrefetchBookkeeper()
        self.events = EventQueue()
        self._prefetch_issued = 0
        self._prefetch_arrived = 0
        self._prefetch_useful = 0
        self._prefetch_scheduled = 0
        self._prefetch_fired = 0
        # Engine bookkeeping, filled in by run().
        self.engine_used: Optional[str] = None
        self.batch_fallback: Optional[str] = None
        # Misc counters.
        self.now = 0
        self._outcomes = {outcome: 0 for outcome in AccessOutcome}
        self._accesses = 0
        self.writebacks = 0
        self._finished = False
        # Hot-path constants.
        self._offset_bits = self.machine.l1d.offset_bits
        self._assoc = self.machine.l1d.associativity

    # -- prefetch engine -------------------------------------------------------

    def _arm(self, schedule: ScheduledPrefetch) -> None:
        pending = self.bookkeeper.scheduled(
            schedule.frame_key, schedule.target_block, self.now, schedule.fire_at
        )
        self.events.schedule(schedule.fire_at, (_FIRE, pending))
        self._prefetch_scheduled += 1

    def _handle_fire(self, pending: PendingPrefetch) -> None:
        if self.bookkeeper.pending_for(pending.frame_key) is not pending:
            return  # superseded or resolved
        if self.l1.probe(pending.target_block) is not None:
            self.bookkeeper.cancel(pending.frame_key)
            return
        self.bookkeeper.fired(pending.frame_key)
        self._prefetch_fired += 1
        displaced = self.prefetch_queue.push(pending)
        if displaced is not None:
            self.bookkeeper.discarded(displaced)

    def _issue_prefetches(self) -> None:
        self.prefetch_mshrs.expire(self.now)
        while len(self.prefetch_queue):
            pending = self.prefetch_queue.peek()
            if self.bookkeeper.pending_for(pending.frame_key) is not pending:
                self.prefetch_queue.pop()  # stale entry
                continue
            if self.l1.probe(pending.target_block) is not None:
                self.prefetch_queue.pop()
                self.bookkeeper.cancel(pending.frame_key)
                continue
            if len(self.prefetch_mshrs) >= self.prefetch_mshrs.entries:
                break
            self.prefetch_queue.pop()
            fetch = self.hierarchy.fetch(pending.target_block, self.now, prefetch=True)
            self.prefetch_mshrs.allocate(pending.target_block, fetch.completes_at)
            self.bookkeeper.issued(pending.frame_key, self.now)
            self.events.schedule(fetch.completes_at, (_ARRIVE, pending))
            self._prefetch_issued += 1

    def _handle_arrival(self, pending: PendingPrefetch, when: int) -> None:
        if self.bookkeeper.pending_for(pending.frame_key) is not pending:
            # Resolved or superseded while in flight (e.g. merged with a
            # demand).  Retire the MSHR entry only when it is this
            # arrival's own fetch: a newer in-flight fetch of the same
            # block completes later than *when*, and dropping its entry
            # here would prevent demands from merging with it.
            completes = self.prefetch_mshrs.lookup(pending.target_block)
            if completes is not None and completes <= when:
                self.prefetch_mshrs.release(pending.target_block)
            return
        self.prefetch_mshrs.release(pending.target_block)
        target = pending.target_block
        if self.l1.probe(target) is not None:
            self.bookkeeper.cancel(pending.frame_key)
            return
        frame = self.l1.choose_victim(target)
        frame_key = frame.frame_key
        displaced = -1
        if frame.valid:
            displaced = frame.block_addr
            before = self.now
            self._evict(frame, frame_key, target, when)
            # The victim-insert swap can stall the core; the fill it
            # caused must not be timestamped before that stall.
            when += self.now - before
        if self.policy is not None:
            schedule = self.policy.on_prefetch_fill(frame, frame_key, target, when)
            if schedule is not None:
                self._arm(schedule)
        self.l1.fill(frame, target, when, prefetched=True)
        if self.generations is not None:
            self.generations.on_fill(frame_key, target, when)
        self.bookkeeper.arrived(pending.frame_key, when, displaced)
        self._prefetch_arrived += 1

    def _drain_events(self) -> None:
        for when, (kind, pending) in self.events.pop_due(self.now):
            if kind == _FIRE:
                self._handle_fire(pending)
            else:
                self._handle_arrival(pending, when)
        if self.policy is not None:
            self._issue_prefetches()

    # -- eviction path ------------------------------------------------------------

    def _evict(self, frame, frame_key: int, incoming_block: int, now: int) -> None:
        """Close the resident generation (with a bank); write back dirty
        data; run victim-cache admission."""
        if frame.dirty:
            # Dirty eviction: the block crosses the L1/L2 bus.  This is
            # occupancy only (write-backs are off the critical path) but
            # it delays demand fills and prefetches behind it.
            self.hierarchy.l1_l2_bus.request(now, self.machine.l1d.block_size)
            self.writebacks += 1
        if self.decay is not None:
            live = frame.live_time()
            self.decay.on_generation_end(live, now - (frame.fill_time + live))
        if self.victim_cache is not None:
            if self.admission.admit(frame, incoming_block, now):
                self.victim_cache.insert(frame.block_addr, now)
                self._victim_penalty_acc += self.victim_insert_quarter_cycles
                if self._victim_penalty_acc >= 4:
                    whole = self._victim_penalty_acc // 4
                    self._victim_penalty_acc -= 4 * whole
                    self.now += self.timing.add_fixed_stall(whole, "victim-fill")
            else:
                self.victim_cache.reject()
        if self.generations is not None:
            self.generations.on_evict(
                frame_key, frame.block_addr, frame.fill_time, frame.live_time(),
                now, hit_count=frame.hit_count,
            )

    # -- warm-up -----------------------------------------------------------------------

    def _reset_stats(self) -> None:
        """Zero every statistic while keeping all microarchitectural state.

        Called at the end of the warm-up period, mirroring the paper's
        methodology of skipping the first billion instructions before
        measuring: caches, tables, shadow structures and in-flight
        requests keep their contents; only the books are cleared.
        """
        self.timing = TimingModel(self.machine.processor, self.ipa)
        self._outcomes = {outcome: 0 for outcome in AccessOutcome}
        self._accesses = 0
        self.writebacks = 0
        self._prefetch_issued = 0
        self._prefetch_arrived = 0
        self._prefetch_useful = 0
        self._prefetch_scheduled = 0
        self._prefetch_fired = 0
        self.l1.reset_stats()
        self.hierarchy.reset_stats()
        self.prefetch_queue.reset_stats()
        self.prefetch_mshrs.reset_stats()
        self.bookkeeper.reset_stats()
        self.classifier.reset_stats()
        if self.victim_cache is not None:
            self.victim_cache.reset_stats()
        table = getattr(self.policy, "table", None)
        if table is not None:
            table.reset_stats()
        if self.decay is not None:
            self.decay.reset_stats()
        if self.collect_metrics:
            self.metrics = TimekeepingMetrics()
            self.generations.set_on_generation(self.metrics.on_generation)

    # -- main loop -------------------------------------------------------------------

    def run(self, trace: Trace, *, warmup: int = 0,
            engine: str = "batch") -> SimulationResult:
        """Simulate *trace* and return the result (one-shot per instance).

        Args:
            warmup: Number of leading accesses to run for state warm-up
                only; statistics are reset after them, so the result
                reflects the remaining accesses against warm caches and
                predictor tables.
            engine: ``"batch"`` (default) uses the vectorized
                batch-dispatch engine when the simulated model allows
                it, falling back to the scalar loop otherwise (the
                reason is recorded in :attr:`batch_fallback`);
                ``"scalar"`` forces the per-access loop, the reference
                the equivalence harness and the differential tests
                compare against.  Both engines produce bitwise-identical
                results.
        """
        if self._finished:
            raise SimulationError("MemorySimulator instances are single-use; create a new one")
        if warmup < 0:
            raise SimulationError(f"warmup must be non-negative, got {warmup}")
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        use_batch = False
        if engine == "batch":
            self.batch_fallback = batch_fallback_reason(self)
            use_batch = self.batch_fallback is None
        self.engine_used = "batch" if use_batch else "scalar"
        # The run allocates heavily (generation records, fetch results,
        # event tuples) but creates no reference cycles, so generational
        # GC passes only add pauses; suspend collection for the run.  A
        # caller that drops the simulator right after (simulate()) holds
        # the suspension through that teardown too: re-enabled here,
        # the collector's next pass would walk the whole finished
        # machine just before refcounting frees it.
        with _gc_suspended():
            if use_batch:
                length = len(trace)
                warmup = min(warmup, length)
                if warmup:
                    consume_batch(self, trace, 0, warmup)
                    self._reset_stats()
                consume_batch(self, trace, warmup, length)
            else:
                rows = trace.rows()
                if warmup:
                    warmup = min(warmup, len(trace))
                    self._consume(_islice(rows, warmup))
                    self._reset_stats()
                self._consume(rows)
        self._finished = True
        # Two counters per run, never per access; a sweep divides
        # ``sim.accesses`` by the cell's ``simulate`` phase for its
        # throughput (repro.obs.tracing.build_sweep_trace).
        telemetry = _telemetry_current()
        if telemetry.enabled:
            telemetry.count("sim.engine_used." + self.engine_used)
            telemetry.count("sim.accesses", len(trace))
        return self._build_result(trace)

    def _consume(self, rows) -> None:
        """Feed (address, pc, kind, gap) rows through the machine.

        The per-access reference loop: every step is one call through
        the public protocol of the part it drives (``probe``/``touch``/
        ``choose_victim``/``fill``, the tracker's ``on_hit``/``on_fill``
        with a bank, ``classify_miss``/``record_access``, ``add_access``/
        ``add_stall``, :meth:`_evict`).  It runs every configuration the
        batch engine does not model, and it is what the batch engine is
        diffed against (tools/equivalence.py).  ``self.now`` is re-read
        after each step that can stall the core, so fills are never
        timestamped before a victim-insert stall.
        """
        l1 = self.l1
        timing = self.timing
        classifier = self.classifier
        metrics = self.metrics
        generations = self.generations
        policy = self.policy
        bookkeeper = self.bookkeeper
        victim_cache = self.victim_cache
        decay = self.decay
        events = self.events
        prefetch_queue = self.prefetch_queue
        outcomes = self._outcomes
        offset_bits = self._offset_bits
        store_kind = int(AccessType.STORE)
        cold = MissClass.COLD
        perfect_non_cold = self.perfect_non_cold

        for address, pc, kind, gap in rows:
            timing.add_access(gap)
            self.now = now = self.now + gap
            if events and events.peek_time() <= now:
                self._drain_events()
                # Draining can fill frames and stall the core
                # (victim-insert swaps); pick up the advanced clock.
                now = self.now
            elif policy is not None and len(prefetch_queue):
                # Not a starvation hazard on drain turns: the elif is
                # safe because _drain_events itself ends with an
                # _issue_prefetches pass, so queued prefetches get an
                # issue opportunity on every access either way (locked
                # in by test_drain_turn_issues_prefetches).
                self._issue_prefetches()
            self._accesses += 1
            block = address >> offset_bits
            store = kind == store_kind

            frame = l1.probe(block)
            if (
                frame is not None
                and decay is not None
                and decay.is_decayed(frame.last_access_time, now)
            ):
                # The line decayed (powered off) before this re-reference:
                # the would-be hit becomes an induced miss.  Close the
                # truncated generation and drop the line; the access then
                # takes the ordinary miss path below.
                decay.on_decayed_hit(frame.fill_time, frame.last_access_time, now)
                if generations is not None:
                    generations.on_evict(
                        frame.frame_key, frame.block_addr, frame.fill_time,
                        frame.live_time(), now, hit_count=frame.hit_count,
                    )
                l1.invalidate_frame(frame)
                frame = None
            if frame is not None:
                frame_key = frame.frame_key
                first_use = frame.prefetched and frame.hit_count == 0
                if generations is not None:
                    metrics.on_access_interval(generations.on_hit(frame_key, now))
                l1.touch(frame, now, store=store)
                classifier.record_access(block)
                outcomes[AccessOutcome.L1_HIT] += 1
                if first_use:
                    self._prefetch_useful += 1
                    bookkeeper.demand_hit_on_prefetched(frame_key, block, now)
                if policy is not None:
                    schedule = policy.on_hit(frame, frame_key, now)
                    if schedule is not None:
                        self._arm(schedule)
                continue

            # ---- miss path ----
            miss_class = classifier.classify_miss(block)
            classifier.record_access(block)
            if metrics is not None and miss_class != cold:
                last = generations.last_generation(block)
                if last is not None:
                    metrics.on_miss_correlation(
                        miss_class, now - last.start, last.dead_time, last.live_time
                    )

            # Latency source.
            if perfect_non_cold and miss_class != cold:
                # Charged as an L1 hit across the board (outcome tally
                # *and* mechanism counters; see the class docstring) —
                # state still takes the fill path, whose l1.fill counts
                # a miss, so balance both counters here.
                outcomes[AccessOutcome.L1_HIT] += 1
                l1.hits += 1
                l1.misses -= 1
            else:
                if victim_cache is not None and victim_cache.probe(block):
                    outcomes[AccessOutcome.VICTIM_HIT] += 1
                    latency = victim_cache.hit_latency
                    category = "l2"
                else:
                    inflight = self.prefetch_mshrs.lookup(block)
                    if inflight is not None and inflight > now:
                        outcomes[AccessOutcome.PREFETCH_HIT] += 1
                        latency = inflight - now
                        self.prefetch_mshrs.release(block)
                        category = "l2"
                    else:
                        fetch = self.hierarchy.fetch(block, now, store=store)
                        latency = fetch.latency
                        if fetch.from_memory:
                            outcomes[AccessOutcome.MEMORY] += 1
                            category = "memory"
                        else:
                            outcomes[AccessOutcome.L2_HIT] += 1
                            category = "l2"
                if latency:
                    self.now = now = self.now + timing.add_stall(latency, category)

            victim_frame = l1.choose_victim(block)
            frame_key = victim_frame.frame_key
            if policy is not None:
                # A pending prefetch only exists via _arm, so without a
                # policy the miss-time resolution would be a no-op.
                bookkeeper.demand_miss(frame_key, block, now)
            if victim_frame.valid:
                self._evict(victim_frame, frame_key, block, now)
                # The victim-insert swap can stall the core; the fill it
                # caused must not be timestamped before that stall.
                now = self.now
            if policy is not None:
                schedule = policy.on_miss(victim_frame, frame_key, block, pc, now)
            else:
                schedule = None
            l1.fill(victim_frame, block, now, store=store)
            if generations is not None:
                generations.on_fill(frame_key, block, now)
            if schedule is not None:
                self._arm(schedule)

    # -- result assembly ---------------------------------------------------------------

    def _build_result(self, trace: Trace) -> SimulationResult:
        l1_hits = self._outcomes[AccessOutcome.L1_HIT]
        l1_misses = self._accesses - l1_hits
        victim_stats = None
        if self.victim_cache is not None:
            vc = self.victim_cache
            victim_stats = VictimStats(
                entries=vc.entries,
                probes=vc.probes,
                hits=vc.hits,
                fills=vc.fills,
                rejected=vc.rejected,
                lru_evictions=vc.lru_evictions,
            )
        prefetch_stats = None
        if self.policy is not None:
            lookups = getattr(self.policy, "table", None)
            prefetch_stats = PrefetchStats(
                scheduled=self._prefetch_scheduled,
                fired=self._prefetch_fired,
                issued=self._prefetch_issued,
                arrived=self._prefetch_arrived,
                useful=self._prefetch_useful,
                discarded=self.prefetch_queue.discarded,
                cancelled=self.bookkeeper.cancelled,
                superseded=self.bookkeeper.superseded,
                mshr_rejections=self.prefetch_mshrs.full_rejections,
                predictor_lookups=lookups.lookups if lookups is not None else 0,
                predictor_hits=lookups.lookup_hits if lookups is not None else 0,
                table_bytes=self.policy.state_bytes(),
                timeliness=self.bookkeeper.counts,
            )
        return SimulationResult(
            name=trace.name,
            accesses=self._accesses,
            l1_hits=l1_hits,
            l1_misses=l1_misses,
            outcomes=dict(self._outcomes),
            timing=self.timing.result(),
            miss_counts=self.classifier.counts,
            victim=victim_stats,
            prefetch=prefetch_stats,
            metrics=self.metrics,
            l2_hits=self.hierarchy.l2_demand_hits,
            l2_misses=self.hierarchy.l2_demand_misses,
            memory_accesses=self.hierarchy.memory_accesses,
            decay=self.decay.stats if self.decay is not None else None,
            writebacks=self.writebacks,
        )


def simulate(
    trace: Trace,
    *,
    machine: Optional[MachineConfig] = None,
    ipa: float = 3.0,
    victim_filter: Optional[str] = None,
    prefetcher: Optional[str] = None,
    collect_metrics: bool = False,
    perfect_non_cold: bool = False,
    prefetch_policy: Optional[PrefetchPolicy] = None,
    warmup: int = 0,
    decay_interval: Optional[int] = None,
) -> SimulationResult:
    """Convenience one-call simulation.

    *prefetcher* may name a built-in policy ('timekeeping', 'dbcp');
    pass *prefetch_policy* instead for a custom or specially-configured
    policy object.  *warmup* leading accesses are simulated for state
    only (statistics reset afterwards), mirroring the paper's skipping
    of the first billion instructions.  *collect_metrics* attaches a
    metric bank to the result, and only a machine with a bank tracks
    generations (``MemorySimulator.generations``).  The simulated model
    picks the dispatch engine (see
    :func:`~repro.sim.batch.batch_fallback_reason`).

    The garbage collector stays off from building the simulator until
    it is freed, and the caller's setting is restored after, also when
    the run raises.  The machine holds no reference cycles, so
    refcounting frees it on the spot; with the collector back on before
    that, its next pass would first walk every object the finished run
    allocated.
    """
    with _gc_suspended():
        simulator = make_simulator(
            machine,
            ipa=ipa,
            victim_filter=victim_filter,
            prefetcher=prefetcher,
            prefetch_policy=prefetch_policy,
            collect_metrics=collect_metrics,
            perfect_non_cold=perfect_non_cold,
            decay_interval=decay_interval,
        )
        result = simulator.run(trace, warmup=warmup)
        del simulator
    return result


def make_simulator(
    machine: Optional[MachineConfig] = None,
    *,
    ipa: float = 3.0,
    victim_filter: Optional[str] = None,
    prefetcher: Optional[str] = None,
    prefetch_policy: Optional[PrefetchPolicy] = None,
    collect_metrics: bool = False,
    perfect_non_cold: bool = False,
    decay_interval: Optional[int] = None,
) -> MemorySimulator:
    """Build a :class:`MemorySimulator` from :func:`simulate`'s options."""
    machine = machine if machine is not None else paper_machine()
    if prefetcher is not None and prefetch_policy is not None:
        raise SimulationError("pass either prefetcher or prefetch_policy, not both")
    if prefetcher is not None:
        prefetch_policy = make_prefetch_policy(prefetcher, machine)
    return MemorySimulator(
        machine,
        ipa=ipa,
        victim_filter=victim_filter,
        prefetch_policy=prefetch_policy,
        collect_metrics=collect_metrics,
        perfect_non_cold=perfect_non_cold,
        decay=DecayPolicy(decay_interval) if decay_interval is not None else None,
    )


def make_prefetch_policy(name: str, machine: MachineConfig) -> PrefetchPolicy:
    """Instantiate a built-in prefetch policy by name."""
    from ..core.prefetch.dbcp import DBCPPrefetchPolicy
    from ..core.prefetch.timekeeping import TimekeepingPrefetchPolicy

    lowered = name.lower()
    if lowered == "timekeeping":
        return TimekeepingPrefetchPolicy(machine.l1d, tick_cycles=machine.tick_cycles)
    if lowered == "dbcp":
        return DBCPPrefetchPolicy(machine.l1d)
    raise SimulationError(f"unknown prefetcher {name!r}")
