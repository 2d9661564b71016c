"""Differential equivalence harness for the simulator hot path.

The production :class:`~repro.sim.simulator.MemorySimulator` earns its
throughput from an O(1) tag store, inlined method bodies in
``_consume``, and conditionally-skipped event drains.  Each of those is
an opportunity to silently change simulation semantics.  This harness
pins them: it re-implements the L1, the hierarchy fetch path, and the
main loop in the *straightforward* style — linear tag scans, one method
call per event, an unconditional event drain per access — and asserts
that both simulators produce bitwise-identical results over the
workload suite.

The reference deliberately shares the leaf mechanism code (frames,
MSHRs, buses, policies, bookkeeping): the point is to diff the
*restructured* layers against their plain originals, not to re-derive
the whole machine.  It also includes the behavioral bugfixes that
landed with the hot-path overhaul (stale-clock fills after evictions
that stall the core, stale prefetch-arrival MSHR releases, charged
``perfect_non_cold`` misses double-counted in the L1 hit/miss
counters), so a mismatch always means the optimized path drifted.

Each cell is a three-way comparison: the production simulator under
the batch engine, the production simulator under the scalar engine,
and the reference — all pairs must be bitwise-identical.  Cells cover
warmup > 0 and perfect-mode configurations in addition to the
mechanism axes (victim cache under each of the paper's three admission
filters, prefetch, decay).  Every run of a victim-cache cell must also
satisfy the victim accounting invariants
(:func:`victim_invariant_violations`); a violation is reported as one
more diff line of the cell.

Run directly::

    PYTHONPATH=src python tools/equivalence.py [--length N]
        [--workloads a,b,...] [--configs default,victim,...]

Exits non-zero on any mismatch.  The integration suite runs the same
checks via :func:`iter_mismatches` (tests/integration/test_equivalence.py).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.cache.cache import SetAssociativeCache
from repro.cache.hierarchy import FetchResult, MemoryHierarchy
from repro.cache.replacement import LRUPolicy
from repro.common.config import MachineConfig
from repro.common.types import AccessOutcome, AccessType, MissClass
from repro.core.decay import DecayPolicy
from repro.sim.simulator import MemorySimulator, make_prefetch_policy
from repro.traces.workloads import build_workload

#: Named machine configurations the harness sweeps.  Keep in sync with
#: the feature axes of the hot path: victim cache + admission filter,
#: prefetch engine (events/MSHRs/queue), and decay each take different
#: branches through ``_consume``.
CONFIGS: Dict[str, Dict[str, Any]] = {
    "default": {},
    "victim": {"victim_filter": "timekeeping"},
    "victim_unfiltered": {"victim_filter": "unfiltered"},
    "victim_collins": {"victim_filter": "collins"},
    "prefetch": {"prefetcher": "timekeeping"},
    "decay": {"decay_interval": 8192},
    # ``warmup_frac`` is harness-level, not a simulator kwarg: the cell
    # runs with warmup = int(length * frac) extra accesses, exercising
    # the batch engine's deferred-state chaining across run() calls.
    "warmup": {"warmup_frac": 0.33},
    "victim_warmup": {"victim_filter": "timekeeping", "warmup_frac": 0.33},
    "perfect": {"perfect_non_cold": True},
    "perfect_warmup": {"perfect_non_cold": True, "warmup_frac": 0.33},
}

#: Per-cell simulator runs: label, simulator class, dispatch engine.
#: The reference is asked for the batch engine precisely so its
#: ``_batch_capable = False`` opt-out (not the caller) forces the
#: scalar path — a reference that silently ran vectorized would be
#: testing the batch engine against itself.
RUNS = (
    ("batch", None, "batch"),
    ("scalar", None, "scalar"),
    ("reference", "reference", "batch"),
)

#: Label pairs diffed within each cell.
PAIRS = (("batch", "reference"), ("scalar", "reference"), ("batch", "scalar"))

DEFAULT_WORKLOADS = ("gcc", "mcf", "swim", "art")


class ReferenceCache(SetAssociativeCache):
    """L1/L2 with the original linear-scan lookup.

    Overrides every method the production cache accelerated with the
    block->frame tag store, restoring the way-by-way tag compare.  The
    ``_tags``/``_valid_counts`` views are left unmaintained — nothing in
    the reference paths reads them, which is itself part of the test:
    a production code path sneaking into the reference would KeyError
    or return stale residency immediately.
    """

    def __init__(self, config, policy=None) -> None:
        super().__init__(config, policy)
        # Eager materialization: the reference predates lazy sets.
        self._all_sets: List[List] = [
            self._materialize_set(i) for i in range(self.num_sets)
        ]

    def probe(self, block_addr):
        tag = block_addr >> self._index_bits
        for frame in self._all_sets[block_addr & self._set_mask]:
            if frame.valid and frame.tag == tag:
                return frame
        return None

    def choose_victim(self, block_addr):
        frames = self._all_sets[block_addr & self._set_mask]
        for frame in frames:
            if not frame.valid:
                return frame
        return self.policy.choose_victim(frames)

    def fill(self, frame, block_addr, now, *, store=False, prefetched=False,
             lru_insert=False):
        if frame.valid:
            self.evictions += 1
        if not prefetched:
            self.misses += 1
        frame.reset_generation(block_addr, block_addr >> self._index_bits, now,
                               prefetched=prefetched)
        if store:
            frame.dirty = True
        if lru_insert and self.associativity > 1:
            frames = self._all_sets[block_addr & self._set_mask]
            frame.lru_stamp = min(f.lru_stamp for f in frames if f is not frame) - 1
        else:
            self._clock += 1
            frame.lru_stamp = self._clock

    def access(self, block_addr, now, *, store=False, lru_insert=False):
        frame = self.probe(block_addr)
        if frame is not None:
            self.touch(frame, now, store=store)
            return True
        victim = self.choose_victim(block_addr)
        self.fill(victim, block_addr, now, store=store, lru_insert=lru_insert)
        return False

    def invalidate(self, block_addr):
        frame = self.probe(block_addr)
        if frame is not None:
            self.invalidate_frame(frame)
        return frame

    def invalidate_frame(self, frame) -> None:
        if frame.valid:
            frame.valid = False
            frame.block_addr = -1


class ReferenceHierarchy(MemoryHierarchy):
    """Hierarchy with a :class:`ReferenceCache` L2 and the original
    method-calling ``fetch``."""

    def __init__(self, machine: MachineConfig, *, demand_shadow: int = 2) -> None:
        super().__init__(machine, demand_shadow=demand_shadow)
        self.l2 = ReferenceCache(machine.l2, LRUPolicy())

    def fetch(self, l1_block_addr, now, *, prefetch=False, store=False):
        l2_block_addr = l1_block_addr >> self._l2_shift
        l2_ready = now + self._l2_hit_latency
        hit = self.l2.access(l2_block_addr, now, store=store, lru_insert=prefetch)
        if hit:
            if prefetch:
                self.l2_prefetch_hits += 1
            else:
                self.l2_demand_hits += 1
            data_at = l2_ready
        else:
            if prefetch:
                self.l2_prefetch_misses += 1
            else:
                self.l2_demand_misses += 1
            self.memory_accesses += 1
            mem_done = self.memory_bus.request(l2_ready, self._l2_block,
                                               prefetch=prefetch)
            data_at = mem_done + self._memory_latency
        end = self.l1_l2_bus.request(data_at, self._l1_block, prefetch=prefetch)
        return FetchResult(completes_at=end, latency=end - now, from_memory=not hit)


class ReferenceSimulator(MemorySimulator):
    """Simulator with the plain, call-everything main loop.

    Every access drains the event queue, issues prefetches, and goes
    through the public protocol (``probe``/``touch``/``choose_victim``/
    ``fill``, ``classify_miss``/``record_access``, ``on_hit``/
    ``on_fill``/``on_evict``, ``add_access``/``add_stall``) one call at
    a time.  Reads ``self.now`` after every step that can stall the
    core, so the stale-clock bugfixes are part of the reference
    semantics.
    """

    #: The batch engine indexes the production tag store directly; this
    #: subclass changes lookup behavior, so it must opt out (see
    #: ``MemorySimulator._batch_capable``).  ``run(engine="batch")``
    #: then records a fallback and takes the scalar loop above.
    _batch_capable = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.l1 = ReferenceCache(self.machine.l1d)
        self.hierarchy = ReferenceHierarchy(self.machine)

    def _consume(self, rows) -> None:
        l1 = self.l1
        timing = self.timing
        classifier = self.classifier
        metrics = self.metrics
        generations = self.generations
        policy = self.policy
        bookkeeper = self.bookkeeper
        victim_cache = self.victim_cache
        decay = self.decay
        offset_bits = self._offset_bits
        assoc = self._assoc
        store_kind = int(AccessType.STORE)
        cold = MissClass.COLD
        perfect_non_cold = self.perfect_non_cold
        wants_all = policy is not None and policy.wants_all_accesses

        for address, pc, kind, gap in rows:
            timing.add_access(gap)
            self.now += gap
            self._drain_events()
            now = self.now
            self._accesses += 1
            block = address >> offset_bits
            store = kind == store_kind

            if wants_all:
                schedule = policy.on_access(address, pc, now)
                if schedule is not None:
                    self._arm(schedule)

            frame = l1.probe(block)
            if (
                frame is not None
                and decay is not None
                and decay.is_decayed(frame.last_access_time, now)
            ):
                decay.on_decayed_hit(frame.fill_time, frame.last_access_time, now)
                generations.on_evict(
                    frame.set_index * assoc + frame.way,
                    frame.block_addr,
                    frame.fill_time,
                    frame.live_time(),
                    now,
                    hit_count=frame.hit_count,
                )
                l1.invalidate_frame(frame)
                frame = None
            if frame is not None:
                frame_key = frame.set_index * assoc + frame.way
                first_use = frame.prefetched and frame.hit_count == 0
                interval = generations.on_hit(frame_key, now)
                if metrics is not None:
                    metrics.on_access_interval(interval)
                l1.touch(frame, now, store=store)
                if classifier is not None:
                    classifier.record_access(block)
                self._outcomes[AccessOutcome.L1_HIT] += 1
                if first_use:
                    self._prefetch_useful += 1
                    bookkeeper.demand_hit_on_prefetched(frame_key, block, now)
                if policy is not None:
                    schedule = policy.on_hit(frame, frame_key, now)
                    if schedule is not None:
                        self._arm(schedule)
                continue

            miss_class = None
            if classifier is not None:
                miss_class = classifier.classify_miss(block)
                classifier.record_access(block)
            if metrics is not None and miss_class is not None and miss_class != cold:
                last = generations.last_generation(block)
                if last is not None:
                    metrics.on_miss_correlation(
                        miss_class, now - last.start, last.dead_time, last.live_time
                    )

            if perfect_non_cold and miss_class != cold:
                # Charged as an L1 hit in the outcome tally *and* the
                # mechanism counters; the fill below still bumps
                # l1.misses, so balance both counters here.
                self._outcomes[AccessOutcome.L1_HIT] += 1
                l1.hits += 1
                l1.misses -= 1
                latency = 0
            else:
                if victim_cache is not None and victim_cache.probe(block):
                    self._outcomes[AccessOutcome.VICTIM_HIT] += 1
                    latency = victim_cache.hit_latency
                    category = "l2"
                else:
                    inflight = self.prefetch_mshrs.lookup(block)
                    if inflight is not None and inflight > now:
                        self._outcomes[AccessOutcome.PREFETCH_HIT] += 1
                        latency = inflight - now
                        self.prefetch_mshrs.release(block)
                        category = "l2"
                    else:
                        fetch = self.hierarchy.fetch(block, now, store=store)
                        latency = fetch.latency
                        if fetch.from_memory:
                            self._outcomes[AccessOutcome.MEMORY] += 1
                            category = "memory"
                        else:
                            self._outcomes[AccessOutcome.L2_HIT] += 1
                            category = "l2"
                if latency:
                    self.now += timing.add_stall(latency, category)
                    now = self.now

            victim_frame = l1.choose_victim(block)
            frame_key = victim_frame.set_index * assoc + victim_frame.way
            if policy is not None:
                bookkeeper.demand_miss(frame_key, block, now)
            if victim_frame.valid:
                self._evict(victim_frame, frame_key, block, now)
                # Victim-insert swaps stall the core; the fill must not
                # be timestamped before that stall.
                now = self.now
            if policy is not None:
                schedule = policy.on_miss(victim_frame, frame_key, block, pc, now)
            else:
                schedule = None
            l1.fill(victim_frame, block, now, store=store)
            generations.on_fill(frame_key, block, now)
            if schedule is not None:
                self._arm(schedule)


def _build_simulator(cls, config: Dict[str, Any]) -> MemorySimulator:
    """Instantiate *cls* for one named configuration.

    Prefetch policies and decay objects are stateful, so each simulator
    gets its own instances.
    """
    kwargs = dict(config)
    prefetcher = kwargs.pop("prefetcher", None)
    decay_interval = kwargs.pop("decay_interval", None)
    sim = cls(
        ipa=kwargs.pop("ipa", 3.0),
        collect_metrics=kwargs.pop("collect_metrics", True),
        prefetch_policy=(
            make_prefetch_policy(prefetcher, MemorySimulator().machine)
            if prefetcher is not None
            else None
        ),
        decay=DecayPolicy(decay_interval) if decay_interval is not None else None,
        **kwargs,
    )
    return sim


def metrics_digest(sim: MemorySimulator) -> Optional[Dict[str, Any]]:
    """Collapse the (non-serialized) metrics object into a comparable dict.

    ``SimulationResult.to_dict`` drops metrics by design, but the
    inlined histogram updates in the hot loop are exactly the kind of
    code this harness exists to check — so compare them explicitly.
    """
    m = sim.metrics
    if m is None:
        return None
    def hist(h):
        return {"counts": list(h.counts), "overflow": h.overflow,
                "total": h.total, "sum": h._sum}
    return {
        "live_time": hist(m.live_time),
        "dead_time": hist(m.dead_time),
        "access_interval": hist(m.access_interval),
        "reload_interval": hist(m.reload_interval),
        "total_generations": m.total_generations,
        "zero_live_generations": m.zero_live_generations,
        "miss_correlations": len(m.miss_correlations),
        "live_time_pairs": len(m.live_time_pairs),
    }


def victim_invariant_violations(sim: MemorySimulator, result) -> List[str]:
    """Victim-cache accounting identities that *result* breaks.

    Admissions and rejections partition the L1 evictions (so
    admissions never exceed evictions), every L1 miss probes the
    buffer once, its hits are exactly the victim-hit outcomes, and it
    can only LRU-evict blocks it admitted.  Empty for runs without a
    victim cache.
    """
    v = result.victim
    if v is None:
        return []
    evictions = sim.l1.evictions
    victim_hits = result.outcomes[AccessOutcome.VICTIM_HIT]
    checks = (
        (v.fills + v.rejected == evictions,
         f"victim.fills + victim.rejected == l1.evictions "
         f"({v.fills} + {v.rejected} vs {evictions})"),
        (v.hits <= v.probes,
         f"victim.hits <= victim.probes ({v.hits} vs {v.probes})"),
        (v.probes == result.l1_misses,
         f"victim.probes == l1_misses ({v.probes} vs {result.l1_misses})"),
        (victim_hits == v.hits,
         f"outcomes[VICTIM_HIT] == victim.hits ({victim_hits} vs {v.hits})"),
        (v.lru_evictions <= v.fills,
         f"victim.lru_evictions <= victim.fills ({v.lru_evictions} vs {v.fills})"),
    )
    return [text for holds, text in checks if not holds]


def run_cell(workload: str, length: int, config_name: str) -> Dict[str, Dict]:
    """Run every simulator variant on one (workload, config) cell.

    Returns ``{label: comparable_dict}`` for the labels in :data:`RUNS`
    — production/batch, production/scalar, and the reference — where
    each comparable dict is the result ``to_dict``, the metrics digest
    and the run's victim accounting violations.  A ``warmup_frac``
    entry in the config adds that fraction of *length* as extra
    leading accesses consumed as warmup.
    """
    config = dict(CONFIGS[config_name])
    warmup = int(length * config.pop("warmup_frac", 0.0))
    trace = build_workload(workload, length=length + warmup)
    out: Dict[str, Dict] = {}
    for label, which, engine in RUNS:
        cls = ReferenceSimulator if which == "reference" else MemorySimulator
        sim = _build_simulator(cls, config)
        result = sim.run(trace, warmup=warmup, engine=engine)
        if which == "reference" and sim.engine_used != "scalar":
            raise AssertionError(
                "reference simulator must opt out of the batch engine"
            )
        out[label] = {
            "result": result.to_dict(),
            "metrics": metrics_digest(sim),
            "invariant_violations": victim_invariant_violations(sim, result),
        }
    return out


def run_pair(workload: str, length: int, config_name: str) -> Tuple[Dict, Dict]:
    """Back-compat wrapper: the production/batch and reference dicts."""
    cell = run_cell(workload, length, config_name)
    return cell["batch"], cell["reference"]


def _diff_keys(fast: Dict, ref: Dict, prefix: str = "",
               labels: Tuple[str, str] = ("fast", "reference")) -> Iterator[str]:
    """Yield dotted paths where the two dicts differ."""
    for key in sorted(set(fast) | set(ref)):
        path = f"{prefix}{key}"
        a, b = fast.get(key), ref.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            yield from _diff_keys(a, b, prefix=f"{path}.", labels=labels)
        elif a != b:
            yield f"{path}: {labels[0]}={a!r} {labels[1]}={b!r}"


def cell_diffs(cell: Dict[str, Dict]) -> List[str]:
    """Diff lines across every label pair of one :func:`run_cell` output,
    plus one line per accounting invariant a run violated."""
    lines: List[str] = []
    for label, _, _ in RUNS:
        for violation in cell[label]["invariant_violations"]:
            lines.append(f"[{label}] invariant violated: {violation}")
    for a, b in PAIRS:
        for line in _diff_keys(cell[a], cell[b], labels=(a, b)):
            lines.append(f"[{a} vs {b}] {line}")
    return lines


def iter_mismatches(
    workloads, length: int, config_names
) -> Iterator[Tuple[str, str, List[str]]]:
    """Yield (workload, config, diff-lines) for every mismatching cell."""
    for name in workloads:
        for config_name in config_names:
            diffs = cell_diffs(run_cell(name, length, config_name))
            if diffs:
                yield name, config_name, diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=20_000,
                        help="accesses per workload (default 20000)")
    parser.add_argument("--workloads", default=",".join(DEFAULT_WORKLOADS),
                        help="comma-separated workload names")
    parser.add_argument("--configs", default=",".join(CONFIGS),
                        help=f"comma-separated subset of: {', '.join(CONFIGS)}")
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    config_names = [c for c in args.configs.split(",") if c]
    unknown = [c for c in config_names if c not in CONFIGS]
    if unknown:
        parser.error(f"unknown configs: {', '.join(unknown)}")

    failures = 0
    cells = 0
    for name in workloads:
        for config_name in config_names:
            cells += 1
            diffs = cell_diffs(run_cell(name, args.length, config_name))
            if diffs:
                failures += 1
                print(f"MISMATCH {name}/{config_name}:")
                for line in diffs[:20]:
                    print(f"  {line}")
            else:
                print(f"ok {name}/{config_name}")
    if failures:
        print(f"{failures}/{cells} cells mismatched")
        return 1
    print(f"all {cells} cells bitwise-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
