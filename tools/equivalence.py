"""Differential equivalence harness for the simulator's fast paths.

The production :class:`~repro.sim.simulator.MemorySimulator` has two
dispatch engines: the vectorized batch engine, and the plain per-access
scalar loop (``_consume``) that makes one public-method call per step.
Both read the caches through an O(1) block->frame tag store, lazily
materialized sets and per-set valid counts.  Each of those fast paths
is an opportunity to silently change simulation semantics.  This
harness pins them.

Each cell is a three-way comparison of the result and the full machine
state each run leaves behind (:func:`state_digest`), and all pairs
must be bitwise-identical:

- ``batch``: the production caches under the batch engine;
- ``scalar``: the production caches under the scalar loop;
- ``reference``: :class:`ReferenceCache` L1 and L2 (linear tag scans,
  eagerly built sets, no valid counts) under the same scalar loop.

Batch vs scalar pins the batch engine against the plain loop; scalar
vs reference pins the tag store, lazy sets and valid counts, which the
batch engine reads too.  The reference shares everything else (frames,
MSHRs, buses, policies, bookkeeping): the point is to diff the fast
layers against their plain originals, not to re-derive the machine.

Cells cover warmup > 0 and perfect-mode configurations in addition to
the mechanism axes: victim cache under each of the paper's three
admission filters and the adaptive one, the timekeeping and DBCP
prefetchers, decay, and a 2-way L1.  A config runs with a metric bank
unless it says ``collect_metrics: False``; the ``_nobank`` configs
cover the branches of both engines that track no generation.  Every
run must also satisfy the accounting identities of
:func:`accounting_violations`; a violation is reported as one more
diff line of the cell.

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
from repro.cache.hierarchy import MemoryHierarchy
from repro.common.config import MachineConfig, paper_machine
from repro.common.types import AccessOutcome
from repro.core.decay import DecayPolicy
from repro.sim.simulator import MemorySimulator, make_prefetch_policy
from repro.traces.trace import Trace
from repro.traces.workloads import build_workload

#: Named machine configurations the harness sweeps.  Keep in sync with
#: the feature axes of the simulator: victim cache + admission filter,
#: prefetch engine (events/MSHRs/queue), decay and L1 geometry each take
#: different branches through both engines (or send a cell to the scalar
#: loop; see :func:`~repro.sim.batch.batch_fallback_reason`).
CONFIGS: Dict[str, Dict[str, Any]] = {
    "default": {},
    "victim": {"victim_filter": "timekeeping"},
    "victim_unfiltered": {"victim_filter": "unfiltered"},
    "victim_collins": {"victim_filter": "collins"},
    "prefetch": {"prefetcher": "timekeeping"},
    "prefetch_dbcp": {"prefetcher": "dbcp"},
    "victim_adaptive": {"victim_filter": "adaptive"},
    "decay": {"decay_interval": 8192},
    # Associative sets are where the tag store, the valid counts and the
    # LRU victim choice differ most from a linear scan.
    "l1_2way": {"machine": paper_machine().with_l1d(associativity=2)},
    # ``warmup_frac`` is harness-level, not a simulator kwarg: the cell
    # runs with warmup = int(length * frac) extra accesses, exercising
    # the batch engine's deferred-state chaining across run() calls
    # (and, with a prefetcher, the events, queue, MSHRs and pending
    # predictions the warm-up boundary leaves behind).
    "warmup": {"warmup_frac": 0.33},
    "victim_warmup": {"victim_filter": "timekeeping", "warmup_frac": 0.33},
    "prefetch_warmup": {"prefetcher": "timekeeping", "warmup_frac": 0.33},
    "prefetch_dbcp_warmup": {"prefetcher": "dbcp", "warmup_frac": 0.33},
    "perfect": {"perfect_non_cold": True},
    "perfect_warmup": {"perfect_non_cold": True, "warmup_frac": 0.33},
    # Without a metric bank a machine tracks no generation, so each
    # branch that drops the tracker runs once bank-less: the base
    # recurrence, the timekeeping victim filter, perfect mode, each
    # prefetcher, and the scalar loop's decayed-hit close.
    "warmup_nobank": {"warmup_frac": 0.33, "collect_metrics": False},
    "victim_warmup_nobank": {
        "victim_filter": "timekeeping", "warmup_frac": 0.33, "collect_metrics": False,
    },
    "perfect_warmup_nobank": {
        "perfect_non_cold": True, "warmup_frac": 0.33, "collect_metrics": False,
    },
    "prefetch_warmup_nobank": {
        "prefetcher": "timekeeping", "warmup_frac": 0.33, "collect_metrics": False,
    },
    "prefetch_dbcp_warmup_nobank": {
        "prefetcher": "dbcp", "warmup_frac": 0.33, "collect_metrics": False,
    },
    "decay_nobank": {"decay_interval": 8192, "collect_metrics": False},
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
    block->frame tag store, lazy sets or valid counts, restoring the
    way-by-way tag compare and LRU pick over eagerly built sets;
    ``access`` and ``invalidate`` reach these through ``probe``.  The
    ``_tags``/``_valid_counts`` views are left unmaintained — nothing in
    the reference paths reads them, which is itself part of the test:
    a production code path sneaking into the reference would KeyError
    or return stale residency immediately.
    """

    def __init__(self, config) -> None:
        super().__init__(config)
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
        victim = frames[0]
        for frame in frames:
            if frame.lru_stamp < victim.lru_stamp:
                victim = frame
        return victim

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

    def invalidate_frame(self, frame) -> None:
        if frame.valid:
            frame.valid = False
            frame.block_addr = -1


class ReferenceHierarchy(MemoryHierarchy):
    """Hierarchy with a :class:`ReferenceCache` L2.

    The production ``fetch`` reaches the L2 only through its public
    ``access``, so it runs unchanged on the linear-scan cache.
    """

    def __init__(self, machine: MachineConfig, *, demand_shadow: int = 2) -> None:
        super().__init__(machine, demand_shadow=demand_shadow)
        self.l2 = ReferenceCache(machine.l2)


class ReferenceSimulator(MemorySimulator):
    """The production scalar loop over :class:`ReferenceCache` caches.

    Only the caches differ: the loop, the hierarchy's ``fetch`` and
    every mechanism are the production code, so a scalar-vs-reference
    mismatch always points at the tag store, lazy sets or valid counts.
    """

    #: The batch engine indexes the production tag store directly; this
    #: subclass changes lookup behavior, so it must opt out (see
    #: ``MemorySimulator._batch_capable``).  ``run(engine="batch")``
    #: then records a fallback and takes the scalar loop.
    _batch_capable = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.l1 = ReferenceCache(self.machine.l1d)
        self.hierarchy = ReferenceHierarchy(self.machine)


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
            make_prefetch_policy(prefetcher, kwargs.get("machine", paper_machine()))
            if prefetcher is not None
            else None
        ),
        decay=DecayPolicy(decay_interval) if decay_interval is not None else None,
        **kwargs,
    )
    return sim


def state_digest(sim: MemorySimulator) -> Dict[str, Any]:
    """Collapse everything an engine can leave behind into a comparable dict.

    ``SimulationResult.to_dict`` drops the metric banks and most machine
    state by design, yet an engine that leaves a different L2, victim
    buffer, bus or stall-breakdown order behind changes every later run
    on that simulator (the warm-up boundary is one).  So the digest
    covers the L1 and L2 frame fields (reading the frames thaws a
    deferred L2), the victim buffer in LRU order with its fractional
    fill penalty, the clock, both caches' counters and LRU clocks, the
    breakdown's key order, the closed and open generations (None for a
    machine without a metric bank, which tracks none), the prefetch
    engine (bookkeeper, queue, MSHRs, events, tables) with both buses,
    and the metric banks.
    """
    l1, l2 = sim.l1, sim.hierarchy.l2
    frames = {}
    for tag, cache in (("l1", l1), ("l2", l2)):
        for f in cache.frames():
            if f.valid:
                frames[tag, f.set_index, f.way] = (
                    f.block_addr, f.dirty, f.lru_stamp, f.fill_time,
                    f.last_access_time, f.hit_count, f.lt_register,
                    f.prev_tag, f.prefetched, f.prefetch_used,
                )
    victim = sim.victim_cache
    tracker = sim.generations
    bookkeeper = sim.bookkeeper
    policy = sim.policy
    table = getattr(policy, "table", None)
    hierarchy = sim.hierarchy
    return {
        "frames": frames,
        "victim_contents": (
            None if victim is None else list(victim._blocks.items())
        ),
        "victim_penalty_acc": sim._victim_penalty_acc,
        "now": sim.now,
        "l1": (l1.hits, l1.misses, l1.evictions, l1._clock),
        "l2": (l2.hits, l2.misses, l2.evictions, l2._clock),
        "stall_breakdown_keys": list(sim.timing._breakdown),
        "closed_generations": None if tracker is None else tracker.closed_generations,
        "open_generations": None if tracker is None else (
            dict(tracker._open_last), dict(tracker._open_max)
        ),
        "prefetch": {
            "pending": {
                key: (
                    p.target_block, p.state, p.armed_at, p.fire_at,
                    p.issued_at, p.arrived_at, p.displaced_block, p.early,
                )
                for key, p in bookkeeper._pending.items()
            },
            "displaced": dict(bookkeeper._displaced),
            "queue": [
                (p.frame_key, p.target_block, p.state)
                for p in sim.prefetch_queue._queue
            ],
            "mshrs": dict(sim.prefetch_mshrs._inflight),
            "events": sorted(
                (when, order, kind, pending.frame_key)
                for when, order, (kind, pending) in sim.events._heap
            ),
            "table": None if table is None else (
                {
                    index: [(key, tuple(entry)) for key, entry in entries.items()]
                    for index, entries in table._sets.items()
                },
                table.lookups, table.lookup_hits, table.updates,
            ),
            "dbcp_frames": {
                key: (st.signature, st.predicted_block, st.death_hits,
                      st.armed, st.last_pc)
                for key, st in getattr(policy, "_frames", {}).items()
            },
            "dbcp_prev_hits": dict(getattr(policy, "_prev_hits", {})),
            "buses": [
                (bus.free_at, bus.last_demand_end, bus.demand_transfers,
                 bus.prefetch_transfers, bus.demand_wait_cycles,
                 bus.prefetch_wait_cycles)
                for bus in (hierarchy.l1_l2_bus, hierarchy.memory_bus)
            ],
            "l2_prefetch": (
                hierarchy.l2_prefetch_hits, hierarchy.l2_prefetch_misses
            ),
        },
        "metrics": sim.metrics.to_dict() if sim.metrics is not None else None,
    }


def accounting_violations(sim: MemorySimulator, result) -> List[str]:
    """Accounting identities that *result* breaks, victim ones included.

    Hits and misses partition the L1 accesses, and so do the outcome
    tallies; cycles are compute plus stall cycles, and the stall
    breakdown sums to the stall cycles.  The 3C classes partition the
    L1 misses, except under ``perfect_non_cold``, which classifies the
    non-cold misses it then charges as hits.
    """
    timing = result.timing
    outcomes = sum(result.outcomes.values())
    stalls = sum(timing.stall_breakdown.values())
    checks = [
        (result.l1_hits + result.l1_misses == result.accesses,
         f"l1_hits + l1_misses == accesses "
         f"({result.l1_hits} + {result.l1_misses} vs {result.accesses})"),
        (outcomes == result.accesses,
         f"sum(outcomes) == accesses ({outcomes} vs {result.accesses})"),
        (timing.cycles == timing.compute_cycles + timing.stall_cycles,
         f"timing.cycles == compute_cycles + stall_cycles "
         f"({timing.cycles} vs {timing.compute_cycles} + {timing.stall_cycles})"),
        (stalls == timing.stall_cycles,
         f"sum(stall_breakdown) == stall_cycles ({stalls} vs {timing.stall_cycles})"),
    ]
    if result.miss_counts is not None and not sim.perfect_non_cold:
        checks.append(
            (result.miss_counts.total == result.l1_misses,
             f"3C total == l1_misses ({result.miss_counts.total} vs {result.l1_misses})"))
    return ([text for holds, text in checks if not holds]
            + victim_invariant_violations(sim, result))


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


def run_cell(workload: str, length: int, config_name: str,
             traces: Optional[Dict[Tuple[str, int], Trace]] = None) -> Dict[str, Dict]:
    """Run every simulator variant on one (workload, config) cell.

    Returns ``{label: comparable_dict}`` for the labels in :data:`RUNS`
    — production/batch, production/scalar, and the reference — where
    each comparable dict is the result ``to_dict``, the full machine
    state (:func:`state_digest`) and the run's accounting violations.
    A ``warmup_frac`` entry in the config adds that fraction of
    *length* as extra leading accesses consumed as warmup.

    *traces* maps (workload, total length) to a trace already built;
    the cell reuses it, or builds and adds its own.  Cells sharing one
    trace object share its memoized 3C shadow replay, so every batch
    run after the first on a trace reads a replay another config made.
    """
    config = dict(CONFIGS[config_name])
    warmup = int(length * config.pop("warmup_frac", 0.0))
    traces = {} if traces is None else traces
    key = (workload, length + warmup)
    trace = traces.get(key)
    if trace is None:
        trace = traces[key] = build_workload(workload, length=length + warmup)
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
            "state": state_digest(sim),
            "invariant_violations": accounting_violations(sim, result),
        }
    return out


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
    """Yield (workload, config, diff-lines) for every mismatching cell.

    Each distinct trace is built once and shared by every config run on
    it (see :func:`run_cell`).
    """
    for name in workloads:
        traces: Dict[Tuple[str, int], Trace] = {}
        for config_name in config_names:
            diffs = cell_diffs(run_cell(name, length, config_name, traces))
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
        traces: Dict[Tuple[str, int], Trace] = {}
        for config_name in config_names:
            cells += 1
            diffs = cell_diffs(run_cell(name, args.length, config_name, traces))
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
