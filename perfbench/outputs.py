"""Output checks and simulated statistics for the benchmark.

Everything here reads results the program already produced; nothing is
timed.  Three kinds of numbers come out:

- accounting identities that must hold for every cell, checked from
  outside the simulator (a cell breaking one counts as failed);
- a digest over every cell's serialized result, which a change that
  only makes the simulator faster must leave unchanged;
- the reproduction gap against the paper's published numbers, and the
  modelled components' event counts summed over cells.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Tuple

from repro.analysis import paper_targets
from repro.common.stats import geometric_mean
from repro.sim.results import SimulationResult
from repro.sim.sweep import speedups

#: ``{workload: {config: result}}``, as ``load_suite`` and ``run_sweep`` give it.
Suite = Mapping[str, Mapping[str, SimulationResult]]


def identity_failures(config: str, result: SimulationResult) -> List[str]:
    """The accounting identities *result* breaks (empty when it is sound)."""
    timing = result.timing
    broken = []
    if result.l1_hits + result.l1_misses != result.accesses:
        broken.append("l1_hits + l1_misses == accesses")
    if sum(result.outcomes.values()) != result.accesses:
        broken.append("outcome tallies sum to accesses")
    if timing.cycles != timing.compute_cycles + timing.stall_cycles:
        broken.append("cycles == compute_cycles + stall_cycles")
    if sum(timing.stall_breakdown.values()) != timing.stall_cycles:
        broken.append("stall_breakdown sums to stall_cycles")
    # A perfect L1 turns non-cold misses into hits but still classifies
    # them, so its 3C total exceeds its misses by design.
    if (config != "perfect" and result.miss_counts is not None
            and result.miss_counts.total != result.l1_misses):
        broken.append("3C total == l1_misses")
    if result.victim is not None and result.victim.hits > result.victim.probes:
        broken.append("victim hits <= probes")
    return broken


def check_cells(suite: Suite, expected: Tuple[Tuple[str, str], ...]) -> Dict[str, List[str]]:
    """``{"workload:config": [problem, ...]}`` for every unsound or missing cell."""
    problems: Dict[str, List[str]] = {}
    for workload, config in expected:
        result = suite.get(workload, {}).get(config)
        if result is None:
            problems[f"{workload}:{config}"] = ["no result"]
            continue
        broken = identity_failures(config, result)
        if broken:
            problems[f"{workload}:{config}"] = broken
    return problems


def result_digest(suite: Suite) -> str:
    """sha256 over every cell's ``to_dict(include_metrics=True)``, sorted by cell."""
    h = hashlib.sha256()
    for workload in sorted(suite):
        for config in sorted(suite[workload]):
            record = suite[workload][config].to_dict(include_metrics=True)
            h.update(f"{workload}:{config}:".encode())
            h.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


def err_fig01(suite: Suite) -> float:
    """Mean over stand-ins of |perfect-vs-base IPC gain - Figure 1's value|."""
    gains = speedups(suite, "perfect", "base")
    return sum(abs(gain - paper_targets.FIG1_POTENTIAL[name])
               for name, gain in gains.items()) / len(gains)


#: The reproduction gaps only a full campaign has.
CAMPAIGN_ERRORS = ("err_pf_gain", "err_victim_traffic", "err_dead_lt100", "err_live_lt100")


def campaign_errors(suite: Suite) -> Dict[str, float]:
    """The gaps only a full campaign (victim, prefetch, metric banks) has."""
    tk_gain = geometric_mean(list(speedups(suite, "pf_tk", "base").values()), offset=1.0)
    victim_fills = sum(cfgs["victim"].victim.fills for cfgs in suite.values())
    filtered_fills = sum(cfgs["victim_tk"].victim.fills for cfgs in suite.values())
    metrics = [cfgs["base"].metrics for cfgs in suite.values()]
    dead, live = metrics[0].dead_time, metrics[0].live_time
    for m in metrics[1:]:
        dead, live = dead.merged(m.dead_time), live.merged(m.live_time)
    return {
        "err_pf_gain": abs(tk_gain - paper_targets.OVERALL_PREFETCH_IPC_GAIN),
        "err_victim_traffic": abs((1 - filtered_fills / victim_fills)
                                  - paper_targets.VICTIM_TRAFFIC_REDUCTION),
        "err_dead_lt100": abs(dead.fraction_below(100)
                              - paper_targets.DEAD_TIME_BELOW_100_CYCLES),
        "err_live_lt100": abs(live.fraction_below(100)
                              - paper_targets.LIVE_TIME_BELOW_100_CYCLES),
    }


def component_counts(suite: Suite) -> Dict[str, float]:
    """Simulated event counts of each modelled component, summed over cells."""
    totals = dict.fromkeys((
        "l1.accesses", "l1.misses", "l2.accesses", "l2.misses",
        "memory.accesses", "writebacks", "classify.cold", "classify.conflict",
        "classify.capacity", "victim.probes", "victim.hits", "victim.fills",
        "victim.rejected", "prefetch.issued", "prefetch.useful",
        "prefetch.discarded", "timing.cycles", "timing.stall_cycles",
    ), 0)
    lookups = predictor_hits = 0
    for cfgs in suite.values():
        for r in cfgs.values():
            totals["l1.accesses"] += r.accesses
            totals["l1.misses"] += r.l1_misses
            totals["l2.accesses"] += r.l2_hits + r.l2_misses
            totals["l2.misses"] += r.l2_misses
            totals["memory.accesses"] += r.memory_accesses
            totals["writebacks"] += r.writebacks
            totals["timing.cycles"] += r.timing.cycles
            totals["timing.stall_cycles"] += r.timing.stall_cycles
            if r.miss_counts is not None:
                totals["classify.cold"] += r.miss_counts.cold
                totals["classify.conflict"] += r.miss_counts.conflict
                totals["classify.capacity"] += r.miss_counts.capacity
            if r.victim is not None:
                totals["victim.probes"] += r.victim.probes
                totals["victim.hits"] += r.victim.hits
                totals["victim.fills"] += r.victim.fills
                totals["victim.rejected"] += r.victim.rejected
            if r.prefetch is not None:
                totals["prefetch.issued"] += r.prefetch.issued
                totals["prefetch.useful"] += r.prefetch.useful
                totals["prefetch.discarded"] += r.prefetch.discarded
                lookups += r.prefetch.predictor_lookups
                predictor_hits += r.prefetch.predictor_hits
    out: Dict[str, float] = dict(totals)
    out["victim.hit_ratio"] = _ratio(totals["victim.hits"], totals["victim.fills"])
    out["prefetch.accuracy"] = _ratio(totals["prefetch.useful"], totals["prefetch.issued"])
    out["prefetch.table_hit_ratio"] = _ratio(predictor_hits, lookups)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
