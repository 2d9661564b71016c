"""Small in-process campaigns: one workload under many configurations.

The benchmark harness runs the same workload under several machine or
mechanism configurations (base / victim variants / prefetch variants /
perfect cache) and compares IPC.  :func:`run_workload` builds the trace
once and runs every configuration over it; many workloads go through
:func:`repro.sim.runner.run_sweep`, whose ``raise_on_failure()`` and
``results`` give the plain ``{workload: {config_name: result}}`` suite
that :func:`speedups` reads.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping, Optional, Union

from ..common.errors import SimulationError
from ..traces.cache import TraceCache, resolve_cache
from ..traces.workloads import get_workload
from .results import SimulationResult
from .runner import check_length_warmup, simulate_config, sweep_warmup

#: A configuration is a dict of keyword arguments for :func:`simulate`
#: (e.g. ``{"victim_filter": "timekeeping"}``).
SimConfig = Mapping[str, object]

#: Named configuration presets accepted by ``repro sweep``/``compare``
#: (:data:`repro.figures.registry.CONFIGS` selects the paper's seven).
CONFIG_PRESETS: Dict[str, Dict[str, object]] = {
    "base": {},
    "perfect": {"perfect_non_cold": True},
    "victim": {"victim_filter": "unfiltered"},
    "victim_collins": {"victim_filter": "collins"},
    "victim_tk": {"victim_filter": "timekeeping"},
    "victim_adaptive": {"victim_filter": "adaptive"},
    "pf_tk": {"prefetcher": "timekeeping"},
    "pf_dbcp": {"prefetcher": "dbcp"},
}


def run_workload(
    name: str,
    configs: Mapping[str, SimConfig],
    *,
    length: int = 100_000,
    seed: int = 0,
    warmup: Optional[int] = None,
    trace_cache: Union[bool, str, "os.PathLike[str]", TraceCache, None] = False,
) -> Dict[str, SimulationResult]:
    """Run one SPEC2000 stand-in under every named configuration.

    Returns ``{config_name: result}``.  The trace is materialized once;
    the workload's instructions-per-access ratio feeds the IPC model.
    *warmup* defaults to a third of *length* (statistics measure the
    warm remainder, as in the paper's skip-then-measure methodology;
    see :func:`~repro.sim.runner.sweep_warmup`).
    *trace_cache* optionally serves the trace from (and persists it to)
    a content-addressed cache — ``True`` for the default root, a path or
    :class:`TraceCache` for a specific one.
    """
    check_length_warmup(length, warmup)
    spec = get_workload(name)
    warmup = sweep_warmup(length, warmup)
    cache = resolve_cache(trace_cache)
    if cache is not None:
        trace = cache.get_or_build(name, length + warmup, seed)
    else:
        trace = spec.build(length=length + warmup, seed=seed)
    return {
        config_name: simulate_config(
            trace, config, ipa=spec.ipa, warmup=warmup,
        )
        for config_name, config in configs.items()
    }


def speedups(
    suite_results: Mapping[str, Mapping[str, SimulationResult]],
    config: str,
    baseline: str = "base",
) -> Dict[str, float]:
    """Per-workload relative IPC improvement of *config* over *baseline*.

    Raises :class:`SimulationError` (naming the configurations that are
    present) if *config* or *baseline* is missing for some workload —
    e.g. a cell that failed in a fault-tolerant sweep.
    """
    out: Dict[str, float] = {}
    for workload, results in suite_results.items():
        missing = [name for name in (config, baseline) if name not in results]
        if missing:
            available = ", ".join(sorted(results)) or "none"
            raise SimulationError(
                f"no {' or '.join(repr(m) for m in missing)} result for workload "
                f"{workload!r}; available configs: {available}"
            )
        out[workload] = results[config].speedup_over(results[baseline])
    return out
