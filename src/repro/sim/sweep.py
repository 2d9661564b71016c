"""Suite runners and parameter sweeps.

The benchmark harness runs the same workload under several machine or
mechanism configurations (base / victim variants / prefetch variants /
perfect cache) and compares IPC.  These helpers build each trace once
and run every configuration over it.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Mapping, Optional, Sequence, Union

from ..common.config import MachineConfig
from ..common.errors import SimulationError
from ..traces.cache import TraceCache, resolve_cache
from ..traces.workloads import get_workload
from .results import SimulationResult
from .runner import check_length_warmup, run_sweep, simulate_config, sweep_warmup
from .store import RunStore

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
    machine: Optional[MachineConfig] = None,
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
            trace, config, ipa=spec.ipa, warmup=warmup, machine=machine,
        )
        for config_name, config in configs.items()
    }


def run_suite(
    configs: Mapping[str, SimConfig],
    *,
    workloads: Optional[Sequence[str]] = None,
    length: int = 100_000,
    seed: int = 0,
    machine: Optional[MachineConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
    warmup: Optional[int] = None,
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    hang_grace: Optional[float] = None,
    max_failure_rate: Optional[float] = None,
    store: Optional[Union[RunStore, str, "os.PathLike[str]"]] = None,
    resume: bool = False,
    retry_poisoned: bool = False,
    trace_cache: Union[bool, str, "os.PathLike[str]", TraceCache, None] = True,
) -> Dict[str, Dict[str, SimulationResult]]:
    """Run many workloads under many configurations.

    Returns ``{workload: {config_name: result}}`` in workload order.

    Every cell runs through :func:`repro.sim.runner.run_sweep` — with
    the default keyword arguments serially in-process — and these
    fault-tolerance options pass straight through:

    - ``workers``: execute cells on that many worker processes;
    - ``timeout``: per-cell wall-clock budget in seconds (a cell over
      budget is killed and recorded);
    - ``retries``: re-attempt transiently-failed cells with backoff;
    - ``hang_grace``: supervise worker heartbeats and recycle workers
      that stop beating for this many seconds;
    - ``max_failure_rate``: circuit breaker — abort cleanly when more
      than this fraction of cells fail;
    - ``store`` / ``resume``: checkpoint cells to a JSONL file and
      replay completed ones on a re-run (``retry_poisoned`` re-executes
      stored failures instead of quarantining them).

    ``trace_cache`` (default on) shares one content-addressed, on-disk
    materialization of each workload trace across configurations,
    worker processes, retries, and repeated sweeps; pass ``False`` to
    synthesize each workload's trace in memory instead, once per
    process (the serial loop, or each pool worker) for all of that
    workload's configurations and retries.

    Every cell still runs when some cells fail, and the failures are
    then raised as one :class:`SimulationError` (after checkpointing).
    Use ``run_sweep`` directly to get partial results plus structured
    failures without the raise.
    """
    cell_progress = None
    if progress is not None:
        seen: set = set()

        def cell_progress(workload: str, _config: str) -> None:
            if workload not in seen:
                seen.add(workload)
                progress(workload)

    report = run_sweep(
        configs,
        workloads=workloads,
        length=length,
        seed=seed,
        machine=machine,
        warmup=warmup,
        progress=cell_progress,
        workers=workers,
        timeout=timeout,
        retries=retries,
        hang_grace=hang_grace,
        max_failure_rate=max_failure_rate,
        store=store,
        resume=resume,
        retry_poisoned=retry_poisoned,
        trace_cache=trace_cache,
    )
    report.raise_on_failure()
    return report.results


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
