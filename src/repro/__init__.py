"""repro — reproduction of "Timekeeping in the Memory System" (ISCA 2002).

Quickstart::

    from repro import build_workload, simulate

    trace = build_workload("swim", length=50_000)
    base = simulate(trace, collect_metrics=True)
    fast = simulate(trace, prefetcher="timekeeping")
    print(base.summary())
    print(f"timekeeping prefetch speedup: {fast.speedup_over(base):+.1%}")

Package layout:

- :mod:`repro.common` — machine configuration (paper Table 1), types,
  histograms/statistics;
- :mod:`repro.traces` — trace container, access kernels, SPEC2000
  stand-in workloads, trace I/O;
- :mod:`repro.cache` — set-associative caches, victim cache, buses,
  MSHRs, the L2/memory hierarchy;
- :mod:`repro.classify` — 3C miss classification;
- :mod:`repro.timing` — analytical out-of-order timing/IPC model;
- :mod:`repro.core` — the paper's contribution: generational
  timekeeping metrics, conflict/dead-block predictors, the victim-cache
  admission filters, and the timekeeping/DBCP prefetchers;
- :mod:`repro.sim` — the trace-driven simulator and suite runners;
- :mod:`repro.analysis` — text rendering of the paper's tables/figures.
"""

from .common import (
    KB,
    MB,
    AccessOutcome,
    AccessType,
    CacheConfig,
    MachineConfig,
    MemoryAccess,
    MissClass,
    PrefetchTimeliness,
    paper_machine,
    small_test_machine,
)
from .sim import (
    CellFailure,
    MemorySimulator,
    RunStore,
    SimulationResult,
    SweepReport,
    run_sweep,
    run_workload,
    simulate,
    speedups,
)
from .traces import (
    BEST_PERFORMERS,
    SPEC2000,
    Trace,
    TraceBuilder,
    build_workload,
    get_workload,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "KB",
    "MB",
    "AccessOutcome",
    "AccessType",
    "CacheConfig",
    "MachineConfig",
    "MemoryAccess",
    "MissClass",
    "PrefetchTimeliness",
    "paper_machine",
    "small_test_machine",
    "CellFailure",
    "MemorySimulator",
    "RunStore",
    "SimulationResult",
    "SweepReport",
    "run_sweep",
    "run_workload",
    "simulate",
    "speedups",
    "BEST_PERFORMERS",
    "SPEC2000",
    "Trace",
    "TraceBuilder",
    "build_workload",
    "get_workload",
    "workload_names",
    "__version__",
]
