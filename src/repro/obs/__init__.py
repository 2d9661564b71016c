"""Observability layer: metrics, tracing, progress, logs, run history.

The paper's argument rests on measuring time *between events*; this
package gives the reproduction the same discipline about its own
runtime.  Small modules, all ambient-context based so instrumented
code pays near-zero cost when nothing is listening:

- :mod:`~repro.obs.metrics` — hierarchical counters/gauges/timers
  behind a :class:`Telemetry` context (no-op by default);
- :mod:`~repro.obs.tracing` — span API emitting Chrome trace-event
  JSON viewable in ``chrome://tracing`` / Perfetto;
- :mod:`~repro.obs.progress` — live sweep progress lines on stderr;
- :mod:`~repro.obs.logging` — structured JSONL event log shared by the
  runner, the checkpoint store, and the trace cache;
- :mod:`~repro.obs.history` — append-only crash-safe run-history store
  (:class:`ObsStore`) that sweeps and paper campaigns record
  themselves into;
- :mod:`~repro.obs.sentinel` — regression checks, markdown dashboard,
  and Prometheus export over that history;
- :mod:`~repro.obs.profiling` — per-cell cProfile/tracemalloc capture
  merged into campaign-level top-N tables;
- :mod:`~repro.obs.recorder` — opt-in per-generation flight recorder
  exporting cache-line lifetimes as Chrome-trace spans.
"""

from .history import (
    ObsStore,
    append_best_effort,
    build_run_record,
    paper_run_record,
    resolve_history,
    sweep_run_record,
)
from .logging import JsonlLogger, current_logger
from .metrics import NULL_TELEMETRY, Telemetry, aggregate_phases, current
from .profiling import format_profile, merge_profiles, profile_block
from .progress import SweepObserver, SweepProgress
from .recorder import NULL_RECORDER, FlightRecorder, current_recorder
from .sentinel import (
    SentinelReport,
    check_history,
    check_records,
    render_dashboard,
    to_prometheus,
    validate_prometheus,
)
from .tracing import ChromeTrace, build_sweep_trace, validate_chrome_trace

__all__ = [
    "ChromeTrace",
    "FlightRecorder",
    "JsonlLogger",
    "NULL_RECORDER",
    "NULL_TELEMETRY",
    "ObsStore",
    "SentinelReport",
    "SweepObserver",
    "SweepProgress",
    "Telemetry",
    "aggregate_phases",
    "append_best_effort",
    "build_run_record",
    "build_sweep_trace",
    "check_history",
    "check_records",
    "current",
    "current_logger",
    "current_recorder",
    "format_profile",
    "merge_profiles",
    "paper_run_record",
    "profile_block",
    "render_dashboard",
    "resolve_history",
    "sweep_run_record",
    "to_prometheus",
    "validate_chrome_trace",
    "validate_prometheus",
]
