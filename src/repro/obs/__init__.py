"""Observability layer: metrics, event log, tracing, progress.

The paper's argument rests on measuring time *between events*; this
package gives the reproduction the same discipline about its own
runtime.  Small modules; the collector is an ambient context, so
instrumented code pays near-zero cost when nothing is listening (a
sweep always listens: :func:`repro.sim.runner.run_sweep` records every
executed cell's phases and counters):

- :mod:`~repro.obs.metrics` — hierarchical counters behind a
  :class:`Telemetry` context (no-op by default), whose optional JSONL
  log receives every :meth:`Telemetry.event` of the runner, the
  checkpoint store and the trace cache, and the phase totals of
  ``repro report --timing``.  Time has one record, a cell's phases
  (spawn, synthesis, simulate, and serialize, the store write);
- :mod:`~repro.obs.tracing` — a sweep's telemetry as Chrome
  trace-event JSON, viewable in ``chrome://tracing`` / Perfetto;
- :mod:`~repro.obs.progress` — live sweep progress lines on stderr.

Which build and host produced a run is recorded in the checkpoint
store's manifest (see :func:`repro.sim.runner.run_sweep`), next to the
per-cell phase timings ``repro report --timing`` reads back.
"""

from .metrics import NULL_TELEMETRY, Telemetry, aggregate_phases, current
from .progress import SweepObserver, SweepProgress
from .tracing import ChromeTrace, build_sweep_trace, validate_chrome_trace

__all__ = [
    "ChromeTrace",
    "NULL_TELEMETRY",
    "SweepObserver",
    "SweepProgress",
    "Telemetry",
    "aggregate_phases",
    "build_sweep_trace",
    "current",
    "validate_chrome_trace",
]
