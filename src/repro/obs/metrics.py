"""Hierarchical runtime counters and the JSONL event log.

A :class:`Telemetry` instance collects dotted-name counters
(``"trace_cache.hit"``, ``"cell.ok"``) and is installed as the
*ambient* collector with a ``with`` block::

    with Telemetry(log="events.jsonl") as tele:
        run_sweep(...)
    print(tele.counters["cell.ok"])

Instrumented code never takes a telemetry argument; it calls
:func:`current` and records into whatever is active.  When nothing is
active, :func:`current` returns the shared :data:`NULL_TELEMETRY`
singleton whose methods are empty — the instrumentation cost of the
disabled path is one function call plus an attribute check, which is
what keeps it safe to leave in hot-ish code (see
``benchmarks/test_perf_telemetry.py`` for the guard).

Each occurrence has one record.  Hot paths :meth:`~Telemetry.count`;
rare occurrences (a cell attempt, a trace-cache rebuild, a store
repair) are an :meth:`~Telemetry.event`, counted once and, when the
collector has a log, written as one line ``{"ts", "event", **fields}``.
A collector built while another is active shares its log, and a forked
sweep worker inherits it; every line is one flushed append.

Time is recorded as a cell's phases (:data:`PHASES`), by the runner and
the store, never here.  Counters are a plain JSON-able dict, so a
cell's cross process boundaries (sweep workers pickle them back to the
parent) and are added up with :meth:`Telemetry.merge`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, TextIO, Union

__all__ = [
    "NULL_TELEMETRY",
    "Telemetry",
    "aggregate_phases",
    "current",
]

#: A log target: a path to append to, or an open text stream.
LogTarget = Union[str, os.PathLike, TextIO]


class _NullTelemetry:
    """The disabled default: every method is a no-op.

    Shared singleton — never holds state, so it is safe to hand to any
    number of callers concurrently.
    """

    __slots__ = ()
    enabled = False
    log = None

    def count(self, name: str, n: float = 1) -> None:
        return None

    def event(self, name: str, **fields: Any) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return "NULL_TELEMETRY"


NULL_TELEMETRY = _NullTelemetry()


class _EventLog:
    """One flushed JSONL line per event; a path is opened for appending
    at once, an open stream stays its caller's to close."""

    def __init__(self, target: LogTarget) -> None:
        self._owns = not hasattr(target, "write")
        self._fh: TextIO = (
            open(target, "a", encoding="utf-8") if self._owns else target  # type: ignore[arg-type]
        )
        self._lock = threading.Lock()

    def write(self, name: str, fields: Mapping[str, Any]) -> None:
        record = {"ts": round(time.time(), 6), "event": name, **fields}
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        if self._owns:
            with self._lock:
                self._fh.close()


class Telemetry:
    """One collection of hierarchical counters, with an optional event log.

    Metric names are dotted paths (``trace_cache.hit``).  Instances are
    context managers that install themselves as the ambient collector
    for the dynamic extent of the block (nesting restores the outer
    collector).

    Args:
        log: Where :meth:`event` writes: a path, opened for appending
            now and closed when this collector's block exits, or an open
            text stream.  Without one, the log of the collector active
            when this one is built, if any.
    """

    enabled = True

    def __init__(self, log: Optional[LogTarget] = None) -> None:
        """Start with an empty counter bank and open or inherit the log."""
        self.counters: Dict[str, float] = {}
        self._owns_log = log is not None
        self.log: Optional[_EventLog] = _EventLog(log) if log is not None else current().log

    def count(self, name: str, n: float = 1) -> None:
        """Add *n* to the named counter (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def event(self, name: str, **fields: Any) -> None:
        """Count *name* once and write it to the log, if any, as one line."""
        self.count(name)
        if self.log is not None:
            self.log.write(name, fields)

    def merge(self, telemetry: Optional[Mapping[str, Any]]) -> None:
        """Add the ``counters`` of a telemetry dict (a cell's, from a
        worker process, or a sweep report's).

        Accepts ``None`` (no-op) so callers can merge unconditionally.
        """
        if not telemetry:
            return
        for name, value in telemetry.get("counters", {}).items():
            self.count(name, value)

    # -- ambient installation ------------------------------------------------

    def __enter__(self) -> "Telemetry":
        _STACK.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        _STACK.remove(self)
        if self._owns_log:
            self.log.close()  # type: ignore[union-attr]

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"Telemetry({len(self.counters)} counters)"


#: Ambient collector stack; the top is what :func:`current` returns.
_STACK: List[Telemetry] = []


def current() -> "Telemetry":
    """The innermost active :class:`Telemetry`, or :data:`NULL_TELEMETRY`."""
    return _STACK[-1] if _STACK else NULL_TELEMETRY  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Phase aggregation (shared by `repro report --timing` and the CLI)
# ---------------------------------------------------------------------------

#: Canonical order of a cell's phases: the runner records the first
#: three, and a store write (:meth:`repro.sim.store.RunStore.record_result`)
#: the last.
PHASES = ("spawn", "synthesis", "simulate", "serialize")


def aggregate_phases(
    cell_telemetries: Iterable[Optional[Mapping[str, Any]]],
) -> Dict[str, float]:
    """Total seconds per phase across many per-cell telemetry dicts.

    Each dict has the runner's shape — ``{"phases": {name: [start,
    dur]}}`` — and ``None`` entries (cells without telemetry) are
    skipped.  Unknown phase names are preserved, appended after the
    canonical :data:`PHASES` order.
    """
    totals: Dict[str, float] = {}
    for tele in cell_telemetries:
        if not tele:
            continue
        for name, (_start, dur) in tele.get("phases", {}).items():
            totals[name] = totals.get(name, 0.0) + dur
    ordered: Dict[str, float] = {p: totals.pop(p) for p in PHASES if p in totals}
    for name in sorted(totals):
        ordered[name] = totals[name]
    return ordered
