"""Hierarchical runtime metrics: counters, gauges, timers.

A :class:`Telemetry` instance collects dotted-name metrics
(``"trace_cache.hit"``, ``"sweep.cells.ok"``) and is installed as the
*ambient* collector with a ``with`` block::

    with Telemetry() as tele:
        run_sweep(...)
    print(tele.counters["trace_cache.hit"])

Instrumented code never takes a telemetry argument; it calls
:func:`current` and records into whatever is active.  When nothing is
active, :func:`current` returns the shared :data:`NULL_TELEMETRY`
singleton whose methods are empty — the instrumentation cost of the
disabled path is one function call plus an attribute check, which is
what keeps it safe to leave in hot-ish code (see
``benchmarks/test_perf_telemetry.py`` for the guard).

Snapshots are plain JSON-able dicts so they can cross process
boundaries (sweep workers pickle them back to the parent) and be
merged with :meth:`Telemetry.merge`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Mapping, Optional

__all__ = [
    "NULL_TELEMETRY",
    "Telemetry",
    "TimerStats",
    "aggregate_phases",
    "current",
]


class TimerStats:
    """Aggregate of one named timer: count / total / min / max seconds."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self, count: int = 0, total: float = 0.0,
                 min: float = float("inf"), max: float = 0.0) -> None:
        """Start empty (or from prior aggregates, for merging)."""
        self.count = count
        self.total = total
        self.min = min
        self.max = max

    def add(self, seconds: float) -> None:
        """Fold one observation into the aggregate."""
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict form for snapshots and JSON serialization."""
        return {"count": self.count, "total": self.total,
                "min": self.min if self.count else 0.0, "max": self.max}

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (f"TimerStats(count={self.count}, total={self.total:.6f}, "
                f"min={self.min:.6f}, max={self.max:.6f})")


class _NullTimer:
    """Reusable no-op context manager returned by the null telemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_TIMER = _NullTimer()


class _NullTelemetry:
    """The disabled default: every method is a no-op.

    Shared singleton — never holds state, so it is safe to hand to any
    number of callers concurrently.
    """

    __slots__ = ()
    enabled = False

    def count(self, name: str, n: float = 1) -> None:
        return None

    def gauge(self, name: str, value: float) -> None:
        return None

    def timer(self, name: str) -> _NullTimer:
        return _NULL_TIMER

    def record(self, name: str, seconds: float) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return "NULL_TELEMETRY"


NULL_TELEMETRY = _NullTelemetry()


class _Timer:
    """Context manager recording one elapsed interval into a telemetry."""

    __slots__ = ("_telemetry", "_name", "_start")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._telemetry.record(self._name, time.perf_counter() - self._start)


class Telemetry:
    """One collection of hierarchical counters, gauges, and timers.

    Metric names are dotted paths (``trace_cache.hit``).  Instances are
    context managers that install themselves as the ambient collector
    for the dynamic extent of the block (re-entrant; nesting restores
    the outer collector).
    """

    enabled = True

    def __init__(self) -> None:
        """Start with empty counter/gauge/timer banks."""
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.timers: Dict[str, TimerStats] = {}

    # -- recording -----------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Add *n* to the named counter (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge (last write wins)."""
        self.gauges[name] = value

    def timer(self, name: str) -> _Timer:
        """Context manager timing its block into the named timer."""
        return _Timer(self, name)

    def record(self, name: str, seconds: float) -> None:
        """Fold an externally-measured duration into the named timer."""
        stats = self.timers.get(name)
        if stats is None:
            stats = self.timers[name] = TimerStats()
        stats.add(seconds)

    # -- snapshots across process boundaries ---------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain JSON-able/picklable dict of everything collected."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {name: t.to_dict() for name, t in self.timers.items()},
        }

    def merge(self, snapshot: Optional[Mapping[str, Any]]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this one.

        Counters and timer aggregates add; gauges last-write-wins.
        Accepts ``None`` (no-op) so callers can merge unconditionally.
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, t in snapshot.get("timers", {}).items():
            stats = self.timers.get(name)
            if stats is None:
                stats = self.timers[name] = TimerStats()
            count = t.get("count", 0)
            if count:
                stats.count += count
                stats.total += t.get("total", 0.0)
                stats.min = min(stats.min, t.get("min", float("inf")))
                stats.max = max(stats.max, t.get("max", 0.0))

    # -- ambient installation ------------------------------------------------

    def __enter__(self) -> "Telemetry":
        _STACK.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        _STACK.remove(self)

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (f"Telemetry({len(self.counters)} counters, "
                f"{len(self.gauges)} gauges, {len(self.timers)} timers)")


#: Ambient collector stack; the top is what :func:`current` returns.
_STACK: List[Telemetry] = []


def current() -> "Telemetry":
    """The innermost active :class:`Telemetry`, or :data:`NULL_TELEMETRY`."""
    return _STACK[-1] if _STACK else NULL_TELEMETRY  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Phase aggregation (shared by `repro report --timing` and the CLI)
# ---------------------------------------------------------------------------

#: Canonical order of the per-cell phases the runner records.
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
