"""Hierarchical runtime counters.

A :class:`Telemetry` instance collects dotted-name counters
(``"trace_cache.hit"``, ``"sim.accesses"``) and is installed as the
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

Counters are the only thing a collector holds.  Time is recorded as a
cell's phases (:data:`PHASES`), by the runner and the store, never
here.  Snapshots are plain JSON-able dicts so they can cross process
boundaries (sweep workers pickle them back to the parent) and be
merged with :meth:`Telemetry.merge`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional

__all__ = [
    "NULL_TELEMETRY",
    "Telemetry",
    "aggregate_phases",
    "current",
]


class _NullTelemetry:
    """The disabled default: every method is a no-op.

    Shared singleton — never holds state, so it is safe to hand to any
    number of callers concurrently.
    """

    __slots__ = ()
    enabled = False

    def count(self, name: str, n: float = 1) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return "NULL_TELEMETRY"


NULL_TELEMETRY = _NullTelemetry()


class Telemetry:
    """One collection of hierarchical counters.

    Metric names are dotted paths (``trace_cache.hit``).  Instances are
    context managers that install themselves as the ambient collector
    for the dynamic extent of the block (re-entrant; nesting restores
    the outer collector).
    """

    enabled = True

    def __init__(self) -> None:
        """Start with an empty counter bank."""
        self.counters: Dict[str, float] = {}

    def count(self, name: str, n: float = 1) -> None:
        """Add *n* to the named counter (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    # -- snapshots across process boundaries ---------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A plain JSON-able/picklable dict of everything collected."""
        return {"counters": dict(self.counters)}

    def merge(self, snapshot: Optional[Mapping[str, Any]]) -> None:
        """Add the counters of a :meth:`snapshot` (e.g. from a worker process).

        Accepts ``None`` (no-op) so callers can merge unconditionally.
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)

    # -- ambient installation ------------------------------------------------

    def __enter__(self) -> "Telemetry":
        _STACK.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        _STACK.remove(self)

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
