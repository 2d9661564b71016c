"""Chrome trace-event export: spans viewable in chrome://tracing / Perfetto.

:class:`ChromeTrace` accumulates events in the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
(the JSON-object flavor: ``{"traceEvents": [...]}``) and writes them as
one JSON file.  Timestamps are wall-clock epoch seconds converted to
microsecond offsets from a fixed origin, so spans recorded by
*different processes* (sweep workers) land on one consistent timeline.

:func:`build_sweep_trace` fills one from the telemetry a
:class:`~repro.sim.runner.SweepReport` carries, after the sweep: the
parent's prewarm and execute phases on the main lane, and one lane
(``tid``) per worker process with nested
spawn/synthesis/simulate/serialize spans per cell.  ``serialize`` is
the parent's store write of the cell, drawn in the cell's own span.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["ChromeTrace", "build_sweep_trace", "validate_chrome_trace"]

#: pid used for all sweep lanes (one logical "sweep" process row).
SWEEP_PID = 1

#: tid of the parent/orchestrator lane; worker lanes count up from 1.
MAIN_TID = 0


class ChromeTrace:
    """An in-memory Chrome trace, written out as one JSON object.

    Args:
        origin: Epoch seconds subtracted from every timestamp so the
            trace starts near t=0 (defaults to the construction time).
            All helpers take *absolute* epoch seconds and convert.
    """

    def __init__(self, origin: Optional[float] = None) -> None:
        """Create an empty trace anchored at *origin* epoch seconds."""
        self.origin = time.time() if origin is None else origin
        self.events: List[Dict[str, Any]] = []
        self._named: set = set()

    # -- low-level event emission -------------------------------------------

    def _ts(self, epoch_seconds: float) -> float:
        return round((epoch_seconds - self.origin) * 1e6, 3)

    def add_complete(
        self,
        name: str,
        start: float,
        duration: float,
        *,
        pid: int = SWEEP_PID,
        tid: int = MAIN_TID,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """One complete ("X") event; *start*/*duration* in seconds."""
        event: Dict[str, Any] = {
            "name": name,
            "ph": "X",
            "ts": self._ts(start),
            "dur": round(duration * 1e6, 3),
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        self.events.append(event)

    def add_instant(
        self,
        name: str,
        when: float,
        *,
        pid: int = SWEEP_PID,
        tid: int = MAIN_TID,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """One instant ("i") event — used for retries/timeouts markers."""
        event: Dict[str, Any] = {
            "name": name,
            "ph": "i",
            "s": "t",  # thread-scoped marker
            "ts": self._ts(when),
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = dict(args)
        self.events.append(event)

    def set_process_name(self, pid: int, name: str) -> None:
        """Label a viewer lane (process row); idempotent per pid."""
        self._metadata("process_name", pid, MAIN_TID, name)

    def set_thread_name(self, pid: int, tid: int, name: str) -> None:
        """Label a thread row within a lane; idempotent per (pid, tid)."""
        self._metadata("thread_name", pid, tid, name)

    def _metadata(self, kind: str, pid: int, tid: int, name: str) -> None:
        key = (kind, pid, tid)
        if key in self._named:
            return
        self._named.add(key)
        self.events.append(
            {"name": kind, "ph": "M", "ts": 0, "pid": pid, "tid": tid,
             "args": {"name": name}}
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object (``{"traceEvents": ...}``)."""
        # Stable ordering (metadata first, then by timestamp) keeps the
        # file diffable and viewer-friendly regardless of insert order.
        ordered = sorted(
            self.events, key=lambda e: (e["ph"] != "M", e["ts"], e["pid"], e["tid"])
        )
        return {"traceEvents": ordered, "displayTimeUnit": "ms"}

    def write(self, path: Any) -> None:
        """Serialize to *path*, compact, for chrome://tracing / Perfetto."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, separators=(",", ":"))
            fh.write("\n")

    def __len__(self) -> int:
        return len(self.events)


# ---------------------------------------------------------------------------
# Sweep telemetry -> trace conversion
# ---------------------------------------------------------------------------


def build_sweep_trace(report: Any, *, origin: Optional[float] = None) -> ChromeTrace:
    """Convert a :class:`~repro.sim.runner.SweepReport` into a trace.

    One lane per distinct worker process (serial sweeps collapse onto a
    single lane), an enclosing span per cell, nested phase spans
    (spawn/synthesis/simulate/serialize), instant markers for cells
    that needed retries, and the parent's own phases (prewarm,
    execute) on the main lane.  A cell span's ``accesses_per_sec`` is
    its ``sim.accesses`` counter over its ``simulate`` phase.

    Cells replayed from a checkpoint store have no telemetry and are
    simply absent from the trace.
    """
    cell_items: List[Tuple[str, Mapping[str, Any]]] = []
    for key, tele in getattr(report, "cell_telemetry", {}).items():
        if tele:
            cell_items.append((f"{key[0]}:{key[1]}", tele))
    for failure in getattr(report, "failures", []):
        tele = getattr(failure, "telemetry", None)
        if tele:
            cell_items.append((f"{failure.workload}:{failure.config} (failed)", tele))

    starts = [
        start
        for _label, tele in cell_items
        for start, _dur in tele.get("phases", {}).values()
    ]
    sweep_tele = getattr(report, "telemetry", None) or {}
    sweep_start = sweep_tele.get("started")
    if origin is None:
        candidates = list(starts)
        if sweep_start is not None:
            candidates.append(sweep_start)
        origin = min(candidates) if candidates else None

    trace = ChromeTrace(origin=origin)
    trace.set_process_name(SWEEP_PID, "repro sweep")
    trace.set_thread_name(SWEEP_PID, MAIN_TID, "main")

    # Parent-side phases on the main lane.
    for name, (start, dur) in sweep_tele.get("phases", {}).items():
        trace.add_complete(name, start, dur, tid=MAIN_TID)

    # One lane per worker process, in order of first appearance.
    lanes: Dict[int, int] = {}

    def lane_for(pid: Optional[int]) -> int:
        if pid is None:
            return MAIN_TID
        tid = lanes.get(pid)
        if tid is None:
            tid = lanes[pid] = len(lanes) + 1
            trace.set_thread_name(SWEEP_PID, tid, f"worker {tid} (pid {pid})")
        return tid

    cell_items.sort(
        key=lambda item: min(
            (s for s, _d in item[1].get("phases", {}).values()), default=0.0
        )
    )
    for label, tele in cell_items:
        tid = lane_for(tele.get("pid"))
        phases = tele.get("phases", {})
        if not phases:
            continue
        cell_start = min(start for start, _dur in phases.values())
        cell_end = max(start + dur for start, dur in phases.values())
        args = {"cell": label, "attempt": tele.get("attempt", 1)}
        accesses = tele.get("counters", {}).get("sim.accesses")
        simulate = phases.get("simulate")
        if accesses and simulate and simulate[1] > 0:
            args["accesses_per_sec"] = round(accesses / simulate[1])
        trace.add_complete(label, cell_start, cell_end - cell_start, tid=tid, args=args)
        for phase, (start, dur) in phases.items():
            trace.add_complete(phase, start, dur, tid=tid, args={"cell": label})
        if tele.get("attempt", 1) > 1:
            trace.add_instant(
                "retry", cell_start, tid=tid,
                args={"cell": label, "attempt": tele["attempt"]},
            )

    # Hung-worker detections from the supervisor (the killed worker never
    # reported telemetry, so the marker lands on its lane by pid alone).
    for hang in sweep_tele.get("hangs", []):
        trace.add_instant(
            "worker.hung", hang.get("detected_at", sweep_start or 0.0),
            tid=lane_for(hang.get("pid")),
            args={
                "cell": f"{hang.get('workload')}:{hang.get('config')}",
                "attempt": hang.get("attempt"),
                "grace_seconds": hang.get("grace"),
            },
        )
    return trace


# ---------------------------------------------------------------------------
# Schema validation (tests + CI artifact check)
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")


def validate_chrome_trace(obj: Any) -> List[str]:
    """Structural check of a trace JSON object; returns problems found.

    Not the full spec — exactly the invariants the viewers rely on:
    top-level ``traceEvents`` list; every event has name/ph/ts/pid/tid;
    ``X`` events carry a non-negative ``dur``; ``M`` metadata events
    carry ``args.name``; timestamps are finite numbers.
    """
    problems: List[str] = []
    if not isinstance(obj, dict) or not isinstance(obj.get("traceEvents"), list):
        return ["top level must be an object with a 'traceEvents' list"]
    for i, event in enumerate(obj["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in _REQUIRED_KEYS:
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        ph = event.get("ph")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts != ts or ts in (float("inf"), float("-inf")):
            problems.append(f"{where}: non-finite ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'X' event needs a non-negative dur, got {dur!r}")
        elif ph == "M":
            if not isinstance(event.get("args"), dict) or "name" not in event["args"]:
                problems.append(f"{where}: metadata event needs args.name")
    return problems
