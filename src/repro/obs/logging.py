"""Structured JSONL event log.

One JSON object per line, each with a wall-clock ``ts`` and an
``event`` kind plus free-form fields::

    {"ts": 1754500000.123, "event": "cell.done", "workload": "gzip", ...}

Like :mod:`repro.obs.metrics`, the logger is ambient: entering a
:class:`JsonlLogger` context installs it as :func:`current_logger` for
the dynamic extent, and instrumented code (runner, checkpoint store,
trace cache) logs through :func:`current_logger` unconditionally — the
default :data:`NULL_LOGGER` swallows everything at the cost of one
no-op call.

The log is parent-process only by design: sweep workers report their
events back through telemetry snapshots and the parent logs them, so
one writer owns the file and lines never interleave.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, TextIO, Union

__all__ = ["JsonlLogger", "NULL_LOGGER", "current_logger"]

PathLike = Union[str, "os.PathLike[str]"]


class _NullLogger:
    """The disabled default: :meth:`event` is a no-op."""

    __slots__ = ()
    enabled = False

    def event(self, kind: str, **fields: Any) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return "NULL_LOGGER"


NULL_LOGGER = _NullLogger()


class JsonlLogger:
    """Append structured events to a JSONL file (or open stream).

    Context-manager use both opens/closes the file (when constructed
    from a path) and installs the logger as the ambient
    :func:`current_logger`::

        with JsonlLogger("events.jsonl"):
            run_sweep(...)          # instrumented code logs ambiently

    Thread-safe: a lock serializes line writes.
    """

    enabled = True

    def __init__(self, target: Union[PathLike, TextIO]) -> None:
        """Log to a path (opened lazily, owned) or an open text stream."""
        if hasattr(target, "write"):
            self._fh: Optional[TextIO] = target  # type: ignore[assignment]
            self._owns = False
            self.path: Optional[str] = None
        else:
            self.path = os.fspath(target)  # type: ignore[arg-type]
            self._fh = None
            self._owns = True
        self._lock = threading.Lock()

    def _ensure_open(self) -> TextIO:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")  # type: ignore[arg-type]
        return self._fh

    def event(self, kind: str, **fields: Any) -> None:
        """Write one event line: ``{"ts": ..., "event": kind, **fields}``."""
        record: Dict[str, Any] = {"ts": round(time.time(), 6), "event": kind}
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            fh = self._ensure_open()
            fh.write(line)
            fh.flush()

    def close(self) -> None:
        """Close the file handle if this logger opened it."""
        with self._lock:
            if self._fh is not None and self._owns:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JsonlLogger":
        _STACK.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        _STACK.remove(self)
        self.close()

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"JsonlLogger({self.path!r})"


#: Ambient logger stack; the top is what :func:`current_logger` returns.
_STACK: List[JsonlLogger] = []


def current_logger() -> JsonlLogger:
    """The innermost active :class:`JsonlLogger`, or :data:`NULL_LOGGER`."""
    return _STACK[-1] if _STACK else NULL_LOGGER  # type: ignore[return-value]
