"""Live sweep progress reporting.

:class:`SweepObserver` is the runner-side hook protocol: the runner
calls ``on_sweep_start`` once, ``on_cell_start`` per attempt (retries
re-report with their attempt number), ``on_cell_done`` per finished
cell, and ``on_sweep_end`` with the final report.  All methods are
no-ops on the base class so observers override only what they need.

:class:`SweepProgress` is the stderr implementation: a single
rewritten status line on a TTY (``\\r``-based), throttled plain lines
otherwise::

    [ 12/16] ok=11 failed=1 retried=2 | ETA 0:41 | trace cache 83% hit

ETA extrapolates from the mean completed-cell wall time and the worker
count; the cache hit-rate comes from the merged worker telemetry
counters (absent until the first cell carrying counters completes).
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, Mapping, Optional, TextIO

__all__ = ["SweepObserver", "SweepProgress"]


class SweepObserver:
    """No-op base class for sweep lifecycle hooks."""

    def on_sweep_start(self, total: int, workers: int) -> None:
        """Called once before any cell runs."""
        return None

    def on_cell_start(self, workload: str, config: str, attempt: int) -> None:
        """Called as each cell attempt begins (attempt counts from 1)."""
        return None

    def on_cell_done(
        self,
        workload: str,
        config: str,
        ok: bool,
        attempts: int,
        elapsed: float,
        counters: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Called when a cell finishes (successfully or exhausted)."""
        return None

    def on_sweep_end(self, report: Any) -> None:
        """Called once with the finished :class:`SweepReport`."""
        return None


def _format_eta(seconds: float) -> str:
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60}:{seconds % 60:02d}"


class SweepProgress(SweepObserver):
    """Render live sweep progress to a stream (stderr by default).

    Args:
        stream: Output stream; a TTY gets an in-place rewritten line,
            anything else gets one plain line per refresh.
        min_interval: Minimum seconds between repaints (the final
            repaint on ``on_sweep_end`` always happens).
    """

    def __init__(self, stream: Optional[TextIO] = None,
                 min_interval: float = 0.1) -> None:
        """Bind to *stream* and detect whether it is a TTY."""
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.total = 0
        self.workers = 1
        self.done = 0
        self.ok = 0
        self.failed = 0
        self.retried = 0
        self.cache_hits = 0.0
        self.cache_lookups = 0.0
        self.engine_counts: Dict[str, int] = {}
        self._elapsed_sum = 0.0
        self._last_paint = 0.0
        self._line_len = 0
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self._tty = False

    # -- observer hooks ------------------------------------------------------

    def on_sweep_start(self, total: int, workers: int) -> None:
        """Add the sweep's cells to the total and paint the line: one
        progress can follow the several sweeps of a ``repro paper``."""
        self.total += total
        self.workers = max(1, workers)
        self._paint(force=True)

    def on_cell_start(self, workload: str, config: str, attempt: int) -> None:
        """Repaint on retries so the retry count stays current."""
        if attempt > 1:
            self._paint()

    def on_cell_done(
        self,
        workload: str,
        config: str,
        ok: bool,
        attempts: int,
        elapsed: float,
        counters: Optional[Mapping[str, float]] = None,
    ) -> None:
        """Fold one finished cell into the tallies and repaint."""
        self.done += 1
        if ok:
            self.ok += 1
        else:
            self.failed += 1
        if attempts > 1:
            self.retried += 1
        self._elapsed_sum += elapsed
        if counters:
            self.cache_hits += counters.get("trace_cache.hit", 0)
            self.cache_lookups += counters.get("trace_cache.hit", 0)
            self.cache_lookups += counters.get("trace_cache.miss", 0)
            for name, value in counters.items():
                if name.startswith("sim.engine_used."):
                    engine = name.rsplit(".", 1)[1]
                    self.engine_counts[engine] = (
                        self.engine_counts.get(engine, 0) + int(value))
        self._paint()

    def on_sweep_end(self, report: Any) -> None:
        """Final repaint, newline off the TTY line, report summary."""
        self._paint(force=True)
        if self._tty and self._line_len:
            self.stream.write("\n")
        summary = getattr(report, "summary", None)
        if callable(summary):
            self.stream.write(summary() + "\n")
        try:
            self.stream.flush()
        except (AttributeError, ValueError):  # pragma: no cover — closed stream
            pass

    # -- rendering -----------------------------------------------------------

    def eta_seconds(self) -> Optional[float]:
        """Projected remaining wall time, None before the first cell."""
        if self.done == 0 or self.total == 0:
            return None
        remaining = self.total - self.done
        per_cell = self._elapsed_sum / self.done
        return remaining * per_cell / self.workers

    def status_line(self) -> str:
        """Render the one-line status: counts, ETA, cache hit rate and
        engine tally."""
        width = len(str(self.total))
        parts = [
            f"[{self.done:>{width}}/{self.total}]",
            f"ok={self.ok} failed={self.failed} retried={self.retried}",
        ]
        eta = self.eta_seconds()
        if eta is not None and self.done < self.total:
            parts.append(f"ETA {_format_eta(eta)}")
        if self.cache_lookups:
            rate = self.cache_hits / self.cache_lookups
            parts.append(f"trace cache {rate:.0%} hit")
        if self.engine_counts:
            tally = "+".join(f"{count} {name}" for name, count
                             in sorted(self.engine_counts.items()))
            parts.append(f"engine {tally}")
        return " | ".join(parts)

    def _paint(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_paint < self.min_interval:
            return
        self._last_paint = now
        line = self.status_line()
        try:
            if self._tty:
                pad = max(0, self._line_len - len(line))
                self.stream.write("\r" + line + " " * pad)
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
        except (AttributeError, ValueError):  # pragma: no cover — closed stream
            return
        self._line_len = len(line)
