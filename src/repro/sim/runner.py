"""Fault-tolerant experiment runner for workload×config sweeps.

Every headline figure of the paper is produced by the same campaign
shape — N workloads × M machine configurations, compared on IPC — and a
campaign of long-running cells needs properties a serial in-process loop
does not have:

- **isolation**: one cell raising, hanging, or crashing its process must
  not discard the other cells' completed work;
- **parallelism**: independent cells run concurrently on worker processes;
- **timeouts**: a pathological configuration is killed after a wall-clock
  budget and recorded, instead of wedging the campaign;
- **retries**: transient failures (a crashed worker, an injected flake)
  are retried with exponential backoff + jitter;
- **resumability**: completed cells checkpoint to an append-only JSONL
  store (:mod:`repro.sim.store`) and a re-run replays them from disk.

:func:`run_sweep` is the entry point; it returns a :class:`SweepReport`
whose ``results`` map ``{workload: {config_name: result}}`` and whose
``failures`` list records every cell that did not produce a result.
Every executed cell records its phase timings and counters, in the
report's ``cell_telemetry`` and, with a store, in the cell's record;
the store write itself is the cell's ``serialize`` phase.  The sweep's
lifecycle (its start and end, each cell attempt's start, each cell's
outcome, a hung worker) is a
:meth:`~repro.obs.metrics.Telemetry.event` of the sweep's own
collector: counted in ``report.telemetry`` and written to the log of
the caller's collector, which every cell's collector, in a pool worker
too, writes its trace-cache events to as well.

Executors
---------

Two executors share the same scheduling/bookkeeping loop:

- ``workers == 1`` with neither *timeout* nor *hang_grace*: serial
  **in-process** execution (the fast, debuggable path; exceptions are
  still caught per cell);
- every other sweep: the **supervised pool**, at most ``workers``
  long-lived worker processes, each running one cell at a time.  The
  parent supervises every busy worker: a finished cell's outcome is
  read first, then process death, a stale heartbeat (with
  *hang_grace*) and a passed deadline (with *timeout*).  A worker that
  is killed or found dead is replaced, so enforcing a wall-clock
  budget never poisons its siblings.

Each executor (the serial loop, each pool worker) owns one trace
source that holds the current workload's trace, so its cells and
retries of a workload share one load and one memoized 3C replay.

Workers are forked where the platform allows (so closures and test
fixtures work as fault hooks); on spawn-only platforms every spec and
hook must be picklable by reference.  A forked worker inherits the
parent's armed :class:`~repro.faults.injector.FaultInjector`: its hit
counters carry over from one cell to the next within that worker, and
a replacement worker restarts from the parent's counters.  Cell
results cross the process boundary by pickling, so
``collect_metrics=True`` works under both executors, and a store
record holds the metric banks its cell collected, so a result replayed
from a store equals the live one.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import platform
import random
import subprocess
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from multiprocessing import connection
from typing import (
    Any, Callable, Dict, Generator, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from ..common.config import config_digest, paper_machine
from ..common.errors import CellTimeoutError, ReproError, SimulationError
from ..faults.injector import FaultInjector, current_injector
from ..faults.plan import FaultPlan
from ..obs.metrics import Telemetry
from ..obs.metrics import current as current_telemetry
from ..obs.progress import SweepObserver
from ..traces.cache import TraceCache, resolve_cache
from ..traces.trace import Trace
from ..traces.workloads import SPEC2000, get_workload
from .results import SimulationResult
from .store import CellKey, RunStore
from .simulator import simulate

#: Fault-injection hook, called in the worker just before simulation:
#: ``(workload, config_name, attempt)``; raising makes the attempt fail.
FaultHook = Callable[[str, str, int], None]

#: Longest wait (seconds) between supervision passes over the pool.
_POLL_INTERVAL = 0.02

#: Grace period between SIGTERM and SIGKILL for a timed-out worker.
_KILL_GRACE = 5.0

#: How often a supervised worker writes its heartbeat timestamp.
_HEARTBEAT_INTERVAL = 0.2

#: How often (seconds) an idle pool worker checks that its parent lives.
_ORPHAN_CHECK = 1.0


# ---------------------------------------------------------------------------
# Cell descriptions and outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    """One (workload, configuration) cell of a sweep."""

    workload: str
    config_name: str
    config: Mapping[str, Any]
    length: int
    seed: int
    warmup: int
    #: Trace-cache root (str — picklable across spawn), or None to
    #: synthesize in the worker.
    trace_cache: Optional[str] = None

    @property
    def key(self) -> CellKey:
        """The ``(workload, config_name)`` identity of this cell."""
        return (self.workload, self.config_name)

    def label(self) -> str:
        """Human-readable ``workload:config`` label for logs and errors."""
        return f"{self.workload}:{self.config_name}"


@dataclass
class CellFailure:
    """Structured record of a cell that produced no result."""

    workload: str
    config: str
    #: Exception class name ("CellTimeoutError", "ConfigError", ...) or
    #: "WorkerCrash" when the worker process died without reporting.
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    #: Telemetry snapshot of the failing attempt (phase timings and
    #: counters collected up to the failure), when the worker lived to
    #: report it.
    telemetry: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Serialize every field (the exact inverse of :meth:`from_dict`)."""
        return {
            "workload": self.workload,
            "config": self.config,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellFailure":
        """Rebuild from :meth:`to_dict` output.

        Tolerates records written by other versions: unknown keys are
        ignored and absent optional fields keep their defaults, so old
        stores load under new code and vice versa.
        """
        known = {f.name for f in dataclass_fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def __str__(self) -> str:
        return (
            f"{self.workload}:{self.config} failed after {self.attempts} "
            f"attempt(s): {self.error_type}: {self.message}"
        )


@dataclass
class SweepReport:
    """Everything one :func:`run_sweep` invocation produced.

    ``results`` is ``{workload: {config_name: result}}`` in sweep order,
    holding every cell that succeeded (this run or replayed from the
    store).  Failed cells are absent from ``results`` and present in
    ``failures``.
    """

    results: Dict[str, Dict[str, SimulationResult]]
    failures: List[CellFailure] = field(default_factory=list)
    #: Cells actually executed by this invocation (not replayed).
    executed: int = 0
    #: Cells replayed from the checkpoint store.
    replayed: int = 0
    #: Attempts used per completed/failed cell key.
    attempts: Dict[CellKey, int] = field(default_factory=dict)
    #: Per-cell telemetry of every cell this invocation executed:
    #: ``pid``, ``attempt``, ``phases`` and ``counters``; replayed cells
    #: are absent.
    cell_telemetry: Dict[CellKey, Dict[str, Any]] = field(default_factory=dict)
    #: Sweep-level telemetry: ``started`` (epoch), ``phases`` (parent
    #: prewarm/execute), ``hangs`` and the ``counters``: every cell
    #: attempt's, retried ones too, and the parent's, lifecycle events
    #: included.
    telemetry: Dict[str, Any] = field(default_factory=dict)
    #: Wall-clock seconds for the whole invocation.
    wall_time: float = 0.0

    @property
    def ok_cells(self) -> int:
        """Number of cells with a usable result (executed or replayed)."""
        return sum(len(configs) for configs in self.results.values())

    @property
    def retried(self) -> int:
        """Cells that needed more than one attempt (completed or failed)."""
        return sum(1 for n in self.attempts.values() if n > 1)

    def summary(self) -> str:
        """One-line human digest, shared by the CLI, logs, and tests."""
        total = self.ok_cells + len(self.failures)
        return (
            f"{total} cells: {self.ok_cells} ok "
            f"({self.replayed} replayed from store), "
            f"{len(self.failures)} failed, "
            f"{self.retried} retried in {self.wall_time:.1f}s"
        )

    def raise_on_failure(self) -> None:
        """Raise :class:`SimulationError` summarizing failures, if any."""
        if not self.failures:
            return
        summary = "; ".join(str(f) for f in self.failures[:5])
        if len(self.failures) > 5:
            summary += f"; ... ({len(self.failures) - 5} more)"
        raise SimulationError(
            f"{len(self.failures)} of {self.ok_cells + len(self.failures)} "
            f"sweep cells failed: {summary}"
        )


# ---------------------------------------------------------------------------
# Worker-side execution
# ---------------------------------------------------------------------------


def _new_cell_telemetry(attempt: int, submitted_at: Optional[float]) -> Dict[str, Any]:
    """Fresh per-cell telemetry dict, with the spawn phase when known.

    ``spawn`` measures parent-submit to worker-entry: the hand-over to a
    pool worker, plus its start-up when the worker is fresh.  It only
    exists on the supervised pool.  Timestamps are wall-clock epoch
    seconds so phases recorded by different processes land on one
    timeline.
    """
    tele: Dict[str, Any] = {"pid": os.getpid(), "attempt": attempt, "phases": {}}
    if submitted_at is not None:
        tele["phases"]["spawn"] = [submitted_at, max(0.0, time.time() - submitted_at)]
    return tele


@contextmanager
def _timed_phase(phases: Dict[str, List[float]], name: str) -> Iterator[None]:
    """Record the block as ``phases[name] = [epoch_start, duration]``."""
    start, t0 = time.time(), time.perf_counter()
    try:
        yield
    finally:
        phases[name] = [start, time.perf_counter() - t0]


class _TraceSource:
    """The trace of the workload being run, shared by its cells and retries.

    Each executor owns one source: the serial loop one per sweep, each
    pool worker one for its lifetime.  Cells are planned workload-major,
    so holding one trace at a time serves every configuration and every
    retry of a workload from one load — one digest-verified cache read,
    or one synthesis without a cache — and one :class:`Trace` object,
    whose memoized 3C shadow replay (see :func:`repro.sim.batch._classify`)
    the configurations then share as well.  The cache is opened once
    per root.  The previous workload's trace is dropped before the next
    one loads, and :meth:`close` drops the last.

    Serving a verified trace again skips re-hashing its entry: committed
    entries are only ever replaced with ``os.replace``, never rewritten
    in place, so the mapped files cannot change under the trace.
    """

    def __init__(self) -> None:
        self._cache: Optional[TraceCache] = None
        self._key: Optional[Tuple[Any, ...]] = None
        self._trace: Optional[Trace] = None

    def get(self, spec: CellSpec) -> Trace:
        """The trace *spec* simulates, loaded or built on first request."""
        total = spec.length + spec.warmup
        key = (spec.trace_cache, spec.workload, total, spec.seed)
        if key != self._key:
            self.close()
            if spec.trace_cache is None:
                trace = get_workload(spec.workload).build(length=total, seed=spec.seed)
            else:
                if self._cache is None or os.fspath(self._cache.root) != spec.trace_cache:
                    self._cache = TraceCache(root=spec.trace_cache)
                trace = self._cache.get_or_build(spec.workload, total, spec.seed)
            self._key, self._trace = key, trace
        return self._trace

    def close(self) -> None:
        """Drop the held trace (and with it its memo and mapped columns)."""
        self._key = self._trace = None


def _execute_cell(
    spec: CellSpec,
    source: _TraceSource,
    fault_hook: Optional[FaultHook],
    attempt: int,
    cell_telemetry: Dict[str, Any],
) -> SimulationResult:
    """Get the cell's trace from *source* and simulate it (runs in the worker).

    With a trace cache configured the trace is served mmap-backed from
    the parent's prewarmed entry; without one (``trace_cache=False``)
    it is synthesized here.  Either way *source* keeps it for the next
    cells and retries of the workload.

    The worker's two phases, ``synthesis`` and ``simulate``, are timed
    into *cell_telemetry*, and an ambient :class:`Telemetry` captures
    the cell's counters (trace-cache outcomes, the engine used, the
    accesses simulated) and writes its events to the log it inherits
    from the collector active in this process (a pool worker's, over
    the fork).  The dict is filled in place so a raising
    phase still leaves the completed phases for failure records.  The
    ``serialize`` phase is the parent's store write
    (:meth:`RunStore.record_result`).
    """
    timed = functools.partial(_timed_phase, cell_telemetry.setdefault("phases", {}))
    with Telemetry() as tele:
        try:
            with timed("synthesis"):
                trace = source.get(spec)
            if fault_hook is not None:
                fault_hook(spec.workload, spec.config_name, attempt)
            _fire_mid_cell(spec, attempt)
            with timed("simulate"):
                result = simulate_config(
                    trace, spec.config, ipa=get_workload(spec.workload).ipa,
                    warmup=spec.warmup,
                )
        finally:
            cell_telemetry["counters"] = tele.counters
    return result


def simulate_config(
    trace: Any,
    config: Mapping[str, Any],
    *,
    ipa: float,
    warmup: int,
) -> SimulationResult:
    """Simulate *trace* under one configuration of a suite or sweep.

    *config* holds :func:`simulate` keyword arguments, a ``machine``
    among them when it is not the paper's; *ipa* and *warmup* are the
    suite-wide defaults it may override.
    """
    kwargs = dict(config)
    kwargs.setdefault("ipa", ipa)
    kwargs.setdefault("warmup", warmup)
    return simulate(trace, **kwargs)


def _fire_mid_cell(spec: CellSpec, attempt: int) -> None:
    """The ``worker.mid_cell`` injection site (same point as fault_hook)."""
    injector = current_injector()
    if injector.armed:
        injector.on_event(
            "worker.mid_cell", workload=spec.workload,
            config=spec.config_name, attempt=attempt,
        )


def _run_attempt(
    spec: CellSpec,
    source: _TraceSource,
    fault_hook: Optional[FaultHook],
    attempt: int,
    submitted_at: Optional[float],
    plan: Optional[FaultPlan] = None,
) -> _Outcome:
    """Execute one attempt and fold the result/exception into an outcome.

    Both executors call it (a pool worker once per cell it is handed),
    so the outcome shape — including the trailing telemetry slot — is
    identical everywhere.  *source* is the executor's trace source.

    *plan* re-arms the parent's fault plan in the executing process
    when no ambient injector is active there — the spawn-platform path;
    forked workers inherit the parent's armed injector instead and keep
    it, so its hit counters carry over the fork and from one of that
    worker's cells to the next.
    """
    scope = None
    if plan is not None and not current_injector().armed:
        scope = FaultInjector(plan)
        scope.__enter__()
    tele = _new_cell_telemetry(attempt, submitted_at)
    try:
        injector = current_injector()
        if injector.armed:
            injector.on_event(
                "worker.start", workload=spec.workload,
                config=spec.config_name, attempt=attempt,
            )
        result = _execute_cell(spec, source, fault_hook, attempt, tele)
    except Exception as exc:
        return (
            "error",
            type(exc).__name__,
            str(exc),
            traceback.format_exc(),
            _is_transient(exc),
            tele,
        )
    finally:
        if scope is not None:
            scope.__exit__(None, None, None)
    return ("ok", result, tele)


def _heartbeat_loop(heartbeat) -> None:  # pragma: no cover — worker thread
    """Stamp ``heartbeat`` every :data:`_HEARTBEAT_INTERVAL` seconds.

    Runs as a daemon thread in the worker.  A worker that is merely
    *slow* keeps beating; one that is truly wedged — SIGSTOPped, stuck
    in an uninterruptible syscall, deadlocked at process level — stops,
    and the parent's supervisor notices the stale timestamp.
    """
    while True:
        heartbeat.value = time.monotonic()
        time.sleep(_HEARTBEAT_INTERVAL)


def _worker_main(conn, fault_hook, plan, heartbeat) -> None:  # pragma: no cover — child
    """Supervised-pool worker: run the cells handed over *conn* until stopped.

    Each message is ``(spec, attempt, submitted_at)`` and is answered
    with that attempt's outcome tuple; ``None`` asks the worker to exit.
    An idle worker also exits once its parent is gone: this worker and
    every sibling forked after it hold copies of the parent's end of
    the pipe, so the parent's death alone never reads as EOF here.
    """
    if heartbeat is not None:
        threading.Thread(
            target=_heartbeat_loop, args=(heartbeat,), daemon=True
        ).start()
    parent = multiprocessing.parent_process().pid
    source = _TraceSource()
    try:
        while True:
            while not conn.poll(_ORPHAN_CHECK):
                if os.getppid() != parent:
                    return
            message = conn.recv()
            if message is None:
                return
            spec, attempt, submitted_at = message
            conn.send(_run_attempt(spec, source, fault_hook, attempt,
                                   submitted_at, plan))
    except (EOFError, OSError):
        return  # the parent's end of the pipe is gone


def _is_transient(exc: BaseException) -> bool:
    """Whether a failure is worth retrying.

    Domain errors (:class:`ReproError` subclasses: bad configs, bad
    traces, simulator misuse) are deterministic — the same inputs will
    fail the same way — so they are never retried.  Everything else
    (environmental errors, injected flakes, crashed workers) is.
    """
    return not isinstance(exc, ReproError)


def _mp_context() -> multiprocessing.context.BaseContext:
    """Fork where available (hooks/closures work), else the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX platforms
        return multiprocessing.get_context()


def _backoff_delay(backoff: float, attempt: int, rng: random.Random) -> float:
    """Exponential backoff with jitter: ``backoff * 2^(attempt-1) * U[0.5, 1.5)``."""
    return backoff * (2 ** (attempt - 1)) * (0.5 + rng.random())


# Internal per-attempt outcome: ("ok", result, telemetry) | ("error",
# type, msg, tb, transient, telemetry) | ("crash", exitcode) |
# ("timeout", budget) | ("hung", grace, pid).  Crashed, timed-out and
# hung workers never report telemetry.
_Outcome = Tuple[Any, ...]

# Executor yield: (spec, outcome, attempts, elapsed_seconds)
_CellDone = Tuple[CellSpec, _Outcome, int, float]


@dataclass
class _Pending:
    spec: CellSpec
    attempt: int
    ready_at: float
    started_at: float = 0.0


class _RetryTracker:
    """Shared retry bookkeeping: decides re-queue vs final failure."""

    def __init__(self, retries: int, backoff: float) -> None:
        self.retries = retries
        self.backoff = backoff
        self.rng = random.Random()

    def next_delay(self, attempt: int) -> float:
        return _backoff_delay(self.backoff, attempt, self.rng)

    def should_retry(self, outcome: _Outcome, attempt: int) -> bool:
        if attempt > self.retries:
            return False
        kind = outcome[0]
        if kind == "error":
            return bool(outcome[4])
        if kind in ("crash", "hung"):
            # A crashed or wedged worker says nothing about the cell's
            # inputs — both are environmental, both retry.
            return True
        return False  # timeouts: the budget was already spent once


#: Error type and message template of each outcome a worker did not
#: report itself, formatted with the outcome's second field.
_WORKER_FAILURES = {
    "crash": ("WorkerCrash",
              "worker process died with exit code {} before reporting a result"),
    "timeout": (CellTimeoutError.__name__,
                "cell exceeded its {:g}s wall-clock budget and was terminated"),
    "hung": ("WorkerHung", "worker stopped heartbeating for {:g}s and was recycled"),
}


def _failure_from_outcome(spec: CellSpec, outcome: _Outcome, attempts: int) -> CellFailure:
    if outcome[0] == "error":
        _, error_type, message, tb, _transient, telemetry = outcome
        return CellFailure(
            spec.workload, spec.config_name, error_type, message, tb, attempts,
            telemetry=telemetry,
        )
    error_type, template = _WORKER_FAILURES[outcome[0]]
    return CellFailure(spec.workload, spec.config_name, error_type,
                       template.format(outcome[1]), "", attempts)


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


#: Attempt-start notification: ``(spec, attempt)``; retries re-notify.
_Notify = Callable[[CellSpec, int], None]

#: Attempt-end notification: ``(spec, attempt, outcome)``, for every
#: attempt, retried ones included, before the retry decision.
_OnOutcome = Callable[[CellSpec, int, _Outcome], None]


def _run_serial(
    cells: Sequence[CellSpec],
    retry: _RetryTracker,
    fault_hook: Optional[FaultHook],
    notify: _Notify,
    on_outcome: _OnOutcome,
) -> Generator[_CellDone, None, None]:
    """In-process serial executor (``workers == 1``, no timeout/supervision).

    One trace source serves the whole sweep and is emptied when the
    generator finishes or is closed.
    """
    source = _TraceSource()
    try:
        for spec in cells:
            attempt = 1
            started = time.monotonic()
            while True:
                notify(spec, attempt)
                outcome = _run_attempt(spec, source, fault_hook, attempt, None)
                # (no plan arg: the ambient injector, if any, is already
                # active in this process — serial faults hit the campaign
                # itself, which is exactly what a serial chaos run asserts)
                on_outcome(spec, attempt, outcome)
                if outcome[0] != "ok" and retry.should_retry(outcome, attempt):
                    time.sleep(retry.next_delay(attempt))
                    attempt += 1
                    continue
                yield spec, outcome, attempt, time.monotonic() - started
                break
    finally:
        source.close()


class _Worker:
    """One long-lived process of the supervised pool.

    The parent hands it one cell attempt at a time over a duplex pipe
    and reads the outcome back.  With *hang_grace* set the worker
    carries a shared heartbeat slot (a lock-free ``RawValue`` — a plain
    8-byte read, safe even when the child is SIGSTOPped holding no
    lock) that a daemon thread in the child stamps every
    :data:`_HEARTBEAT_INTERVAL` seconds; a stale stamp marks the worker
    *hung* — distinct from a timeout, which a busy-but-healthy cell can
    also hit.
    """

    def __init__(self, ctx, fault_hook: Optional[FaultHook],
                 plan: Optional[FaultPlan], timeout: Optional[float],
                 hang_grace: Optional[float]) -> None:
        self.timeout = timeout
        self.hang_grace = hang_grace
        self.heartbeat = (
            ctx.RawValue("d", time.monotonic()) if hang_grace is not None else None
        )
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, fault_hook, plan, self.heartbeat),
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # only the child holds its end: its death reads as EOF
        #: The attempt this worker is running, or None while idle.
        self.pending: Optional[_Pending] = None
        self.deadline: Optional[float] = None

    def submit(self, pending: _Pending) -> None:
        """Hand *pending* to this idle worker and start its budget."""
        self.pending = pending
        self.deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        try:
            self.conn.send((pending.spec, pending.attempt, time.time()))
        except OSError:
            pass  # died since its liveness check: poll() reports the crash

    def poll(self) -> Optional[_Outcome]:
        """The running attempt's outcome once it finished, died, hung or expired."""
        # Sample liveness *before* draining the pipe: a worker that sends
        # its outcome and then dies between the two checks is caught by
        # the message branch, never misreported as a crash.
        alive = self.process.is_alive()
        if self.conn.poll():
            try:
                return self.conn.recv()  # ("ok", ...) | ("error", ...)
            except (EOFError, OSError):  # died without a whole message
                self.reap()
                return ("crash", self.process.exitcode)
        if not alive:
            self.reap()
            return ("crash", self.process.exitcode)
        now = time.monotonic()
        if (
            self.heartbeat is not None
            and now - self.heartbeat.value >= self.hang_grace
        ):
            # A stopped/wedged process ignores SIGTERM; go straight to
            # SIGKILL instead of wasting the graceful-shutdown window.
            self.process.kill()
            self.reap()
            return ("hung", self.hang_grace, self.process.pid)
        if self.deadline is not None and now >= self.deadline:
            self.process.terminate()
            self.reap()
            return ("timeout", self.timeout)
        return None

    def stop(self) -> None:
        """Ask an idle worker to exit (SIGKILL a busy one), then reap it."""
        if self.pending is not None:
            self.process.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:
                pass  # already dead: reap() collects it
        self.reap()

    def reap(self) -> None:
        """Join the exiting process (SIGKILL past a grace) and close the pipe."""
        self.process.join(_KILL_GRACE)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


def _run_supervised(
    cells: Sequence[CellSpec],
    workers: int,
    timeout: Optional[float],
    retry: _RetryTracker,
    fault_hook: Optional[FaultHook],
    notify: _Notify,
    on_outcome: _OnOutcome,
    plan: Optional[FaultPlan] = None,
    hang_grace: Optional[float] = None,
) -> Generator[_CellDone, None, None]:
    """Supervised pool: at most *workers* long-lived, killable processes.

    Workers start lazily and run one cell attempt at a time.  Retries
    are rescheduled through a ready-time queue so the backoff never
    blocks sibling cells.  A worker that crashes, stops heartbeating
    for *hang_grace* seconds, or overruns its *timeout* budget is
    killed if need be and replaced on demand; one found dead while idle
    is replaced before it is handed a cell, so its death is never
    charged to one.  Every worker is stopped and reaped when the
    generator finishes or is closed.
    """
    ctx = _mp_context()
    queue: List[_Pending] = [_Pending(spec, 1, 0.0) for spec in cells]
    pool: List[_Worker] = []
    try:
        while queue or any(w.pending is not None for w in pool):
            for worker in [w for w in pool if w.pending is None]:
                if not worker.process.is_alive():
                    worker.reap()
                    pool.remove(worker)
            now = time.monotonic()
            for pending in [p for p in queue if p.ready_at <= now]:
                worker = next((w for w in pool if w.pending is None), None)
                if worker is None:
                    if len(pool) == workers:
                        break
                    worker = _Worker(ctx, fault_hook, plan, timeout, hang_grace)
                    pool.append(worker)
                queue.remove(pending)
                notify(pending.spec, pending.attempt)
                if pending.started_at == 0.0:
                    pending.started_at = now
                worker.submit(pending)
            busy = [w for w in pool if w.pending is not None]
            # Sleeps at most one poll interval; wakes early on an outcome or
            # a death.  Heartbeats and deadlines are checked at that pace.
            connection.wait([w.conn for w in busy]
                            + [w.process.sentinel for w in busy], _POLL_INTERVAL)
            for worker in busy:
                outcome = worker.poll()
                if outcome is None:
                    continue
                pending, worker.pending = worker.pending, None
                if worker.conn.closed:  # reaped: replaced on demand
                    pool.remove(worker)
                on_outcome(pending.spec, pending.attempt, outcome)
                if outcome[0] != "ok" and retry.should_retry(outcome, pending.attempt):
                    delay = retry.next_delay(pending.attempt)
                    queue.append(
                        _Pending(
                            pending.spec,
                            pending.attempt + 1,
                            time.monotonic() + delay,
                            pending.started_at,
                        )
                    )
                    continue
                yield (
                    pending.spec,
                    outcome,
                    pending.attempt,
                    time.monotonic() - pending.started_at,
                )
    finally:
        for worker in pool:  # finished, interrupted or raised: no leaked children
            worker.stop()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def git_revision() -> str:
    """Short git revision of the source tree, or ``"unknown"``.

    Recorded in every store manifest.  Resolved once per process:
    ``git rev-parse`` costs milliseconds, and the source a process
    runs does not change under it.  A short timeout keeps a wedged
    VCS from stalling a sweep; a tree without git records
    ``"unknown"``.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=2.0,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def check_obs_history(obs_history: Optional[bool]) -> None:
    """Validate the inert ``obs_history`` keyword of the campaign entry points.

    Earlier builds appended a record to a run-history file here; the
    history is gone, and a run's provenance now lives in its store
    manifest.  ``None`` and ``False`` are accepted and do nothing, so
    callers that switched the history off keep working (perfbench
    passes ``False``).  Anything else raises :class:`SimulationError`
    rather than silently dropping the record the caller asked for.
    The keyword goes with the benchmark change that stops passing it.
    """
    if obs_history is not None and obs_history is not False:
        raise SimulationError(
            f"obs_history={obs_history!r} is not supported: the run-history "
            f"store was removed; a store's manifest records the git "
            f"revision, host and python of each run instead"
        )


def check_length_warmup(length: int, warmup: Optional[int]) -> None:
    """Refuse a measured *length* below 1 or a negative *warmup*.

    Both campaign entry points call this before anything touches a
    store or a trace, and the message names the value the caller gave
    (a bad length would otherwise surface later as a trace error
    quoting length plus the derived warm-up).  ``warmup=None`` means
    "derive it from *length*" and passes.
    """
    if length < 1:
        raise SimulationError(f"length must be >= 1, got {length}")
    if warmup is not None and warmup < 0:
        raise SimulationError(f"warmup must be >= 0, got {warmup}")


def check_sweep_options(*, workers: int, retries: int, timeout: Optional[float],
                        hang_grace: Optional[float] = None) -> None:
    """Refuse out-of-range execution options of a sweep (see :func:`run_sweep`).

    Like :func:`check_length_warmup`, both campaign entry points call
    this before anything touches a store, a trace or an output directory.
    """
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise SimulationError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise SimulationError(f"timeout must be positive, got {timeout}")
    if hang_grace is not None and hang_grace <= 0:
        raise SimulationError(f"hang_grace must be positive, got {hang_grace}")


def sweep_warmup(length: int, warmup: Optional[int]) -> int:
    """The warm-up of a sweep's cells: *warmup*, else ``length // 3``.

    ``repro sweep``, ``run_workload`` and ``repro trace build`` /
    ``prewarm`` share this default; ``repro paper`` warms up for
    ``length // 2`` instead (:func:`repro.figures.pipeline.run_paper`),
    so traces prewarmed for it need an explicit warm-up.
    """
    return length // 3 if warmup is None else warmup


def run_sweep(
    configs: Mapping[str, Mapping[str, Any]],
    *,
    workloads: Optional[Sequence[str]] = None,
    length: int = 100_000,
    seed: int = 0,
    warmup: Optional[int] = None,
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.25,
    hang_grace: Optional[float] = None,
    store: Optional[Union[RunStore, str, "os.PathLike[str]"]] = None,
    resume: bool = False,
    fault_hook: Optional[FaultHook] = None,
    trace_cache: Union[bool, str, "os.PathLike[str]", TraceCache, None] = True,
    observer: Optional[SweepObserver] = None,
    obs_history: Optional[bool] = None,
) -> SweepReport:
    """Run a workload×config sweep fault-tolerantly.

    A sweep attempts every cell it plans, except that with a store and
    ``resume=True`` a cell whose stored record is an ``ok`` result that
    decodes is replayed instead.  Every other planned cell runs: a
    missing one, a stored failure, a stored result that does not decode
    (event ``store.undecodable``).  Its new record supersedes the old.

    Args:
        configs: ``{config_name: simulate-kwargs}``, each a
            :func:`~repro.sim.simulator.simulate` keyword set.
        workloads: workload names (default: the full SPEC2000 stand-in set).
        length, seed, warmup: as for ``run_workload``; *warmup*
            defaults to ``length // 3``.  A *length* below 1 or a
            negative *warmup* raises before the store is touched.
        workers: concurrent cells.  1 with neither *timeout* nor
            *hang_grace* runs in-process; anything else runs on the
            supervised pool of at most *workers* worker processes.
        timeout: per-cell wall-clock budget in seconds.  Requires child
            processes, so even ``workers=1`` runs cells out-of-process
            when a timeout is set.
        retries: extra attempts for transiently-failed cells (crashes and
            non-:class:`ReproError` exceptions; deterministic domain
            errors and timeouts are not retried).
        backoff: base delay for exponential backoff between attempts.
        hang_grace: seconds a worker may go without heartbeating before
            it is declared *hung*, SIGKILLed, and its cell retried
            (subject to *retries*).  Catches workers that are wedged —
            SIGSTOPped, deadlocked, stuck in a syscall — which a
            wall-clock *timeout* only notices after the full budget.
            Like *timeout*, requires child processes, so setting it
            selects the supervised pool.  Every hang lands in
            ``report.telemetry["hangs"]`` and the Chrome trace.
        store: checkpoint path or :class:`RunStore`; every finished cell
            is appended, with its telemetry and the metric banks it
            collected, or as a structured failure record.  The
            manifest line each call appends records the sweep
            parameters and the run's provenance: ``git_rev`` (see
            :func:`git_revision`), ``host`` and ``python``.  Resume
            compares only the parameters, so a campaign may continue
            across revisions and machines.
        resume: allow continuing into an existing, compatible store,
            replaying its ``ok`` results.
        fault_hook: test/chaos hook run in the worker before simulation.
        trace_cache: content-addressed trace cache shared by all cells.
            ``True`` (default) uses the default root (see
            :func:`repro.traces.cache.default_cache_root`), a path uses
            that root, a :class:`TraceCache` is used as-is, and
            ``False`` disables caching.  With a cache, the trace of each
            workload that has a cell to execute is materialized at most
            once per sweep, prewarmed in the parent.  Either way each
            executor (the in-process loop, or each pool worker) loads or
            synthesizes a workload's trace once and serves that one
            :class:`~repro.traces.trace.Trace` to all of its cells and
            retries of the workload.
        observer: :class:`~repro.obs.progress.SweepObserver` receiving
            lifecycle hooks in the parent process: sweep start and end,
            the start of every cell attempt (a retry reports again) and
            each cell's completion — e.g. a
            :class:`~repro.obs.progress.SweepProgress` for a live
            status line.
        obs_history: inert, kept only because perfbench passes
            ``False``; it goes with the benchmark change that drops
            that argument (see :func:`check_obs_history`).

    Returns:
        A :class:`SweepReport`; failed cells appear in ``report.failures``
        rather than raising, so partial results stay usable (call
        :meth:`SweepReport.raise_on_failure` to raise instead).  Every
        executed cell's phase breakdown (spawn/synthesis/simulate, and
        with a store the ``serialize`` phase of its record's write)
        lands in ``report.cell_telemetry`` and, with a store, in its
        checkpoint record for ``repro report --timing``.  Every
        attempt's counters, a retried one's too, are merged into
        ``report.telemetry``; a crashed, timed-out or hung worker
        reports none.
    """
    check_length_warmup(length, warmup)
    check_sweep_options(workers=workers, retries=retries, timeout=timeout,
                        hang_grace=hang_grace)
    if not configs:
        raise SimulationError("no configurations given")
    check_obs_history(obs_history)
    names = list(workloads) if workloads is not None else list(SPEC2000)
    for name in names:
        get_workload(name)  # fail fast on unknown workloads
    resolved_warmup = sweep_warmup(length, warmup)

    ambient = current_telemetry()
    sweep_started = time.time()
    sweep_mono = time.monotonic()
    parent_tele = Telemetry()
    sweep_phases: Dict[str, List[float]] = {}

    cache = resolve_cache(trace_cache)
    cache_root = os.fspath(cache.root) if cache is not None else None

    cells = [
        CellSpec(
            workload=name,
            config_name=config_name,
            config=dict(config),
            length=length,
            seed=seed,
            warmup=resolved_warmup,
            trace_cache=cache_root,
        )
        for name in names
        for config_name, config in configs.items()
    ]

    # The ambient fault plan (if a FaultInjector is armed here) ships to
    # worker processes so injection sites fire there too.
    ambient_injector = current_injector()
    plan = ambient_injector.plan if ambient_injector.armed else None

    run_store: Optional[RunStore] = None
    owns_store = False
    executor: Optional[Generator[_CellDone, None, None]] = None
    replayed: Dict[CellKey, SimulationResult] = {}
    retry = _RetryTracker(retries, backoff)
    try:
        if store is not None:
            run_store = store if isinstance(store, RunStore) else RunStore(store)
            owns_store = not isinstance(store, RunStore)
            manifest = {
                "length": length,
                "seed": seed,
                "warmup": resolved_warmup,
                "machine": config_digest(paper_machine()),
                "workloads": names,
                "configs": {name: config_digest(config) for name, config in configs.items()},
                "created": time.time(),
                "git_rev": git_revision(),
                "host": platform.node() or "unknown",
                "python": platform.python_version(),
            }
            prior = run_store.start(manifest, resume=resume)
            wanted = {cell.key for cell in cells}
            for key, record in prior.items():
                if key not in wanted or record.get("status") != "ok":
                    continue  # a stored failure runs again
                try:
                    replayed[key] = SimulationResult.from_dict(record.get("result"))
                except SimulationError as exc:
                    # Parses but does not decode (a flipped byte in a
                    # packed bank): the cell re-runs and supersedes it.
                    parent_tele.event(
                        "store.undecodable", workload=key[0], config=key[1],
                        error=str(exc),
                    )

        to_run = [cell for cell in cells if cell.key not in replayed]

        if cache is not None:
            # Materialize the trace of each workload that still has a cell
            # to execute exactly once, in the parent, before any cell
            # runs: workers then mmap the shared entries instead of
            # re-synthesizing per cell×retry.  A replayed workload is
            # never loaded.
            pending = list(dict.fromkeys(cell.workload for cell in to_run))
            total = length + resolved_warmup
            prewarm_start = time.time()
            t0 = time.monotonic()
            # The parent's own cache counters land in the sweep telemetry.
            with parent_tele:
                for name in pending:
                    cache.prewarm(name, total, seed)
            sweep_phases["prewarm"] = [prewarm_start, time.monotonic() - t0]

        def notify(spec: CellSpec, attempt: int) -> None:
            if observer is not None:
                observer.on_cell_start(spec.workload, spec.config_name, attempt)
            parent_tele.event(
                "cell.start", workload=spec.workload, config=spec.config_name,
                attempt=attempt,
            )

        if observer is not None:
            observer.on_sweep_start(len(to_run), workers)
        parent_tele.event(
            "sweep.start", cells=len(cells), to_run=len(to_run),
            replayed=len(replayed), workers=workers,
            workloads=names, configs=list(configs),
        )

        # Hang observations; recycled-and-retried hangs are recorded too.
        hangs: List[Dict[str, Any]] = []

        def on_outcome(spec: CellSpec, attempt: int, outcome: _Outcome) -> None:
            kind = outcome[0]
            if kind in ("ok", "error"):  # a retried attempt logged events too
                parent_tele.merge(outcome[-1])
            elif kind == "hung":
                _, grace, pid = outcome
                hangs.append({
                    "workload": spec.workload, "config": spec.config_name,
                    "attempt": attempt, "pid": pid, "grace": grace,
                    "detected_at": time.time(),
                })
                parent_tele.event(
                    "worker.hung", workload=spec.workload, config=spec.config_name,
                    attempt=attempt, pid=pid, grace=grace,
                )

        execute_start = time.time()
        t0 = time.monotonic()
        if workers == 1 and timeout is None and hang_grace is None:
            executor = _run_serial(to_run, retry, fault_hook, notify, on_outcome)
        else:
            executor = _run_supervised(
                to_run, workers, timeout, retry, fault_hook, notify, on_outcome,
                plan, hang_grace,
            )

        completed: Dict[CellKey, SimulationResult] = dict(replayed)
        failures: List[CellFailure] = []
        attempts: Dict[CellKey, int] = {}
        cell_telemetry: Dict[CellKey, Dict[str, Any]] = {}
        for spec, outcome, cell_attempts, elapsed in executor:
            attempts[spec.key] = cell_attempts
            if outcome[0] == "ok":
                _, result, cell_tele = outcome
                completed[spec.key] = result
                cell_telemetry[spec.key] = cell_tele
                if run_store is not None:
                    run_store.record_result(
                        spec.workload,
                        spec.config_name,
                        result,
                        attempts=cell_attempts,
                        elapsed=elapsed,
                        telemetry=cell_tele,
                    )
                parent_tele.event(
                    "cell.ok", workload=spec.workload, config=spec.config_name,
                    attempts=cell_attempts, elapsed=round(elapsed, 6),
                )
            else:
                failure = _failure_from_outcome(spec, outcome, cell_attempts)
                failures.append(failure)
                if run_store is not None:
                    run_store.record_failure(failure)
                parent_tele.event(
                    "cell.failed", workload=spec.workload, config=spec.config_name,
                    error_type=failure.error_type, attempts=cell_attempts,
                    elapsed=round(elapsed, 6),
                )
            if observer is not None:
                observer.on_cell_done(
                    spec.workload,
                    spec.config_name,
                    outcome[0] == "ok",
                    cell_attempts,
                    elapsed,
                    counters=cell_telemetry.get(spec.key, {}).get("counters"),
                )
        sweep_phases["execute"] = [execute_start, time.monotonic() - t0]
    finally:
        if executor is not None:
            # Runs the executor's finally block after an error too: busy
            # workers are killed, idle ones stopped and reaped.
            executor.close()
        if run_store is not None and owns_store:
            run_store.close()

    results: Dict[str, Dict[str, SimulationResult]] = {}
    for cell in cells:
        if cell.key in completed:
            results.setdefault(cell.workload, {})[cell.config_name] = completed[cell.key]
        else:
            results.setdefault(cell.workload, {})

    wall_time = time.monotonic() - sweep_mono
    report = SweepReport(
        results=results,
        failures=failures,
        executed=len(to_run),
        replayed=len(replayed),
        attempts=attempts,
        cell_telemetry=cell_telemetry,
        telemetry={"started": sweep_started, "phases": sweep_phases,
                   "hangs": hangs, "counters": parent_tele.counters},
        wall_time=wall_time,
    )
    parent_tele.event(
        "sweep.end", ok=report.ok_cells, failed=len(failures),
        retried=report.retried, replayed=len(replayed),
        wall_time=round(wall_time, 6), summary=report.summary(),
    )
    if ambient.enabled:
        # Surface everything (worker counters included) to the caller's
        # own Telemetry context.
        ambient.merge(report.telemetry)
    if observer is not None:
        observer.on_sweep_end(report)
    return report
