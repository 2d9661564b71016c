"""Fault-tolerant experiment runner for workload×config sweeps.

Every headline figure of the paper is produced by the same campaign
shape — N workloads × M machine configurations, compared on IPC — and a
campaign of long-running cells needs properties a serial in-process loop
does not have:

- **isolation**: one cell raising, hanging, or crashing its process must
  not discard the other cells' completed work;
- **parallelism**: independent cells run concurrently on a process pool;
- **timeouts**: a pathological configuration is killed after a wall-clock
  budget and recorded, instead of wedging the campaign;
- **retries**: transient failures (a crashed worker, an injected flake)
  are retried with exponential backoff + jitter;
- **resumability**: completed cells checkpoint to an append-only JSONL
  store (:mod:`repro.sim.store`) and a re-run replays them from disk.

:func:`run_sweep` is the entry point; it returns a :class:`SweepReport`
whose ``results`` mapping matches :func:`repro.sim.sweep.run_suite` and
whose ``failures`` list records every cell that did not produce a result.

Execution engines
-----------------

Three engines share the same scheduling/bookkeeping loop:

- ``workers == 1`` and no timeout: serial **in-process** execution (the
  fast, debuggable fallback — exceptions are still caught per-cell);
- ``workers > 1`` and no timeout: a :class:`concurrent.futures.
  ProcessPoolExecutor` with ``workers`` processes;
- any ``workers`` with a timeout: one dedicated ``multiprocessing``
  process per cell attempt (at most ``workers`` concurrent), because
  enforcing a wall-clock budget requires the ability to *terminate* a
  running worker, which a pool executor cannot do without poisoning its
  sibling tasks.

Processes are forked where the platform allows (so closures and test
fixtures work as fault hooks); on spawn-only platforms every spec and
hook must be picklable by reference.  Cell results cross the process
boundary by pickling, so ``collect_metrics=True`` works under all
engines — only results *replayed from a store* lose their ``metrics``
(see :meth:`SimulationResult.to_dict`).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import sys
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, CancelledError, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..common.config import MachineConfig, config_digest, paper_machine
from ..common.errors import CellTimeoutError, ReproError, SimulationError
from ..faults.injector import FaultInjector, current_injector
from ..faults.plan import FaultPlan
from ..obs.history import (
    ObsStore,
    append_best_effort,
    resolve_history,
    sweep_run_record,
)
from ..obs.logging import current_logger
from ..obs.metrics import Telemetry
from ..obs.metrics import current as current_telemetry
from ..obs.profiling import PROFILE_MODES
from ..obs.progress import SweepObserver
from ..traces.cache import TraceCache, resolve_cache
from ..traces.workloads import SPEC2000, get_workload
from .results import SimulationResult
from .store import CellKey, RunStore
from .simulator import simulate

#: Per-cell progress callback: ``(workload, config_name)`` as the cell starts.
CellProgress = Callable[[str, str], None]

#: Fault-injection hook, called in the worker just before simulation:
#: ``(workload, config_name, attempt)``; raising makes the attempt fail.
FaultHook = Callable[[str, str, int], None]

#: Scheduler poll interval (seconds) for the subprocess engines.
_POLL_INTERVAL = 0.02

#: Grace period between SIGTERM and SIGKILL for a timed-out worker.
_KILL_GRACE = 5.0

#: How often a supervised worker writes its heartbeat timestamp.
_HEARTBEAT_INTERVAL = 0.2


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
    machine: Optional[MachineConfig] = None
    #: Trace-cache root (str — picklable across spawn), or None to
    #: synthesize in the worker.
    trace_cache: Optional[str] = None
    #: Dispatch engine ("batch" with automatic scalar fallback, or
    #: "scalar").  Kept outside ``config`` so the config digest — and
    #: with it checkpoint-store identity — is engine-independent, as
    #: results are bitwise-identical between engines.
    engine: str = "batch"
    #: Fidelity tier ("exact" or "sampled").  Unlike ``engine`` this
    #: *does* change results, so it enters the sweep manifest (stores
    #: refuse to resume across tiers).
    fidelity: str = "exact"
    #: Deep-profiling mode armed in the worker around the simulate
    #: phase ("cpu" = cProfile, "mem" = tracemalloc), or None.  Like
    #: ``engine`` it never changes results, so it stays out of the
    #: config digest.
    profile: Optional[str] = None

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
    #: counters collected up to the failure), when the sweep was
    #: collecting telemetry and the worker lived to report it.
    telemetry: Optional[Dict[str, Any]] = None
    #: True when this failure was *replayed* from the checkpoint store:
    #: the cell exhausted its retries in an earlier invocation and is
    #: quarantined — excluded from re-execution on resume unless the
    #: sweep passes ``retry_poisoned=True``.
    poisoned: bool = False

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
            "poisoned": self.poisoned,
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

    ``results`` has the :func:`~repro.sim.sweep.run_suite` shape —
    ``{workload: {config_name: result}}`` in sweep order — holding every
    cell that succeeded (this run or replayed from the store).  Failed
    cells are absent from ``results`` and present in ``failures``.
    """

    results: Dict[str, Dict[str, SimulationResult]]
    failures: List[CellFailure] = field(default_factory=list)
    #: Cells actually executed by this invocation (not replayed).
    executed: int = 0
    #: Cells replayed from the checkpoint store.
    replayed: int = 0
    #: Attempts used per completed/failed cell key.
    attempts: Dict[CellKey, int] = field(default_factory=dict)
    #: Per-cell telemetry (phase timings, counters) for cells executed
    #: with telemetry collection on; replayed cells are absent.
    cell_telemetry: Dict[CellKey, Dict[str, Any]] = field(default_factory=dict)
    #: Sweep-level telemetry: ``started`` (epoch), ``phases`` (parent
    #: prewarm/execute), merged worker ``counters``/``gauges``/``timers``.
    telemetry: Optional[Dict[str, Any]] = None
    #: Wall-clock seconds for the whole invocation.
    wall_time: float = 0.0
    #: Stored failures quarantined on resume (present in ``failures``
    #: with ``poisoned=True``, excluded from re-execution).
    poisoned: int = 0
    #: True when the circuit breaker stopped the sweep early; the
    #: remaining cells were never attempted (absent from ``attempts``).
    aborted: bool = False
    #: Human-readable reason the breaker tripped, when ``aborted``.
    abort_reason: str = ""

    @property
    def ok_cells(self) -> int:
        """Number of cells with a usable result (executed or replayed)."""
        return sum(len(configs) for configs in self.results.values())

    @property
    def retried(self) -> int:
        """Cells that needed more than one attempt (completed or failed)."""
        return sum(1 for n in self.attempts.values() if n > 1)

    def fidelity_counts(self) -> Dict[str, int]:
        """Completed-cell count per fidelity tier, in tier order.

        A mixed-fidelity store (e.g. an exact campaign resumed next to a
        sampled scouting run read through one report) is legible at a
        glance; a plain exact sweep returns ``{"exact": N}``.
        """
        counts: Dict[str, int] = {}
        for configs in self.results.values():
            for result in configs.values():
                tier = getattr(result, "fidelity", "exact")
                counts[tier] = counts.get(tier, 0) + 1
        return counts

    def worst_error_bars(self) -> Dict[str, Dict[str, Any]]:
        """Largest 95% confidence half-width per metric across all cells.

        Scans every completed result carrying ``error_bars`` (the
        sampled tier) and keeps, per metric, the cell with the widest
        interval: ``{metric: {"ci95", "mean", "workload", "config"}}``.
        Empty for sweeps with no sampled cells.
        """
        worst: Dict[str, Dict[str, Any]] = {}
        for workload, configs in self.results.items():
            for config_name, result in configs.items():
                error_bars = getattr(result, "error_bars", None)
                if not error_bars:
                    continue
                for metric, stats in error_bars.items():
                    if not isinstance(stats, Mapping) or "ci95" not in stats:
                        continue
                    if metric not in worst or stats["ci95"] > worst[metric]["ci95"]:
                        worst[metric] = {
                            "ci95": stats["ci95"],
                            "mean": stats.get("mean", 0.0),
                            "workload": workload,
                            "config": config_name,
                        }
        return worst

    def summary(self) -> str:
        """One-line human digest, shared by the CLI, logs, and tests."""
        total = self.ok_cells + len(self.failures)
        text = (
            f"{total} cells: {self.ok_cells} ok "
            f"({self.replayed} replayed from store), "
            f"{len(self.failures)} failed, "
            f"{self.retried} retried in {self.wall_time:.1f}s"
        )
        if self.poisoned:
            text += f", {self.poisoned} poisoned cell(s) quarantined"
        counts = self.fidelity_counts()
        if counts and counts != {"exact": self.ok_cells}:
            text += ", fidelity " + "+".join(
                f"{n} {tier}" for tier, n in sorted(counts.items())
            )
            worst = self.worst_error_bars()
            if "l1_miss_rate" in worst:
                w = worst["l1_miss_rate"]
                text += (
                    f", worst miss-rate CI ±{w['ci95']:.4f} "
                    f"({w['workload']}:{w['config']})"
                )
        if self.aborted:
            text += f" [ABORTED: {self.abort_reason}]"
        return text

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

    ``spawn`` measures parent-submit to worker-entry (process start
    cost); it only exists on the subprocess engines.  Timestamps are
    wall-clock epoch seconds so phases recorded by different processes
    land on one timeline.
    """
    tele: Dict[str, Any] = {"pid": os.getpid(), "attempt": attempt, "phases": {}}
    if submitted_at is not None:
        tele["phases"]["spawn"] = [submitted_at, max(0.0, time.time() - submitted_at)]
    return tele


def _execute_cell(
    spec: CellSpec,
    fault_hook: Optional[FaultHook],
    attempt: int,
    cell_telemetry: Optional[Dict[str, Any]] = None,
) -> SimulationResult:
    """Materialize the cell's trace and simulate it (runs in the worker).

    With a trace cache configured the trace is served mmap-backed from
    the parent's prewarmed entry — retries and sibling cells share one
    materialization.  Without one (``trace_cache=False``) it is
    synthesized here, once per cell attempt, as before.

    When *cell_telemetry* is given, the three worker phases are timed
    into it (``synthesis``, ``simulate``, ``serialize`` — the last is
    one :meth:`SimulationResult.to_dict`, the conversion every store
    write and report pays) and an ambient :class:`Telemetry` captures
    the cell's counters (trace-cache outcomes, simulator throughput).
    The dict is filled in place so a raising phase still leaves the
    completed phases for failure records.  ``cell_telemetry=None`` is
    the untimed original path.
    """
    workload = get_workload(spec.workload)
    total = spec.length + spec.warmup
    if cell_telemetry is None:
        if spec.trace_cache is not None:
            trace = TraceCache(root=spec.trace_cache).get_or_build(
                spec.workload, total, spec.seed)
        else:
            trace = workload.build(length=total, seed=spec.seed)
        if fault_hook is not None:
            fault_hook(spec.workload, spec.config_name, attempt)
        _fire_mid_cell(spec, attempt)
        kwargs = dict(spec.config)
        kwargs.setdefault("ipa", workload.ipa)
        kwargs.setdefault("warmup", spec.warmup)
        kwargs.setdefault("engine", spec.engine)
        if spec.machine is not None:
            kwargs.setdefault("machine", spec.machine)
        return _simulate_spec(spec, trace, kwargs)

    phases = cell_telemetry.setdefault("phases", {})

    def timed(name):  # records [epoch_start, duration] under *name*
        class _Phase:
            def __enter__(self_inner):
                self_inner.start = time.time()
                self_inner.t0 = time.perf_counter()
                return self_inner

            def __exit__(self_inner, *exc):
                phases[name] = [self_inner.start,
                                time.perf_counter() - self_inner.t0]

        return _Phase()

    with Telemetry() as tele:
        try:
            with timed("synthesis"):
                if spec.trace_cache is not None:
                    trace = TraceCache(root=spec.trace_cache).get_or_build(
                        spec.workload, total, spec.seed)
                else:
                    trace = workload.build(length=total, seed=spec.seed)
            if fault_hook is not None:
                fault_hook(spec.workload, spec.config_name, attempt)
            _fire_mid_cell(spec, attempt)
            kwargs = dict(spec.config)
            kwargs.setdefault("ipa", workload.ipa)
            kwargs.setdefault("warmup", spec.warmup)
            kwargs.setdefault("engine", spec.engine)
            if spec.machine is not None:
                kwargs.setdefault("machine", spec.machine)
            tele.count("sweep.fidelity." + spec.fidelity)
            with timed("simulate"):
                if spec.profile is not None:
                    from ..obs.profiling import profile_block

                    with profile_block(spec.profile) as prof:
                        result = _simulate_spec(spec, trace, kwargs)
                    cell_telemetry["profile"] = prof.stats()
                else:
                    result = _simulate_spec(spec, trace, kwargs)
            with timed("serialize"):
                result.to_dict()
        finally:
            snapshot = tele.snapshot()
            cell_telemetry["counters"] = snapshot["counters"]
            cell_telemetry["gauges"] = snapshot["gauges"]
            cell_telemetry["timers"] = snapshot["timers"]
    return result


def _simulate_spec(spec: CellSpec, trace, kwargs: Dict[str, Any]) -> SimulationResult:
    """Run one cell's trace at the spec's fidelity tier.

    Exact cells call :func:`simulate` directly — the pre-fidelity code
    path, byte-for-byte.  Sampled cells go through
    :func:`~repro.sim.sampling.simulate_with_fidelity`, with the sweep
    seed driving the interval selection.
    """
    if spec.fidelity == "exact":
        return simulate(trace, **kwargs)  # type: ignore[arg-type]
    from .sampling import simulate_with_fidelity

    return simulate_with_fidelity(trace, spec.fidelity, seed=spec.seed, **kwargs)


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
    fault_hook: Optional[FaultHook],
    attempt: int,
    submitted_at: Optional[float],
    collect: bool,
    plan: Optional[FaultPlan] = None,
) -> _Outcome:
    """Execute one attempt and fold the result/exception into an outcome.

    Shared by all three engines (it is the function the pool engine
    submits), so the outcome shape — including the trailing telemetry
    slot — is identical everywhere.

    *plan* re-arms the parent's fault plan in the executing process
    when no ambient injector is active there — the spawn-engine path;
    forked workers usually inherit the parent's armed injector instead
    and keep it (so its hit counters carry over the fork).
    """
    scope = None
    if plan is not None and not current_injector().armed:
        scope = FaultInjector(plan)
        scope.__enter__()
    tele = _new_cell_telemetry(attempt, submitted_at) if collect else None
    try:
        injector = current_injector()
        if injector.armed:
            injector.on_event(
                "worker.start", workload=spec.workload,
                config=spec.config_name, attempt=attempt,
            )
        result = _execute_cell(spec, fault_hook, attempt, tele)
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


def _cell_worker(spec, fault_hook, attempt, conn, submitted_at,
                 collect, plan=None, heartbeat=None) -> None:  # pragma: no cover — child
    """Dedicated-process entry point: send outcome over *conn* and exit."""
    if heartbeat is not None:
        threading.Thread(
            target=_heartbeat_loop, args=(heartbeat,), daemon=True
        ).start()
    try:
        conn.send(_run_attempt(spec, fault_hook, attempt, submitted_at,
                               collect, plan))
    finally:
        conn.close()


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
# ("timeout", budget) | ("hung", grace).  The telemetry slot is None
# when collection is off; crashed/timed-out/hung workers never report one.
_Outcome = Tuple[Any, ...]

# Engine yield: (spec, outcome, attempts, elapsed_seconds)
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


def _failure_from_outcome(spec: CellSpec, outcome: _Outcome, attempts: int) -> CellFailure:
    kind = outcome[0]
    if kind == "error":
        _, error_type, message, tb, _transient, telemetry = outcome
        return CellFailure(
            spec.workload, spec.config_name, error_type, message, tb, attempts,
            telemetry=telemetry,
        )
    if kind == "crash":
        exitcode = outcome[1]
        return CellFailure(
            spec.workload,
            spec.config_name,
            "WorkerCrash",
            f"worker process died with exit code {exitcode} before reporting a result",
            "",
            attempts,
        )
    if kind == "timeout":
        return CellFailure(
            spec.workload,
            spec.config_name,
            CellTimeoutError.__name__,
            f"cell exceeded its {outcome[1]:g}s wall-clock budget and was terminated",
            "",
            attempts,
        )
    if kind == "hung":
        return CellFailure(
            spec.workload,
            spec.config_name,
            "WorkerHung",
            f"worker stopped heartbeating for {outcome[1]:g}s and was recycled",
            "",
            attempts,
        )
    raise AssertionError(f"unexpected outcome {outcome!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------


#: Attempt-start notification: ``(spec, attempt)``; retries re-notify.
_Notify = Callable[[CellSpec, int], None]


def _run_serial(
    cells: Sequence[CellSpec],
    retry: _RetryTracker,
    fault_hook: Optional[FaultHook],
    notify: Optional[_Notify],
    collect: bool,
) -> Iterator[_CellDone]:
    """In-process serial engine (``workers == 1``, no timeout/supervision)."""
    for spec in cells:
        attempt = 1
        started = time.monotonic()
        while True:
            if notify is not None:
                notify(spec, attempt)
            outcome = _run_attempt(spec, fault_hook, attempt, None, collect)
            # (no plan arg: the ambient injector, if any, is already
            # active in this process — serial faults hit the campaign
            # itself, which is exactly what a serial chaos run asserts)
            if outcome[0] != "ok" and retry.should_retry(outcome, attempt):
                time.sleep(retry.next_delay(attempt))
                attempt += 1
                continue
            yield spec, outcome, attempt, time.monotonic() - started
            break


def _run_pool(
    cells: Sequence[CellSpec],
    workers: int,
    retry: _RetryTracker,
    fault_hook: Optional[FaultHook],
    notify: Optional[_Notify],
    collect: bool,
    plan: Optional[FaultPlan] = None,
) -> Iterator[_CellDone]:
    """ProcessPoolExecutor engine (``workers > 1``, no timeout).

    Retries are rescheduled through a ready-time queue so the backoff
    never blocks sibling cells.  A :class:`BrokenProcessPool` (a worker
    hard-crashed, e.g. OOM-killed) fails every in-flight future, so the
    executor is rebuilt and the affected cells are treated as crashed
    attempts of their own.
    """
    ctx = _mp_context()
    executor = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
    queue: List[_Pending] = [_Pending(spec, 1, 0.0) for spec in cells]
    in_flight: Dict[Any, _Pending] = {}
    broken = False
    try:
        while queue or in_flight:
            now = time.monotonic()
            if broken:
                executor.shutdown(wait=False, cancel_futures=True)
                executor = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
                broken = False
            ready = [p for p in queue if p.ready_at <= now]
            for pending in ready:
                queue.remove(pending)
                if notify is not None:
                    notify(pending.spec, pending.attempt)
                if pending.started_at == 0.0:
                    pending.started_at = now
                fut = executor.submit(
                    _run_attempt, pending.spec, fault_hook, pending.attempt,
                    time.time() if collect else None, collect, plan,
                )
                in_flight[fut] = pending
            if not in_flight:
                time.sleep(_POLL_INTERVAL)
                continue
            done, _ = futures_wait(in_flight, timeout=_POLL_INTERVAL, return_when=FIRST_COMPLETED)
            for fut in done:
                pending = in_flight.pop(fut)
                try:
                    # _run_attempt returns a full outcome tuple ("ok" or
                    # "error"); only pool-infrastructure failures raise.
                    outcome: _Outcome = fut.result()
                except BrokenProcessPool:
                    outcome = ("crash", "unknown (process pool broke)")
                    broken = True
                except CancelledError:
                    # Pending in a pool that broke before this task started.
                    outcome = ("crash", "unknown (cancelled by broken pool)")
                except Exception as exc:  # e.g. result unpickling failure
                    outcome = (
                        "error", type(exc).__name__, str(exc),
                        traceback.format_exc(), _is_transient(exc), None,
                    )
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
        executor.shutdown(wait=False, cancel_futures=True)


class _WorkerProc:
    """One dedicated worker process executing one cell attempt.

    With *hang_grace* set the worker carries a shared heartbeat slot
    (a lock-free ``RawValue`` — a plain 8-byte read, safe even when the
    child is SIGSTOPped holding no lock) that a daemon thread in the
    child stamps every :data:`_HEARTBEAT_INTERVAL` seconds; a stale
    stamp marks the worker *hung* — distinct from a timeout, which a
    busy-but-healthy cell can also hit.
    """

    def __init__(self, ctx, pending: _Pending, fault_hook,
                 timeout: Optional[float], collect: bool = False,
                 plan: Optional[FaultPlan] = None,
                 hang_grace: Optional[float] = None) -> None:
        self.pending = pending
        self.timeout = timeout
        self.hang_grace = hang_grace
        self.heartbeat = (
            ctx.RawValue("d", time.monotonic()) if hang_grace is not None else None
        )
        self.recv_conn, send_conn = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_cell_worker,
            args=(pending.spec, fault_hook, pending.attempt, send_conn,
                  time.time() if collect else None, collect, plan,
                  self.heartbeat),
            daemon=True,
        )
        self.process.start()
        send_conn.close()  # keep only the child's handle on the write end
        self.deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )

    def poll(self) -> Optional[_Outcome]:
        """Outcome if the attempt finished/expired/hung, else None."""
        # Sample liveness *before* draining the pipe: a worker that sends
        # its result and exits between the two checks is then caught by
        # the message branch now or on the next poll, never misreported
        # as a crash.
        alive = self.process.is_alive()
        if self.recv_conn.poll():
            try:
                message = self.recv_conn.recv()
            except EOFError:  # closed write end without a message
                message = None
            self._finish()
            if message is None:
                return ("crash", self.process.exitcode)
            return message  # ("ok", result, tele) | ("error", type, msg, tb, transient, tele)
        if not alive:
            # Exited without a message in the pipe: a hard crash.
            self._finish()
            return ("crash", self.process.exitcode)
        now = time.monotonic()
        if (
            self.heartbeat is not None
            and now - self.heartbeat.value >= self.hang_grace
        ):
            # A stopped/wedged process ignores SIGTERM; go straight to
            # SIGKILL instead of wasting the graceful-shutdown window.
            self.kill(hard=True)
            return ("hung", self.hang_grace)
        if self.deadline is not None and now >= self.deadline:
            self.kill()
            return ("timeout", self.timeout)
        return None

    def kill(self, hard: bool = False) -> None:
        if self.process.is_alive():
            if not hard:
                self.process.terminate()
                self.process.join(_KILL_GRACE)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        self.recv_conn.close()

    def _finish(self) -> None:
        self.process.join()
        self.recv_conn.close()


#: Hang notification from the dedicated-process engine:
#: ``(spec, attempt, pid, grace)``, fired before the retry decision so
#: recycled-and-retried hangs are observable too.
_OnHang = Callable[[CellSpec, int, Optional[int], float], None]


def _run_processes(
    cells: Sequence[CellSpec],
    workers: int,
    timeout: Optional[float],
    retry: _RetryTracker,
    fault_hook: Optional[FaultHook],
    notify: Optional[_Notify],
    collect: bool,
    plan: Optional[FaultPlan] = None,
    hang_grace: Optional[float] = None,
    on_hang: Optional[_OnHang] = None,
) -> Iterator[_CellDone]:
    """Dedicated-process engine: kill-capable, used for timeout/supervision.

    At most *workers* cells run concurrently, each in its own process so
    a cell that exceeds its wall-clock budget — or stops heartbeating
    for *hang_grace* seconds — is killed and recycled without disturbing
    its siblings.
    """
    ctx = _mp_context()
    queue: List[_Pending] = [_Pending(spec, 1, 0.0) for spec in cells]
    running: List[_WorkerProc] = []
    try:
        while queue or running:
            now = time.monotonic()
            ready = [p for p in queue if p.ready_at <= now]
            while ready and len(running) < workers:
                pending = ready.pop(0)
                queue.remove(pending)
                if notify is not None:
                    notify(pending.spec, pending.attempt)
                if pending.started_at == 0.0:
                    pending.started_at = now
                running.append(
                    _WorkerProc(ctx, pending, fault_hook, timeout, collect,
                                plan, hang_grace)
                )
            made_progress = False
            for worker in list(running):
                pid = worker.process.pid
                outcome = worker.poll()
                if outcome is None:
                    continue
                made_progress = True
                running.remove(worker)
                pending = worker.pending
                if outcome[0] == "hung" and on_hang is not None:
                    on_hang(pending.spec, pending.attempt, pid, outcome[1])
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
            if not made_progress:
                time.sleep(_POLL_INTERVAL)
    finally:
        for worker in running:  # interrupted/aborted: don't leak children
            worker.kill(hard=True)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_sweep(
    configs: Mapping[str, Mapping[str, Any]],
    *,
    workloads: Optional[Sequence[str]] = None,
    length: int = 100_000,
    seed: int = 0,
    machine: Optional[MachineConfig] = None,
    warmup: Optional[int] = None,
    progress: Optional[CellProgress] = None,
    workers: int = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.25,
    hang_grace: Optional[float] = None,
    max_failure_rate: Optional[float] = None,
    store: Optional[Union[RunStore, str, "os.PathLike[str]"]] = None,
    resume: bool = False,
    retry_poisoned: bool = False,
    fault_hook: Optional[FaultHook] = None,
    trace_cache: Union[bool, str, "os.PathLike[str]", TraceCache, None] = True,
    observer: Optional[SweepObserver] = None,
    telemetry: Optional[bool] = None,
    store_metrics: bool = False,
    engine: str = "batch",
    fidelity: str = "exact",
    profile: Optional[str] = None,
    obs_history: Union[None, bool, str, "os.PathLike[str]", "ObsStore"] = None,
) -> SweepReport:
    """Run a workload×config sweep fault-tolerantly.

    Args:
        configs: ``{config_name: simulate-kwargs}`` as for ``run_suite``.
        workloads: workload names (default: the full SPEC2000 stand-in set).
        length, seed, machine, warmup: as for ``run_workload``; *warmup*
            defaults to ``length // 3``.
        progress: called with ``(workload, config_name)`` as each cell
            starts (each retry attempt re-reports).
        workers: concurrent cells; 1 selects the in-process serial path.
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
            selects the dedicated-process engine.  Every hang lands in
            ``report.telemetry["hangs"]`` and the Chrome trace.
        max_failure_rate: circuit breaker — abort the sweep when
            freshly-failed cells exceed this fraction of the campaign
            (e.g. ``0.5``: more than half failing means the environment
            is broken, not the cells; stop burning compute).  Completed
            work stays recorded and resumable; ``report.aborted`` is
            set.  ``None`` (default) never trips.
        store: checkpoint path or :class:`RunStore`; every finished cell
            is appended, and with ``resume=True`` previously completed
            cells are replayed from disk instead of re-executed.
        resume: allow continuing into an existing, compatible store.
        retry_poisoned: on resume, re-execute cells whose stored record
            is a failure.  Off by default: a cell that already exhausted
            its retries is *poisoned* — replayed as a failure (with
            ``poisoned=True``) and quarantined from execution so one
            deterministic crasher cannot re-wedge every resume.
        fault_hook: test/chaos hook run in the worker before simulation.
        trace_cache: content-addressed trace cache shared by all cells.
            ``True`` (default) uses the default root (see
            :func:`repro.traces.cache.default_cache_root`), a path uses
            that root, a :class:`TraceCache` is used as-is, and
            ``False`` disables caching (every cell attempt re-synthesizes
            its trace in the worker, the pre-cache behavior).  With a
            cache, each workload's trace is materialized at most once per
            sweep — prewarmed in the parent, then served mmap-backed to
            every worker, cell, and retry.
        observer: :class:`~repro.obs.progress.SweepObserver` receiving
            lifecycle hooks (sweep start/end, per-attempt cell starts,
            per-cell completions) in the parent process — e.g. a
            :class:`~repro.obs.progress.SweepProgress` for a live
            status line.
        telemetry: per-cell phase timing and counter collection.
            ``None`` (default) turns it on exactly when someone is
            listening — an ambient :class:`~repro.obs.metrics.Telemetry`
            or :class:`~repro.obs.logging.JsonlLogger` context is
            active, or an *observer* was passed; ``True``/``False``
            force it.  When on, every executed cell's phase breakdown
            (spawn/synthesis/simulate/serialize) lands in
            ``report.cell_telemetry``, merged counters in
            ``report.telemetry``, and — with a store — in each cell's
            checkpoint record for ``repro report --timing``.
        store_metrics: persist each result's full
            :class:`~repro.core.metrics.TimekeepingMetrics` state into
            the checkpoint store (no effect without *store*).  Off by
            default because metric banks dominate the record size; the
            ``repro paper`` pipeline turns it on so every figure can be
            derived from the store alone.
        engine: dispatch engine for every cell — ``"batch"`` (default,
            with automatic scalar fallback per cell) or ``"scalar"``.
            A cell's own config may override via an ``"engine"`` key.
            Engine choice does not enter the store's config digests:
            results are bitwise-identical between engines, so stores
            written under either engine resume interchangeably.
        fidelity: fidelity tier for every cell — ``"exact"`` (default,
            the full simulator) or ``"sampled"`` (representative-interval
            extrapolation with confidence intervals, ~10-20× faster).
            Unlike *engine* this changes results, so it is
            recorded in the store manifest (a store refuses to resume
            under a different tier) along with the sampled tier's
            deterministic window selection, which depends only on
            (length, warmup, seed) and is therefore identical across
            ``--resume`` and any worker count.
        profile: deep-profiling mode armed in every worker around the
            simulate phase — ``"cpu"`` (cProfile) or ``"mem"``
            (tracemalloc).  Each cell ships a top-N table back in its
            telemetry; the parent merges them into
            ``report.telemetry["profile"]``.  Implies telemetry
            collection.  ``None`` (default) arms nothing.
        obs_history: cross-run history file
            (:class:`~repro.obs.history.ObsStore`, path, or ``None``)
            that one distilled record of this sweep is appended to on
            completion — the ``repro obs`` observatory's data source.
            ``None`` consults the ``REPRO_OBS_HISTORY`` environment
            variable; ``False`` disables appends even when the
            variable is set.  Appends are best-effort: a locked or
            unwritable history warns on stderr instead of failing a
            completed sweep.  Implies telemetry collection.

    Returns:
        A :class:`SweepReport`; failed cells appear in ``report.failures``
        rather than raising, so partial results stay usable.
    """
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise SimulationError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise SimulationError(f"timeout must be positive, got {timeout}")
    if hang_grace is not None and hang_grace <= 0:
        raise SimulationError(f"hang_grace must be positive, got {hang_grace}")
    if max_failure_rate is not None and not 0.0 <= max_failure_rate <= 1.0:
        raise SimulationError(
            f"max_failure_rate must be in [0, 1], got {max_failure_rate}"
        )
    if not configs:
        raise SimulationError("no configurations given")
    from .results import FIDELITIES

    if fidelity not in FIDELITIES:
        raise SimulationError(
            f"unknown fidelity {fidelity!r}; expected one of {FIDELITIES}"
        )
    names = list(workloads) if workloads is not None else list(SPEC2000)
    for name in names:
        get_workload(name)  # fail fast on unknown workloads
    resolved_warmup = length // 3 if warmup is None else warmup

    if profile is not None and profile not in PROFILE_MODES:
        raise SimulationError(
            f"unknown profile mode {profile!r}; expected one of {PROFILE_MODES}"
        )
    history = resolve_history(obs_history)

    # Telemetry collection: default on exactly when someone is listening.
    ambient = current_telemetry()
    logger = current_logger()
    collect = (
        telemetry
        if telemetry is not None
        else bool(ambient.enabled or logger.enabled or observer is not None)
    )
    if profile is not None or history is not None:
        # Profiles ride in cell telemetry, and a history record without
        # counters would be hollow: both imply collection.
        collect = True
    sweep_started = time.time()
    sweep_mono = time.monotonic()
    parent_tele = Telemetry()
    sweep_phases: Dict[str, List[float]] = {}

    cache = resolve_cache(trace_cache)
    cache_root: Optional[str] = None
    if cache is not None:
        # Materialize each workload's trace exactly once, in the parent,
        # before any cell runs: workers then mmap the shared entries
        # instead of re-synthesizing per cell×retry.
        total = length + resolved_warmup
        prewarm_start = time.time()
        t0 = time.monotonic()
        if collect:
            with parent_tele:  # capture the parent's own cache counters
                for name in names:
                    cache.prewarm(name, total, seed)
            sweep_phases["prewarm"] = [prewarm_start, time.monotonic() - t0]
        else:
            for name in names:
                cache.prewarm(name, total, seed)
        cache_root = os.fspath(cache.root)

    cells = [
        CellSpec(
            workload=name,
            config_name=config_name,
            config=dict(config),
            length=length,
            seed=seed,
            warmup=resolved_warmup,
            machine=machine,
            trace_cache=cache_root,
            engine=engine,
            fidelity=fidelity,
            profile=profile,
        )
        for name in names
        for config_name, config in configs.items()
    ]

    # Stable identity of this sweep for the cross-run history: what the
    # store manifest records, minus the created-at timestamp.  Computed
    # even without a store so storeless sweeps still group correctly.
    manifest_digest = config_digest({
        "length": length,
        "seed": seed,
        "warmup": resolved_warmup,
        "machine": config_digest(machine if machine is not None else paper_machine()),
        "workloads": names,
        "configs": {name: config_digest(config) for name, config in configs.items()},
        "fidelity": fidelity,
    })

    # The ambient fault plan (if a FaultInjector is armed here) ships to
    # worker processes so injection sites fire there too.
    ambient_injector = current_injector()
    plan = ambient_injector.plan if ambient_injector.armed else None

    run_store: Optional[RunStore] = None
    owns_store = False
    replayed: Dict[CellKey, SimulationResult] = {}
    poisoned: List[CellFailure] = []
    retry = _RetryTracker(retries, backoff)
    try:
        if store is not None:
            run_store = store if isinstance(store, RunStore) else RunStore(store)
            owns_store = not isinstance(store, RunStore)
            manifest = {
                "length": length,
                "seed": seed,
                "warmup": resolved_warmup,
                "machine": config_digest(machine if machine is not None else paper_machine()),
                "workloads": names,
                "configs": {name: config_digest(config) for name, config in configs.items()},
                "created": time.time(),
            }
            if fidelity != "exact":
                # Absent for exact sweeps so pre-fidelity stores stay
                # byte-compatible (and resumable) under this build.
                manifest["fidelity"] = fidelity
            if fidelity == "sampled":
                from .sampling import make_sampling_plan

                manifest["sampling"] = make_sampling_plan(
                    length + resolved_warmup, resolved_warmup, seed=seed,
                ).to_manifest()
            prior = run_store.start(manifest, resume=resume)
            wanted = {cell.key for cell in cells}
            for key, record in prior.items():
                if key not in wanted:
                    continue
                if record.get("status") == "ok":
                    replayed[key] = SimulationResult.from_dict(record["result"])
                elif not retry_poisoned:
                    # A stored failure already exhausted its retries once;
                    # quarantine it instead of letting a deterministic
                    # crasher re-wedge every resume.
                    detail = record.get("failure")
                    if detail:
                        failure = CellFailure.from_dict(detail)
                    else:  # minimal pre-detail record
                        failure = CellFailure(
                            key[0], key[1], "Unknown",
                            "stored failure record without detail", "",
                            record.get("attempts", 1),
                        )
                    failure.poisoned = True
                    poisoned.append(failure)

        quarantined = {(f.workload, f.config) for f in poisoned}
        to_run = [
            cell for cell in cells
            if cell.key not in replayed and cell.key not in quarantined
        ]

        # Attempt-start fan-out: user callback, observer, JSONL log.
        notify: Optional[_Notify] = None
        if progress is not None or observer is not None or logger.enabled:
            def notify(spec: CellSpec, attempt: int) -> None:
                if progress is not None:
                    progress(spec.workload, spec.config_name)
                if observer is not None:
                    observer.on_cell_start(spec.workload, spec.config_name, attempt)
                logger.event(
                    "cell.start", workload=spec.workload, config=spec.config_name,
                    attempt=attempt,
                )

        if observer is not None:
            observer.on_sweep_start(len(to_run), workers)
        logger.event(
            "sweep.start", cells=len(cells), to_run=len(to_run),
            replayed=len(replayed), poisoned=len(poisoned), workers=workers,
            workloads=names, configs=list(configs),
        )

        # Hang observations (engine fires these before the retry
        # decision, so recycled-and-retried hangs are recorded too).
        hangs: List[Dict[str, Any]] = []

        def on_hang(spec: CellSpec, attempt: int, pid: Optional[int],
                    grace: float) -> None:
            hangs.append({
                "workload": spec.workload, "config": spec.config_name,
                "attempt": attempt, "pid": pid, "grace": grace,
                "detected_at": time.time(),
            })
            parent_tele.count("sweep.worker.hung")
            logger.event(
                "worker.hung", workload=spec.workload, config=spec.config_name,
                attempt=attempt, pid=pid, grace=grace,
            )

        execute_start = time.time()
        t0 = time.monotonic()
        if not to_run:
            engine: Iterator[_CellDone] = iter(())
        elif timeout is not None or hang_grace is not None:
            engine = _run_processes(
                to_run, workers, timeout, retry, fault_hook, notify, collect,
                plan, hang_grace, on_hang,
            )
        elif workers > 1:
            engine = _run_pool(to_run, workers, retry, fault_hook, notify,
                               collect, plan)
        else:
            engine = _run_serial(to_run, retry, fault_hook, notify, collect)

        completed: Dict[CellKey, SimulationResult] = dict(replayed)
        failures: List[CellFailure] = list(poisoned)
        fresh_failures = 0
        aborted = False
        abort_reason = ""
        attempts: Dict[CellKey, int] = {}
        cell_telemetry: Dict[CellKey, Dict[str, Any]] = {}
        for spec, outcome, cell_attempts, elapsed in engine:
            attempts[spec.key] = cell_attempts
            if outcome[0] == "ok":
                completed[spec.key] = outcome[1]
                cell_tele = outcome[2] if len(outcome) > 2 else None
                if cell_tele is not None:
                    cell_telemetry[spec.key] = cell_tele
                    parent_tele.merge(cell_tele)
                if run_store is not None:
                    with parent_tele.timer("store.append_seconds"):
                        run_store.record_result(
                            spec.workload,
                            spec.config_name,
                            outcome[1],
                            attempts=cell_attempts,
                            elapsed=elapsed,
                            telemetry=cell_tele,
                            include_metrics=store_metrics,
                        )
                logger.event(
                    "cell.ok", workload=spec.workload, config=spec.config_name,
                    attempts=cell_attempts, elapsed=round(elapsed, 6),
                )
            else:
                failure = _failure_from_outcome(spec, outcome, cell_attempts)
                failures.append(failure)
                fresh_failures += 1
                if failure.telemetry is not None:
                    parent_tele.merge(failure.telemetry)
                if run_store is not None:
                    run_store.record_failure(failure)
                logger.event(
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
                    counters=(cell_telemetry.get(spec.key) or {}).get("counters"),
                )
            if (
                max_failure_rate is not None
                and fresh_failures > max_failure_rate * len(cells)
            ):
                aborted = True
                abort_reason = (
                    f"{fresh_failures} of {len(cells)} cells failed, exceeding "
                    f"the max_failure_rate={max_failure_rate:g} circuit breaker"
                )
                parent_tele.count("sweep.aborted")
                logger.event(
                    "sweep.aborted", reason=abort_reason,
                    failed=fresh_failures, cells=len(cells),
                )
                # Closing the generator runs the engine's finally block:
                # in-flight workers are killed, nothing else is scheduled.
                engine.close()
                break
        if collect:
            sweep_phases["execute"] = [execute_start, time.monotonic() - t0]
    finally:
        if run_store is not None and owns_store:
            run_store.close()

    results: Dict[str, Dict[str, SimulationResult]] = {}
    for cell in cells:
        if cell.key in completed:
            results.setdefault(cell.workload, {})[cell.config_name] = completed[cell.key]
        else:
            results.setdefault(cell.workload, {})

    wall_time = time.monotonic() - sweep_mono
    snapshot = parent_tele.snapshot()
    merged_profile: Optional[Dict[str, Any]] = None
    if profile is not None:
        from ..obs.profiling import merge_profiles

        tables = [ct["profile"] for ct in cell_telemetry.values()
                  if ct.get("profile")]
        if tables:
            merged_profile = merge_profiles(tables, profile)
    report = SweepReport(
        results=results,
        failures=failures,
        executed=len(to_run),
        replayed=len(replayed),
        attempts=attempts,
        cell_telemetry=cell_telemetry,
        telemetry=(
            {"started": sweep_started, "wall_time": wall_time,
             "phases": sweep_phases, "hangs": hangs,
             **({"profile": merged_profile} if merged_profile else {}),
             **snapshot}
            if collect
            else None
        ),
        wall_time=wall_time,
        poisoned=len(poisoned),
        aborted=aborted,
        abort_reason=abort_reason,
    )
    if ambient.enabled and ambient is not parent_tele:
        # Surface everything (worker counters included) to the caller's
        # own Telemetry context.
        ambient.merge(snapshot)
    logger.event(
        "sweep.end", ok=report.ok_cells, failed=len(failures),
        retried=report.retried, replayed=len(replayed),
        wall_time=round(wall_time, 6), summary=report.summary(),
    )
    if observer is not None:
        observer.on_sweep_end(report)
    if history is not None:
        warning = append_best_effort(
            history, sweep_run_record(report, manifest_digest=manifest_digest))
        if warning is None:
            logger.event("obs.append", path=history.path, source="sweep",
                         manifest_digest=manifest_digest)
        else:
            logger.event("obs.append_failed", path=history.path,
                         error=warning)
            print(warning, file=sys.stderr)
    return report
