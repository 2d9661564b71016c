"""The supervised worker pool behind every out-of-process sweep.

At most ``workers`` long-lived processes run the cells; every one of
them is gone when ``run_sweep`` returns; and per-cell bookkeeping holds
when workers crash, cells flake and a cell overruns its budget, on
more workers than a two-core runner has cores.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.obs.progress import SweepObserver
from repro.obs.tracing import MAIN_TID, build_sweep_trace
from repro.sim.runner import run_sweep

LENGTH = 1200
WORKLOADS = ["gzip", "eon", "vpr", "swim"]
CONFIGS = {"base": {}, "perfect": {"perfect_non_cold": True}}

#: File the hooks append one ``pid workload config attempt`` line to per
#: attempt (cross-process state: the hooks run in worker processes).
_LOG_ENV = "REPRO_TEST_POOL_LOG"


def _log_attempt(workload, config, attempt):
    with open(os.environ[_LOG_ENV], "a") as fh:
        fh.write(f"{os.getpid()} {workload} {config} {attempt}\n")


def _stress_hook(workload, config, attempt):
    _log_attempt(workload, config, attempt)
    if config == "crash" and attempt == 1:
        os._exit(9)
    if config == "flaky" and attempt == 1:
        raise RuntimeError("transient: first attempt fails")
    if (workload, config) == ("eon", "slow"):
        time.sleep(30)


def _die_idle_or_flake(workload, config, attempt):
    if config == "dies_idle":
        # Finish this cell, then die idle before the retry below is due.
        threading.Timer(1.0, os._exit, (3,)).start()
    if config == "flaky" and attempt == 1:
        raise RuntimeError("transient: first attempt fails")


def _kill_sweep_parent(workload, config, attempt):
    _log_attempt(workload, config, attempt)
    if workload == "eon":
        os.kill(os.getppid(), signal.SIGKILL)


def _sweep_killed_by_its_worker(cache_root):
    run_sweep({"base": {}}, workloads=WORKLOADS, length=LENGTH, workers=2,
              fault_hook=_kill_sweep_parent, trace_cache=cache_root)


def _new_children(before):
    return [p for p in multiprocessing.active_children() if p not in before]


def _running(pid):
    """Whether *pid* is a live (not zombie) process, read from /proc."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


class _DoneCounter(SweepObserver):
    def __init__(self):
        self.done = {}

    def on_cell_done(self, workload, config, ok, attempts, elapsed, counters=None):
        key = (workload, config)
        self.done[key] = self.done.get(key, 0) + 1


class TestBoundedWorkers:
    def test_trace_has_at_most_one_lane_per_worker(self, tmp_path):
        report = run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH,
                           workers=2, timeout=60,
                           trace_cache=tmp_path / "cache")
        assert not report.failures
        assert len(report.cell_telemetry) == 8
        assert len({tele["pid"] for tele in report.cell_telemetry.values()}) <= 2
        trace = build_sweep_trace(report)
        lanes = {e["tid"] for e in trace.events
                 if e["ph"] == "X" and e["tid"] != MAIN_TID}
        assert 1 <= len(lanes) <= 2


class TestNoLeakedWorkers:
    def test_no_children_alive_after_return(self, tmp_path):
        before = multiprocessing.active_children()
        report = run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH,
                           workers=2, trace_cache=tmp_path / "cache")
        assert not report.failures
        assert _new_children(before) == []

    def test_no_children_alive_after_a_raise_mid_sweep(self, tmp_path):
        # The second cell record's store write raises in the parent, so
        # the sweep leaves the pool's result loop before it finishes.
        plan = FaultPlan(seed=0).add("store.append", "raise", at=2,
                                     match={"kind": "cell"})
        before = multiprocessing.active_children()
        with FaultInjector(plan) as injector:
            with pytest.raises(OSError):
                run_sweep(CONFIGS, workloads=WORKLOADS, length=LENGTH,
                          workers=2, store=tmp_path / "run.jsonl",
                          trace_cache=tmp_path / "cache")
        assert len(injector.records) == 1
        assert _new_children(before) == []

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="reads process states from /proc")
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path, monkeypatch):
        log = tmp_path / "attempts.log"
        monkeypatch.setenv(_LOG_ENV, str(log))
        sweep = multiprocessing.get_context("fork").Process(
            target=_sweep_killed_by_its_worker, args=(str(tmp_path / "cache"),))
        sweep.start()
        sweep.join(60)
        assert not sweep.is_alive()
        assert sweep.exitcode == -signal.SIGKILL
        pids = {int(line.split()[0]) for line in log.read_text().splitlines()}
        assert pids
        deadline = time.monotonic() + 15
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in pids if _running(pid)]


class TestReplacement:
    def test_worker_dead_while_idle_is_replaced_not_charged(self, tmp_path):
        # The retry waits out a backoff of at least 2s; by then the first
        # worker has died idle and must not be handed the retried cell.
        report = run_sweep({"dies_idle": {}, "flaky": {}}, workloads=["gzip"],
                           length=LENGTH, workers=2, timeout=60, retries=1,
                           backoff=4.0, fault_hook=_die_idle_or_flake,
                           trace_cache=tmp_path / "cache")
        assert not report.failures
        assert report.attempts == {("gzip", "dies_idle"): 1, ("gzip", "flaky"): 2}


class TestStress:
    def test_crashes_flakes_and_a_timeout_on_more_workers_than_cores(
            self, tmp_path, monkeypatch):
        log = tmp_path / "attempts.log"
        monkeypatch.setenv(_LOG_ENV, str(log))
        configs = {"base": {}, "crash": {}, "flaky": {}, "slow": {}}
        observer = _DoneCounter()
        started = time.monotonic()
        report = run_sweep(configs, workloads=WORKLOADS, length=LENGTH,
                           workers=4, timeout=4, retries=1, backoff=0.01,
                           fault_hook=_stress_hook, observer=observer,
                           trace_cache=tmp_path / "cache")
        assert time.monotonic() - started < 25  # nowhere near the 30s sleep

        cells = {(w, c) for w in WORKLOADS for c in configs}
        assert observer.done == {key: 1 for key in cells}
        expected = {key: 2 if key[1] in ("crash", "flaky") else 1 for key in cells}
        assert report.attempts == expected
        assert [(f.workload, f.config, f.error_type) for f in report.failures] == [
            ("eon", "slow", "CellTimeoutError")]
        ok = {(w, c) for w, results in report.results.items() for c in results}
        assert ok == cells - {("eon", "slow")}

        lines = [line.split() for line in log.read_text().splitlines()]
        crashed = [(i, pid) for i, (pid, _w, config, attempt) in enumerate(lines)
                   if config == "crash" and attempt == "1"]
        assert len(crashed) == len(WORKLOADS)
        for index, pid in crashed:
            assert all(later[0] != pid for later in lines[index + 1:]), pid
