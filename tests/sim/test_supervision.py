"""Worker-supervision tests: heartbeat hang detection and recycling.

A SIGSTOPped worker is the canonical *true hang*: every thread —
including its heartbeat thread — freezes, it consumes no CPU, and it
never exits on its own, so only heartbeat staleness (not a timeout and
not process death) can catch it quickly.
"""

import os
import signal
import time

from repro.obs.tracing import build_sweep_trace
from repro.sim.runner import run_sweep

LENGTH = 1200

#: Flag file making the stop hook fire only on the first attempt
#: (cross-process state: the hook runs in freshly-started workers).
_FLAG_ENV = "REPRO_TEST_STOP_FLAG"


def _stop_self_once(workload, config, attempt):
    if workload != "eon":
        return
    flag = os.environ[_FLAG_ENV]
    if os.path.exists(flag):
        return
    with open(flag, "w") as fh:
        fh.write(str(os.getpid()))
    os.kill(os.getpid(), signal.SIGSTOP)  # freeze: heartbeats stop too


def _stop_self_always(workload, config, attempt):
    if workload == "eon":
        os.kill(os.getpid(), signal.SIGSTOP)


class TestHangDetection:
    def test_hung_worker_recycled_and_cell_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_FLAG_ENV, str(tmp_path / "stopped.flag"))
        started = time.monotonic()
        report = run_sweep(
            {"base": {}},
            workloads=["gzip", "eon"],
            length=LENGTH,
            workers=2,
            timeout=30,
            hang_grace=1.0,
            retries=1,
            fault_hook=_stop_self_once,
        )
        elapsed = time.monotonic() - started
        # The hang was detected by heartbeat staleness long before the
        # 30s timeout budget would have fired.
        assert elapsed < 20
        assert not report.failures
        assert set(report.results["eon"]) == {"base"}
        assert report.attempts[("eon", "base")] == 2  # recycled, then retried
        # The detection is observable: telemetry counter, hang log entry,
        # and a worker.hung instant in the Chrome trace.
        assert report.telemetry["counters"]["worker.hung"] == 1
        hangs = report.telemetry["hangs"]
        assert len(hangs) == 1
        assert hangs[0]["workload"] == "eon"
        assert hangs[0]["attempt"] == 1
        assert hangs[0]["grace"] == 1.0
        assert hangs[0]["pid"]
        trace = build_sweep_trace(report)
        hung_events = [e for e in trace.events if e["name"] == "worker.hung"]
        assert len(hung_events) == 1
        assert hung_events[0]["args"]["cell"] == "eon:base"

    def test_hang_without_retries_is_worker_hung_failure(self):
        report = run_sweep(
            {"base": {}},
            workloads=["eon"],
            length=LENGTH,
            workers=1,
            hang_grace=1.0,  # no timeout: supervision alone selects the engine
            fault_hook=_stop_self_always,
        )
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.error_type == "WorkerHung"
        assert "heartbeat" in failure.message

    def test_healthy_slow_cells_not_flagged(self):
        # Grace far above the heartbeat interval: normal cells never trip.
        report = run_sweep(
            {"base": {}, "perfect": {"perfect_non_cold": True}},
            workloads=["gzip"],
            length=LENGTH,
            workers=2,
            hang_grace=5.0,
        )
        assert not report.failures
        assert report.telemetry["hangs"] == []
        assert "worker.hung" not in report.telemetry["counters"]
