"""Tests for the ambient FaultInjector and the crash harness."""

import errno
import json
import os
import signal

import pytest

from repro.common.errors import FaultPlanError
from repro.faults import (
    NULL_INJECTOR,
    FaultInjector,
    FaultPlan,
    current_injector,
    run_armed,
)
from repro.obs.metrics import Telemetry
from repro.sim.sweep import run_workload


class TestAmbientInstallation:
    def test_default_is_null_injector(self):
        assert current_injector() is NULL_INJECTOR
        assert not NULL_INJECTOR.armed
        # the null hooks are total no-ops
        NULL_INJECTOR.on_event("store.append")
        data, after = NULL_INJECTOR.on_write("store.append", b"payload")
        assert data == b"payload" and after is None

    def test_with_block_installs_and_removes(self):
        plan = FaultPlan().add("cache.read", "raise")
        with FaultInjector(plan) as inj:
            assert current_injector() is inj
            assert inj.armed
        assert current_injector() is NULL_INJECTOR

    def test_empty_plan_is_disarmed(self):
        with FaultInjector() as inj:
            assert not inj.armed
            assert current_injector() is inj


class TestInjection:
    def test_raise_fires_at_nth_hit_and_records(self):
        plan = FaultPlan().add("store.append", "raise", at=2,
                               errno_name="ENOSPC")
        with FaultInjector(plan) as inj:
            inj.on_event("store.append")  # hit 1: in the window? at=2 -> no
            with pytest.raises(OSError) as excinfo:
                inj.on_event("store.append")
            assert excinfo.value.errno == errno.ENOSPC
            inj.on_event("store.append")  # count=1: exhausted, no raise
        assert len(inj.records) == 1
        assert inj.records[0].site == "store.append"
        assert inj.records[0].mode == "raise"
        assert inj.records[0].pid == os.getpid()

    def test_match_filter_selects_context(self):
        plan = FaultPlan().add(
            "worker.mid_cell", "raise", exception="RuntimeError",
            match={"workload": "gzip"},
        )
        with FaultInjector(plan) as inj:
            inj.on_event("worker.mid_cell", workload="eon")  # no match
            with pytest.raises(RuntimeError):
                inj.on_event("worker.mid_cell", workload="gzip")

    def test_torn_write_truncates_then_raises(self):
        plan = FaultPlan().add("store.append", "torn_write", trunc_bytes=4)
        with FaultInjector(plan) as inj:
            clipped, after = inj.on_write("store.append", b"0123456789")
            assert clipped == b"0123"
            assert after is not None
            with pytest.raises(OSError):
                after()
        assert inj.records[0].mode == "torn_write"

    def test_torn_write_rejected_at_event_site(self):
        plan = FaultPlan().add("cache.read", "torn_write")
        with FaultInjector(plan) as inj:
            with pytest.raises(FaultPlanError, match="non-write site"):
                inj.on_event("cache.read")

    def test_hang_with_seconds_sleeps_and_returns(self):
        plan = FaultPlan().add("worker.start", "hang", seconds=0.01)
        with FaultInjector(plan) as inj:
            inj.on_event("worker.start")  # returns after the nap
        assert inj.records[0].mode == "hang"

    def test_injections_count_into_ambient_telemetry(self):
        plan = FaultPlan().add("cache.read", "raise", exception="RuntimeError")
        with Telemetry() as tele:
            with FaultInjector(plan) as inj:
                with pytest.raises(RuntimeError):
                    inj.on_event("cache.read")
        assert tele.counters["faults.injected"] == 1
        assert tele.counters["faults.site.cache.read"] == 1

    def test_journal_written_before_execution(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        plan = FaultPlan(journal=str(journal)).add(
            "store.fsync", "raise", exception="RuntimeError")
        with FaultInjector(plan) as inj:
            with pytest.raises(RuntimeError):
                inj.on_event("store.fsync", kind="cell")
        records = plan.read_journal()
        assert len(records) == 1
        assert records[0]["site"] == "store.fsync"
        assert records[0]["context"] == {"kind": "cell"}


class TestCrashHarness:
    def test_ok_result_round_trips(self):
        result = run_armed(_add, 2, 3, timeout=30)
        assert result.status == "ok"
        assert result.value == 5
        assert not result.killed

    def test_error_reports_traceback(self):
        result = run_armed(_boom, timeout=30)
        assert result.status == "error"
        assert "ValueError: boom" in result.error

    def test_kill9_reported_as_killed(self):
        plan = FaultPlan().add("store.append", "kill9")
        result = run_armed(_fire_store_append, plan=plan, timeout=30)
        assert result.status == "killed"
        assert result.killed
        assert result.exitcode == -signal.SIGKILL

    def test_timeout_kills_the_child(self):
        result = run_armed(_sleep_forever, timeout=0.5)
        assert result.status == "timeout"


class TestDisarmedIsInert:
    """Acceptance: the injector installed-but-idle changes nothing."""

    def test_simulation_identical_with_idle_injector(self):
        baseline = run_workload("gzip", {"base": {}}, length=1500, warmup=300)
        with FaultInjector():  # installed, no specs -> disarmed
            idle = run_workload("gzip", {"base": {}}, length=1500, warmup=300)
        a, b = baseline["base"], idle["base"]
        assert a.to_dict() == b.to_dict()

    def test_store_bytes_identical_with_idle_injector(self, tmp_path):
        from repro.sim.runner import run_sweep

        plain = tmp_path / "plain.jsonl"
        idle = tmp_path / "idle.jsonl"
        run_sweep({"base": {}}, workloads=["gzip"], length=1200, store=plain)
        with FaultInjector():
            run_sweep({"base": {}}, workloads=["gzip"], length=1200, store=idle)

        def records(path):
            # drop the wall-clock fields and the telemetry (timings,
            # pids), the only nondeterminism
            out = []
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                rec.pop("created", None)
                rec.pop("elapsed", None)
                rec.pop("telemetry", None)
                out.append(rec)
            return out

        assert records(plain) == records(idle)


# Module-level harness targets: picklable by reference, fork-safe.

def _add(a, b):
    return a + b


def _boom():
    raise ValueError("boom")


def _fire_store_append():
    current_injector().on_event("store.append")


def _sleep_forever():
    import time

    time.sleep(60)
