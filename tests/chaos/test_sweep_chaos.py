"""Whole-sweep chaos: crashes and faults through run_sweep / run_paper.

The convergence contract under test: whatever a seeded fault plan does
to a campaign — kill -9 mid-append, ENOSPC, flaky cells, a cell that
fails every attempt — a warm fault-free resume of the same store, with
no flag, ends with exactly the cells a never-faulted run produces.
"""

import json
import os

from repro.faults import FaultInjector, FaultPlan, run_armed
from repro.figures.pipeline import run_paper
from repro.sim.runner import run_sweep
from repro.sim.store import RunStore

WORKLOADS = ["gzip", "eon", "swim"]
LENGTH = 800


def _reference_cells(tmp_path):
    path = tmp_path / "reference.jsonl"
    run_sweep({"base": {}}, workloads=WORKLOADS, length=LENGTH,
              store=path, trace_cache=False)
    _, cells = RunStore(path).load()
    return _normalized(cells)


def _normalized(cells):
    out = {}
    for key, record in cells.items():
        rec = dict(record)
        rec.pop("created", None)
        rec.pop("elapsed", None)
        rec.pop("telemetry", None)  # wall-clock phase timings and pids
        rec["attempts"] = 0  # attempts legitimately differ across retries
        out[key] = rec
    return out


class TestKill9Convergence:
    def test_kill9_mid_append_then_resume_matches_fault_free_run(self, tmp_path):
        want = _reference_cells(tmp_path)
        faulty = tmp_path / "faulty.jsonl"
        plan = FaultPlan(seed=9).add(
            "store.append", "torn_write", trunc_bytes=25, then="kill9",
            at=2, match={"kind": "cell"},
        )
        result = run_armed(_sweep_to, str(faulty), plan=plan, timeout=300)
        assert result.status == "killed"
        assert result.exitcode == -9
        # the tear is on disk: the store's tail is not valid JSON
        assert RunStore(faulty).load_report().torn_tail is not None

        report = run_sweep({"base": {}}, workloads=WORKLOADS, length=LENGTH,
                           store=faulty, resume=True, trace_cache=False)
        assert not report.failures
        _, got = RunStore(faulty).load()
        assert _normalized(got) == want
        # the torn line was quarantined, not silently dropped
        sidecar = RunStore(faulty).quarantine_path
        assert os.path.exists(sidecar)
        with open(sidecar, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        # the tear is a clipped cell record: its raw prefix is preserved
        assert any(rec["raw"].startswith('{"kind":"cell"') for rec in records)


class TestStoredFailureConvergence:
    def test_failed_cell_then_resume_completes(self, tmp_path):
        want = _reference_cells(tmp_path)
        path = tmp_path / "failed.jsonl"
        plan = FaultPlan(seed=2).add(
            "worker.mid_cell", "raise", exception="RuntimeError",
            match={"workload": "eon"}, count=0,
        )
        with FaultInjector(plan):
            report = run_sweep({"base": {}}, workloads=WORKLOADS,
                               length=LENGTH, store=path, trace_cache=False)
        assert [(f.workload, f.error_type) for f in report.failures] == [
            ("eon", "RuntimeError")]

        resumed = run_sweep({"base": {}}, workloads=WORKLOADS, length=LENGTH,
                            store=path, resume=True, trace_cache=False)
        assert (resumed.executed, resumed.replayed) == (1, 2)
        assert not resumed.failures
        _, got = RunStore(path).load()
        assert _normalized(got) == want


class TestSeededRandomPlan:
    def test_random_plan_then_resume_converges(self, tmp_path, chaos_seed,
                                               save_plan):
        want = _reference_cells(tmp_path)
        path = tmp_path / "random.jsonl"
        plan = FaultPlan.random(chaos_seed)
        save_plan(plan, f"sweep-random-seed{chaos_seed}")

        result = run_armed(_sweep_to, str(path), plan=plan, timeout=300)
        # random plans use raise/torn_write only: the child either
        # finished (faults became recorded cell failures) or died on a
        # propagated store/cache error — both must be resumable.
        assert result.status in ("ok", "error"), result.error

        report = run_sweep({"base": {}}, workloads=WORKLOADS, length=LENGTH,
                           store=path, resume=True, trace_cache=False)
        assert not report.failures
        _, got = RunStore(path).load()
        assert _normalized(got) == want


class TestPaperPipelineUnderFaults:
    def test_run_paper_with_flaky_mid_cell_completes(self, tmp_path):
        plan = FaultPlan(seed=5).add(
            "worker.mid_cell", "raise", exception="RuntimeError",
            at=1, count=2,
        )
        out = str(tmp_path / "docs")
        with FaultInjector(plan) as inj:
            run = run_paper(only=["fig02"], out_dir=out, length=LENGTH,
                            workloads=["gzip", "swim", "mcf"],
                            trace_cache=False, retries=2)
        assert len(inj.records) == 2  # both flakes actually fired
        assert run.failures == 0
        assert os.path.exists(os.path.join(out, "REPRODUCTION.md"))
        # the retried cell converged: every planned cell is in the store
        _, cells = RunStore(run.store_path).load()
        assert all(rec["status"] == "ok" for rec in cells.values())


# run_armed targets: module-level so the forked child can resolve them.

def _sweep_to(path):
    run_sweep({"base": {}}, workloads=WORKLOADS, length=LENGTH,
              store=path, trace_cache=False)
