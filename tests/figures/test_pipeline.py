"""End-to-end tests for the ``repro paper`` pipeline.

Small scales throughout (shape verdicts at these lengths are allowed to
FAIL — the pipeline must still run, resume, and render; CI's full-scale
run is what validates the science).
"""

import pytest

from repro.common.errors import ConfigError
from repro.figures.pipeline import load_suite, plan_cells, render_report, run_paper
from repro.figures.registry import select_specs
from repro.sim.store import RunStore
from repro.traces.workloads import SPEC2000

WORKLOADS = ["gzip", "swim", "mcf"]
SCALE = dict(length=1200, workloads=WORKLOADS, trace_cache=False)


class TestPlanCells:
    def test_shared_config_planned_once(self):
        """fig01 and fig04 both need `base`: one group, no duplicate cells."""
        groups = plan_cells(select_specs(["fig01", "fig04"]))
        assert len(groups) == 1
        workloads, configs = groups[0]
        assert workloads == tuple(SPEC2000)
        assert set(configs) == {"base", "perfect"}

    def test_groups_split_by_workload_set(self):
        """fig20 needs pf_tk only on its best performers; base spans the suite."""
        groups = plan_cells(select_specs(["fig04", "fig20"]))
        by_configs = {tuple(sorted(configs)): workloads for workloads, configs in groups}
        assert ("base",) in by_configs
        assert by_configs[("base",)] == tuple(SPEC2000)
        assert ("pf_tk",) in by_configs
        assert 0 < len(by_configs[("pf_tk",)]) < len(SPEC2000)

    def test_union_covers_every_spec_cell(self):
        specs = select_specs(["fig02", "fig13", "fig19"])
        groups = plan_cells(specs)
        planned = {
            (w, c) for workloads, configs in groups for w in workloads for c in configs
        }
        for spec in specs:
            assert set(spec.cells(tuple(SPEC2000))) <= planned


class TestRoundTrip:
    def test_warm_rerun_is_byte_identical(self, tmp_path):
        out = str(tmp_path)
        first = run_paper(only=["fig02"], out_dir=out, **SCALE)
        assert first.executed == len(WORKLOADS) * 2  # base + perfect
        assert first.replayed == 0

        second = run_paper(only=["fig02"], out_dir=out, resume=True, **SCALE)
        assert second.executed == 0
        assert second.replayed == first.executed
        assert second.report_text == first.report_text

        with open(first.report_path, encoding="utf-8") as fh:
            assert fh.read() == second.report_text

    def test_report_structure(self, tmp_path):
        run = run_paper(only=["fig02"], out_dir=str(tmp_path), **SCALE)
        text = run.report_text
        assert "# Paper Reproduction Report" in text
        assert "## Verdicts" in text
        assert "| fig02 |" in text
        assert "```text" in text
        # Wall-clock phase times live in `repro report --timing`, not in
        # the report, so the report is the same on every machine.
        assert "## Sweep phase breakdown" not in text

    def test_absent_workloads_skip_not_fail(self, tmp_path):
        """Guarded checks on workloads outside the subset record SKIP."""
        run = run_paper(only=["fig02"], out_dir=str(tmp_path), **SCALE)
        (artifact,) = run.artifacts
        assert any(c.passed is None for c in artifact.checks)
        assert "SKIP" in run.report_text

    def test_store_holds_metrics_for_rederivation(self, tmp_path):
        """Figures derive from the store alone, so metric banks persist."""
        run = run_paper(only=["fig04"], out_dir=str(tmp_path), **SCALE)
        with RunStore(run.store_path) as store:
            suite, failed = load_suite(store)
        assert failed == 0
        assert suite["gzip"]["base"].metrics is not None


class TestOnePath:
    @pytest.mark.parametrize("workers,only", [
        (1, None),
        (2, None),
        (1, ["fig04", "fig20"]),  # two plan groups: base, and pf_tk on swim, mcf
    ], ids=["all-serial", "all-two-workers", "two-groups"])
    def test_report_matches_the_store_derived_reference(self, tmp_path, workers, only):
        """Figures built from the sweep's own results, live or replayed,
        match figures derived from the store alone."""
        run = run_paper(only=only, out_dir=str(tmp_path), workers=workers, **SCALE)
        assert run.executed > 0 and run.failures == 0
        specs = select_specs(only)
        with RunStore(run.store_path) as store:
            suite, failed = load_suite(store)
        reference = render_report(
            specs=specs,
            artifacts=[spec.build(spec.subset(suite)) for spec in specs],
            suite=suite,
            length=SCALE["length"],
            seed=0,
            warmup=SCALE["length"] // 2,
            failed_cells=failed,
        )
        assert run.report_text == reference

        warm = run_paper(only=only, out_dir=str(tmp_path), workers=workers, resume=True,
                         **SCALE)
        assert warm.executed == 0
        assert warm.report_text == reference

    def test_report_covers_only_the_planned_cells(self, tmp_path):
        """A resume over fewer workloads leaves the store's others out."""
        out = str(tmp_path)
        run_paper(only=["fig02"], out_dir=out, **dict(SCALE, workloads=["gzip", "swim"]))
        subset = run_paper(only=["fig02"], out_dir=out, resume=True,
                           **dict(SCALE, workloads=["gzip"]))
        assert (subset.executed, subset.replayed, subset.failures) == (0, 2, 0)
        assert "- workloads: 1 (gzip)" in subset.report_text
        assert "- cells: 2 ok, 0 failed" in subset.report_text

    def test_failed_cell_counted_live_and_poisoned(self, tmp_path):
        """A failed cell is counted in the report whether it failed in
        this run or is replayed from the store as poisoned."""
        def fail_gzip_perfect(workload, config, attempt):
            if (workload, config) == ("gzip", "perfect"):
                raise ConfigError("injected permanent fault")

        out = str(tmp_path)
        first = run_paper(only=["fig02"], out_dir=out, fault_hook=fail_gzip_perfect,
                          **SCALE)
        assert (first.executed, first.failures, first.passed) == (6, 1, False)
        assert "- cells: 5 ok, 1 failed" in first.report_text

        again = run_paper(only=["fig02"], out_dir=out, resume=True, **SCALE)
        assert (again.executed, again.replayed, again.failures) == (0, 5, 1)
        assert again.report_text == first.report_text


class TestResumeAfterKill:
    def test_midrun_kill_then_resume_completes(self, tmp_path):
        out = str(tmp_path)
        calls = []

        def kill_third_cell(workload, config, attempt):
            calls.append((workload, config))
            if len(calls) == 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_paper(only=["fig02"], out_dir=out, fault_hook=kill_third_cell, **SCALE)

        with RunStore(str(tmp_path / "paper_store.jsonl")) as store:
            _, cells = store.load()
        done_before = len(cells)
        assert 0 < done_before < len(WORKLOADS) * 2

        resumed = run_paper(only=["fig02"], out_dir=out, resume=True, **SCALE)
        assert resumed.replayed == done_before
        assert resumed.executed == len(WORKLOADS) * 2 - done_before
        assert resumed.failures == 0

        warm = run_paper(only=["fig02"], out_dir=out, resume=True, **SCALE)
        assert warm.executed == 0
        assert warm.report_text == resumed.report_text
