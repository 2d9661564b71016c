"""Tests for the sampled fidelity tier (repro.sim.sampling).

Covers the ISSUE gates: deterministic seeded window selection, the
selection recorded in the RunStore manifest, bitwise-identical results
fresh vs ``--resume`` and across worker counts, the full-coverage plan
degenerating to the exact simulator, and per-metric error bars.
"""

import pytest

from repro.common.errors import SimulationError
from repro.sim.results import FIDELITIES
from repro.sim.runner import run_sweep
from repro.sim.sampling import (
    DEFAULT_WINDOWS,
    SamplingPlan,
    make_sampling_plan,
    simulate_sampled,
    simulate_with_fidelity,
)
from repro.sim.simulator import simulate
from repro.sim.store import RunStore, StoreError
from repro.traces.workloads import build_workload

LENGTH = 12_000
WARMUP = 4_000


def _trace(name="gcc", length=LENGTH, seed=0):
    return build_workload(name, length=length, seed=seed)


class TestSamplingPlan:
    def test_deterministic_for_same_inputs(self):
        a = make_sampling_plan(100_000, 20_000, seed=7)
        b = make_sampling_plan(100_000, 20_000, seed=7)
        assert a == b

    def test_seed_changes_selection(self):
        a = make_sampling_plan(100_000, 20_000, seed=0)
        b = make_sampling_plan(100_000, 20_000, seed=1)
        assert a.windows != b.windows

    def test_windows_sorted_disjoint_in_measured_region(self):
        plan = make_sampling_plan(300_000, 60_000, seed=3)
        assert len(plan.windows) == DEFAULT_WINDOWS
        last_stop = plan.measure_start
        for start, stop in plan.windows:
            assert start >= last_stop
            assert stop > start
            last_stop = stop
        assert last_stop <= plan.total_length

    def test_manifest_roundtrips_selection(self):
        plan = make_sampling_plan(50_000, 10_000, seed=2)
        manifest = plan.to_manifest()
        assert manifest["windows"] == len(plan.windows)
        assert manifest["selected"] == [[s, e] for s, e in plan.windows]
        assert manifest["sample_warmup"] == plan.sample_warmup

    def test_empty_measured_region_rejected(self):
        with pytest.raises(SimulationError):
            make_sampling_plan(1_000, 1_000)

    def test_warmup_clamped(self):
        plan = make_sampling_plan(10_000, 2_000, sample_warmup=999_999)
        assert plan.warmup_start == 0
        assert plan.sample_warmup == 2_000


class TestSimulateSampled:
    def test_deterministic(self):
        trace = _trace()
        a = simulate_sampled(trace, warmup=WARMUP, seed=5)
        b = simulate_sampled(trace, warmup=WARMUP, seed=5)
        assert a.to_dict() == b.to_dict()

    def test_fidelity_stamped_and_serialized(self):
        result = simulate_sampled(_trace(), warmup=WARMUP)
        assert result.fidelity == "sampled"
        d = result.to_dict()
        assert d["fidelity"] == "sampled"
        assert "error_bars" in d

    def test_error_bars_structure(self):
        result = simulate_sampled(_trace(), warmup=WARMUP)
        bars = result.error_bars
        assert bars["confidence"] == 0.95
        assert bars["measured_accesses"] <= bars["simulated_accesses"]
        assert bars["extrapolation_scale"] >= 1.0
        for metric in ("l1_miss_rate", "ipc"):
            stats = bars[metric]
            assert set(stats) >= {"mean", "std", "ci95", "windows"}
            assert stats["windows"] == len(bars["plan"]["selected"])
            assert stats["ci95"] >= 0.0

    def test_full_coverage_plan_equals_exact(self):
        # A plan whose single window spans the whole measured region
        # with full warmup simulation degenerates to the exact tier.
        trace = _trace(length=6_000)
        warmup = 2_000
        plan = SamplingPlan(
            total_length=6_000, measure_start=warmup, warmup_start=0,
            seed=0, windows=((warmup, 6_000),),
        )
        sampled = simulate_sampled(trace, warmup=warmup, plan=plan)
        exact = simulate(trace, warmup=warmup)
        sampled_d = sampled.to_dict()
        # Only the tier stamp and its error bars may differ.
        sampled_d.pop("error_bars")
        assert sampled_d.pop("fidelity") == "sampled"
        assert sampled_d == exact.to_dict()

    def test_miss_rate_close_to_exact(self):
        trace = _trace("swim", length=40_000)
        exact = simulate(trace, warmup=10_000)
        sampled = simulate_sampled(trace, warmup=10_000)
        assert abs(sampled.l1_miss_rate - exact.l1_miss_rate) < 0.05


class TestSimulateWithFidelity:
    def test_exact_dispatch_is_bitwise_identical(self):
        trace = _trace(length=5_000)
        via = simulate_with_fidelity(trace, "exact", warmup=1_000)
        direct = simulate(trace, warmup=1_000)
        assert via.to_dict() == direct.to_dict()

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(SimulationError):
            simulate_with_fidelity(_trace(length=2_000), "psychic")

    def test_fidelities_registry(self):
        assert set(FIDELITIES) == {"exact", "sampled"}


CONFIGS = {"base": {}, "decay": {"decay_interval": 2_000}}


class TestSampledSweeps:
    def test_fresh_vs_resume_bitwise_identical(self, tmp_path):
        store = tmp_path / "run"
        first = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                          fidelity="sampled", store=store)
        second = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                           fidelity="sampled", store=store, resume=True)
        assert second.replayed == 2 and second.executed == 0
        for name in CONFIGS:
            assert (first.results["gzip"][name].to_dict() ==
                    second.results["gzip"][name].to_dict())

    def test_worker_count_invariance(self):
        serial = run_sweep(CONFIGS, workloads=["gzip", "eon"],
                           length=LENGTH, fidelity="sampled", workers=1)
        threaded = run_sweep(CONFIGS, workloads=["gzip", "eon"],
                             length=LENGTH, fidelity="sampled", workers=4)
        for wl in ("gzip", "eon"):
            for name in CONFIGS:
                assert (serial.results[wl][name].to_dict() ==
                        threaded.results[wl][name].to_dict())

    def test_manifest_records_fidelity_and_plan(self, tmp_path):
        store = tmp_path / "run"
        run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                  fidelity="sampled", store=store)
        manifest, _ = RunStore(store).load()
        assert manifest["fidelity"] == "sampled"
        plan = manifest["sampling"]
        assert plan["windows"] == len(plan["selected"])
        expected = make_sampling_plan(
            LENGTH + manifest["warmup"], manifest["warmup"], seed=0,
        ).to_manifest()
        assert plan == expected

    def test_exact_manifest_has_no_fidelity_key(self, tmp_path):
        # Pre-fidelity stores stay byte-compatible: exact runs write
        # exactly the manifest they always did.
        store = tmp_path / "run"
        run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH, store=store)
        manifest, _ = RunStore(store).load()
        assert "fidelity" not in manifest
        assert "sampling" not in manifest

    def test_cross_tier_resume_refused(self, tmp_path):
        store = tmp_path / "run"
        run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                  fidelity="sampled", store=store)
        with pytest.raises(StoreError):
            run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                      store=store, resume=True)

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(SimulationError):
            run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                      fidelity="warp")

    def test_summary_reports_fidelity_and_worst_ci(self):
        report = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH,
                           fidelity="sampled")
        assert report.fidelity_counts() == {"sampled": 2}
        worst = report.worst_error_bars()
        assert "l1_miss_rate" in worst
        assert worst["l1_miss_rate"]["ci95"] >= 0.0
        text = report.summary()
        assert "fidelity 2 sampled" in text
        assert "worst miss-rate CI" in text

    def test_exact_summary_unchanged(self):
        report = run_sweep(CONFIGS, workloads=["gzip"], length=LENGTH)
        assert "fidelity" not in report.summary()
