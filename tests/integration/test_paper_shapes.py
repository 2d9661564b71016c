"""Integration tests asserting the paper's qualitative results hold.

These use short workload runs, so thresholds are deliberately loose —
the benchmark harness reproduces the full figures; here we pin the
*shapes* that must not regress:

- conflict misses have short reload intervals / dead times, capacity
  misses long ones (Figures 7, 9);
- the reload-interval conflict predictor is near-perfect below 16K
  cycles (Figure 8);
- live times are far shorter than dead times (Figure 4);
- the timekeeping victim filter cuts fill traffic without losing the
  unfiltered victim cache's benefit (Figure 13);
- timekeeping prefetch speeds up the regular capacity workloads and the
  8KB table beats the 2MB DBCP there (Figure 19);
- mcf prefers the big DBCP table (Section 5.2.3).
"""

import pytest

from repro.common.types import MissClass
from repro.core.predictors.conflict import (
    evaluate_dead_time_predictor,
    evaluate_reload_predictor,
)
from repro.sim.sweep import run_workload

#: Long enough that correlation entries are confirmed and re-used
#: (streams need ~3 passes: store, confirm, predict).
LENGTH = 60_000


@pytest.fixture(scope="module")
def vpr_results():
    return run_workload(
        "vpr",
        {
            "base": {"collect_metrics": True},
            "victim": {"victim_filter": "unfiltered"},
            "victim_tk": {"victim_filter": "timekeeping"},
        },
        length=LENGTH,
    )


@pytest.fixture(scope="module")
def swim_results():
    return run_workload(
        "swim",
        {
            "base": {"collect_metrics": True},
            "pf_tk": {"prefetcher": "timekeeping"},
            "pf_dbcp": {"prefetcher": "dbcp"},
        },
        length=LENGTH,
    )


class TestMetricShapes:
    def test_conflict_reloads_shorter_than_capacity(self, vpr_results):
        m = vpr_results["base"].metrics
        conflict_mean = m.reload_by_class[MissClass.CONFLICT].mean
        capacity_mean = m.reload_by_class[MissClass.CAPACITY].mean
        if m.reload_by_class[MissClass.CAPACITY].total:
            assert conflict_mean < capacity_mean

    def test_conflict_dead_times_short(self, vpr_results):
        m = vpr_results["base"].metrics
        assert m.dead_by_class[MissClass.CONFLICT].fraction_below(1000) > 0.5

    def test_dead_times_longer_than_live_times_on_streams(self, swim_results):
        m = swim_results["base"].metrics
        assert m.dead_time.mean > m.live_time.mean

    def test_live_times_regular_on_streams(self, swim_results):
        """Figure 15: most live times within 2x of the previous one."""
        m = swim_results["base"].metrics
        ratios = list(m.generation_columns.live_time_ratios())
        within = sum(1 for x in ratios if x <= 2.0) / len(ratios)
        assert within > 0.6


class TestConflictPredictors:
    def test_reload_predictor_accurate_at_paper_threshold(self, vpr_results):
        cors = vpr_results["base"].metrics.correlation_columns
        stats = evaluate_reload_predictor(cors)
        assert stats.accuracy > 0.8
        assert stats.coverage > 0.5

    def test_dead_time_predictor_accurate(self, vpr_results):
        cors = vpr_results["base"].metrics.correlation_columns
        stats = evaluate_dead_time_predictor(cors)
        assert stats.accuracy > 0.8


class TestVictimCacheShapes:
    def test_victim_cache_helps_conflicts(self, vpr_results):
        assert vpr_results["victim"].speedup_over(vpr_results["base"]) > 0.02

    def test_filter_keeps_benefit(self, vpr_results):
        filtered = vpr_results["victim_tk"].speedup_over(vpr_results["base"])
        unfiltered = vpr_results["victim"].speedup_over(vpr_results["base"])
        assert filtered > 0.5 * unfiltered

    def test_filter_cuts_traffic_on_capacity_workload(self, swim_results):
        res = run_workload(
            "applu",
            {"victim": {"victim_filter": "unfiltered"},
             "victim_tk": {"victim_filter": "timekeeping"}},
            length=LENGTH,
        )
        assert res["victim_tk"].victim.fills < 0.3 * res["victim"].victim.fills


class TestPrefetchShapes:
    def test_timekeeping_speeds_up_swim(self, swim_results):
        assert swim_results["pf_tk"].speedup_over(swim_results["base"]) > 0.2

    def test_small_table_beats_dbcp_on_regular_streams(self, swim_results):
        tk = swim_results["pf_tk"].speedup_over(swim_results["base"])
        dbcp = swim_results["pf_dbcp"].speedup_over(swim_results["base"])
        assert tk > dbcp

    def test_tk_table_two_orders_smaller(self, swim_results):
        assert swim_results["pf_tk"].prefetch.table_bytes * 100 <= (
            swim_results["pf_dbcp"].prefetch.table_bytes
        )

    def test_address_accuracy_high_on_swim(self, swim_results):
        assert swim_results["pf_tk"].prefetch.address_accuracy > 0.6

    def test_mcf_prefers_big_table(self):
        res = run_workload(
            "mcf",
            {"base": {}, "pf_tk": {"prefetcher": "timekeeping"},
             "pf_dbcp": {"prefetcher": "dbcp"}},
            length=LENGTH,
        )
        tk_acc = res["pf_tk"].prefetch.address_accuracy
        dbcp_acc = res["pf_dbcp"].prefetch.address_accuracy
        assert dbcp_acc > tk_acc
