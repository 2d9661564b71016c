"""Tests for the conflict-miss predictors (paper §4.1)."""

import pytest

from repro.common.types import MissClass
from repro.core.metrics import MissCorrelation, TimekeepingMetrics
from repro.core.predictors.conflict import (
    FIG8_THRESHOLDS,
    FIG10_THRESHOLDS,
    DeadTimeConflictPredictor,
    ReloadIntervalConflictPredictor,
    ZeroLiveTimeConflictPredictor,
    accuracy_coverage_curve,
    evaluate_dead_time_predictor,
    evaluate_reload_predictor,
    evaluate_zero_live_predictor,
)


def conflict(reload=500, dead=50, live=0):
    return MissCorrelation(MissClass.CONFLICT, reload, dead, live)


def capacity(reload=500_000, dead=50_000, live=300):
    return MissCorrelation(MissClass.CAPACITY, reload, dead, live)


def columns(correlations):
    """The correlations as the metric bank's columns."""
    m = TimekeepingMetrics()
    for c in correlations:
        m.on_miss_correlation(
            c.miss_class, c.reload_interval, c.last_dead_time, c.last_live_time
        )
    return m.correlation_columns


SAMPLE = columns([conflict() for _ in range(8)] + [capacity() for _ in range(12)])


class TestReloadPredictor:
    def test_paper_threshold_default(self):
        assert ReloadIntervalConflictPredictor().threshold == 16_000

    def test_perfect_separation(self):
        stats = evaluate_reload_predictor(SAMPLE)
        assert stats.accuracy == 1.0
        assert stats.coverage == 1.0

    def test_small_threshold_loses_coverage(self):
        mixed = [conflict(reload=500), conflict(reload=20_000), capacity()]
        stats = evaluate_reload_predictor(columns(mixed), threshold=1000)
        assert stats.coverage == pytest.approx(0.5)
        assert stats.accuracy == 1.0

    def test_huge_threshold_loses_accuracy(self):
        stats = evaluate_reload_predictor(SAMPLE, threshold=10**9)
        assert stats.coverage == 1.0
        assert stats.accuracy == pytest.approx(8 / 20)


class TestDeadTimePredictor:
    def test_paper_threshold_default(self):
        assert DeadTimeConflictPredictor().threshold == 1024

    def test_separation(self):
        stats = evaluate_dead_time_predictor(SAMPLE)
        assert stats.accuracy == 1.0
        assert stats.coverage == 1.0

    def test_overlapping_populations(self):
        mixed = [conflict(dead=50), capacity(dead=500)]  # capacity w/ short dead
        stats = evaluate_dead_time_predictor(columns(mixed), threshold=1024)
        assert stats.accuracy == pytest.approx(0.5)


class TestZeroLivePredictor:
    def test_zero_live_predicts_conflict(self):
        p = ZeroLiveTimeConflictPredictor()
        assert p.predict(0)
        assert not p.predict(1)

    def test_evaluation(self):
        mixed = [conflict(live=0), conflict(live=40), capacity(live=0), capacity(live=300)]
        stats = evaluate_zero_live_predictor(columns(mixed))
        assert stats.accuracy == pytest.approx(0.5)  # 1 of 2 zero-live are conflicts
        assert stats.coverage == pytest.approx(0.5)  # 1 of 2 conflicts has zero live


class TestCurves:
    def test_fig8_thresholds_double(self):
        assert FIG8_THRESHOLDS[0] == 1000
        assert all(b == 2 * a for a, b in zip(FIG8_THRESHOLDS, FIG8_THRESHOLDS[1:]))

    def test_fig10_thresholds(self):
        assert FIG10_THRESHOLDS[0] == 100

    def test_curve_shape(self):
        rows = accuracy_coverage_curve(SAMPLE, "reload", FIG8_THRESHOLDS)
        assert len(rows) == len(FIG8_THRESHOLDS)
        coverages = [r[2] for r in rows]
        assert coverages == sorted(coverages)  # coverage monotone in threshold

    def test_curve_paper_shape_accuracy_drops_at_tail(self):
        """With conflict reloads small and capacity reloads huge, the
        accuracy curve stays ~1 then drops once the threshold swallows
        the capacity population — Figure 8's breakpoint shape."""
        data = (
            [conflict(reload=r) for r in (800, 2000, 6000, 12_000)] * 5
            + [capacity(reload=r) for r in (120_000, 300_000, 700_000)] * 5
        )
        rows = accuracy_coverage_curve(
            columns(data), "reload", [1000, 16_000, 1_000_000]
        )
        assert rows[0][1] == 1.0
        assert rows[1][1] == 1.0
        assert rows[2][1] < 0.8

    def test_curve_dead_metric(self):
        rows = accuracy_coverage_curve(SAMPLE, "dead", [100, 100_000])
        assert rows[-1][2] == 1.0

    def test_unknown_metric(self):
        with pytest.raises(KeyError):
            accuracy_coverage_curve(SAMPLE, "bogus", [1])
