"""Tests for shared predictor-evaluation machinery."""

import pytest
from hypothesis import given, strategies as st

from repro.core.predictors.base import BinaryPredictor, PredictionStats, ThresholdPredictor


class TestPredictionStats:
    def test_accuracy_coverage(self):
        s = PredictionStats(true_positives=9, false_positives=1, false_negatives=3)
        assert s.accuracy == pytest.approx(0.9)
        assert s.coverage == pytest.approx(0.75)

    def test_degenerate_cases(self):
        s = PredictionStats()
        assert s.accuracy == 1.0   # no predictions made
        assert s.coverage == 0.0   # no positives existed

    def test_merged(self):
        a = PredictionStats(true_positives=1)
        b = PredictionStats(false_positives=2)
        m = a.merged(b)
        assert m.true_positives == 1 and m.false_positives == 2
        assert a.false_positives == 0  # originals untouched


class TestThresholdPredictor:
    def test_strictly_below(self):
        p = ThresholdPredictor(100)
        assert p.predict(99)
        assert not p.predict(100)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ThresholdPredictor(-1)

    def test_evaluate(self):
        p = ThresholdPredictor(10)
        stats = p.evaluate([5, 5, 50, 50], [True, False, True, False])
        assert stats.true_positives == 1
        assert stats.false_positives == 1
        assert stats.false_negatives == 1
        assert stats.true_negatives == 1

    @given(st.lists(st.tuples(st.integers(0, 1000), st.booleans()), max_size=100))
    def test_higher_threshold_never_lowers_coverage(self, samples):
        values, actual = [v for v, _ in samples], [a for _, a in samples]
        cov = [
            ThresholdPredictor(t).evaluate(values, actual).coverage
            for t in (10, 100, 1000, 10_000)
        ]
        assert cov == sorted(cov)

    @given(st.lists(st.tuples(st.integers(0, 1000), st.booleans()), max_size=100))
    def test_stats_partition_sample_count(self, samples):
        stats = ThresholdPredictor(500).evaluate(
            [v for v, _ in samples], [a for _, a in samples]
        )
        assert stats.total == len(samples)


class TestBinaryPredictorABC:
    def test_custom_predictor(self):
        class EvenPredictor(BinaryPredictor):
            def predict(self, value):
                return value % 2 == 0

        stats = EvenPredictor().evaluate([2, 3], [True, True])
        assert stats.true_positives == 1
        assert stats.false_negatives == 1
