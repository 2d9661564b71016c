"""Tests for dead-block predictors (paper §5.1)."""

import pytest

from repro.core.generations import GenerationRecord
from repro.core.metrics import TimekeepingMetrics
from repro.core.predictors.deadblock import (
    FIG14_THRESHOLDS,
    DecayDeadBlockPredictor,
    LiveTimeDeadBlockPredictor,
    decay_curve,
    livetime_scale_curve,
)


def gen(live=100, dead=1000, max_int=20, prev=None, block=1):
    return GenerationRecord(
        block_addr=block, start=0, live_time=live, dead_time=dead,
        hit_count=2, max_access_interval=max_int, prev_live_time=prev,
    )


def columns(records):
    """The records as the metric bank's columns."""
    m = TimekeepingMetrics()
    for r in records:
        m.on_generation(r)
    return m.generation_columns


def outcome(predictor, record):
    """One generation's outcome: None uncovered, else whether it was right."""
    stats = predictor.evaluate(columns([record]))
    return bool(stats.correct) if stats.made else None


class TestDecayPredictor:
    def test_correct_when_dead_time_crosses_first(self):
        p = DecayDeadBlockPredictor(500)
        assert outcome(p, gen(dead=1000, max_int=20)) is True

    def test_wrong_when_interval_crosses_first(self):
        p = DecayDeadBlockPredictor(500)
        assert outcome(p, gen(dead=1000, max_int=800)) is False

    def test_uncovered_when_nothing_crosses(self):
        p = DecayDeadBlockPredictor(5000)
        assert outcome(p, gen(dead=1000, max_int=20)) is None

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DecayDeadBlockPredictor(0)

    def test_evaluate_mixed(self):
        records = [
            gen(dead=1000, max_int=20),   # TP
            gen(dead=1000, max_int=800),  # FP (interval fired first)
            gen(dead=100, max_int=20),    # FN (no prediction)
        ]
        stats = DecayDeadBlockPredictor(500).evaluate(columns(records))
        assert stats.total == 3
        assert stats.made == 2
        assert stats.correct == 1
        assert stats.accuracy == pytest.approx(0.5)
        assert stats.coverage == pytest.approx(2 / 3)

    def test_paper_tradeoff_bigger_threshold_more_accuracy_less_coverage(self):
        """Figure 14: accuracy rises with the decay threshold while
        coverage falls — short thresholds misfire inside live times,
        long thresholds skip short-dead generations."""
        records = (
            [gen(dead=50_000, max_int=300) for _ in range(10)]
            + [gen(dead=400, max_int=300) for _ in range(10)]
        )
        rows = decay_curve(columns(records), [100, 1000, 10_000])
        accuracies = [r[1] for r in rows]
        coverages = [r[2] for r in rows]
        assert accuracies == sorted(accuracies)
        assert coverages == sorted(coverages, reverse=True)
        # T=100 fires inside every live time: full coverage, zero accuracy.
        assert coverages[0] == 1.0 and accuracies[0] == 0.0
        # T=1000 skips the short-dead half: coverage halves, accuracy 1.
        assert coverages[1] == pytest.approx(0.5) and accuracies[1] == 1.0

    def test_fig14_thresholds(self):
        assert FIG14_THRESHOLDS[0] == 40
        assert FIG14_THRESHOLDS[-1] == 5120


class TestLiveTimePredictor:
    def test_correct_prediction(self):
        # prev live 100 -> predicted death at 200; real live 150 <= 200
        # and generation reaches 200 -> covered, correct.
        p = LiveTimeDeadBlockPredictor()
        assert outcome(p, gen(live=150, dead=500, prev=100)) is True

    def test_wrong_when_block_still_live(self):
        # real live 500 > 200 -> block was still live at prediction time
        p = LiveTimeDeadBlockPredictor()
        assert outcome(p, gen(live=500, dead=100, prev=100)) is False

    def test_uncovered_no_history(self):
        assert outcome(LiveTimeDeadBlockPredictor(), gen(prev=None)) is None

    def test_uncovered_short_generation(self):
        # evicted (gen time 150) before the prediction point (200)
        p = LiveTimeDeadBlockPredictor()
        assert outcome(p, gen(live=100, dead=50, prev=100)) is None

    def test_zero_prev_live_time(self):
        p = LiveTimeDeadBlockPredictor()
        assert p.predicted_death_offset(0) == 1

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            LiveTimeDeadBlockPredictor(0)

    def test_evaluate_regular_live_times(self):
        """Perfectly regular live times (the paper's key observation)
        give both high accuracy and high coverage."""
        records = [gen(live=100, dead=5000, prev=100) for _ in range(20)]
        stats = LiveTimeDeadBlockPredictor().evaluate(columns(records))
        assert stats.accuracy == 1.0
        assert stats.coverage == 1.0

    def test_scale_curve(self):
        records = [gen(live=150, dead=5000, prev=100) for _ in range(10)]
        rows = livetime_scale_curve(columns(records), [1.0, 2.0, 4.0])
        # scale 1.0: predicted death at 100 < live 150 -> wrong
        assert rows[0][1] == 0.0
        # scale 2.0: death at 200 >= live 150 -> correct
        assert rows[1][1] == 1.0
