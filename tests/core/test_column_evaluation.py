"""The column evaluations against the paper's per-record definitions.

Every predictor sweep and Figure 15 distribution counts over the metric
bank's int64 columns.  Each test here keeps the paper's definition as a
plain loop over one record at a time and requires the column code to
give exactly the same numbers (no tolerance) on random banks: empty
ones, generations without a previous live time, values equal to a
threshold, and zeros.
"""

from typing import List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.common.stats import abs_diff_histogram, ratio_cdf
from repro.common.types import MissClass
from repro.core.generations import GenerationRecord
from repro.core.metrics import TimekeepingMetrics
from repro.core.predictors.conflict import (
    FIG8_THRESHOLDS,
    FIG10_THRESHOLDS,
    accuracy_coverage_curve,
    evaluate_dead_time_predictor,
    evaluate_reload_predictor,
    evaluate_zero_live_predictor,
)
from repro.core.predictors.deadblock import (
    FIG14_THRESHOLDS,
    DecayDeadBlockPredictor,
    LiveTimeDeadBlockPredictor,
    decay_curve,
    livetime_scale_curve,
)
from repro.figures.registry import RATIO_BREAKPOINTS

#: Values the predictors compare against, so draws land on them.
EDGES = sorted({0, 1, 16, 17, *FIG8_THRESHOLDS, *FIG10_THRESHOLDS,
                *FIG14_THRESHOLDS, 8192, 8193})
#: Non-integer scales alongside the paper's x2.
SCALES = (0.5, 1.0, 1.5, 2.0, 2.7, 3)

#: Small times land live and dead times on a scaled prediction point.
times = st.one_of(st.sampled_from(EDGES), st.integers(0, 40),
                  st.integers(0, 600_000))
generation_rows = st.lists(
    st.tuples(times, times, times, st.one_of(st.none(), times)), max_size=60,
)
correlation_rows = st.lists(
    st.tuples(st.sampled_from([MissClass.CONFLICT, MissClass.CAPACITY]),
              times, times, times),
    max_size=60,
)
thresholds = st.lists(st.sampled_from(EDGES[1:]) | st.integers(1, 600_000),
                      max_size=6)

Gen = Tuple[int, int, int, Optional[int]]  # live, dead, max interval, prev


def bank(gens: List[Gen] = (), cors=()) -> TimekeepingMetrics:
    m = TimekeepingMetrics()
    for i, (live, dead, max_iv, prev) in enumerate(gens):
        m.on_generation(GenerationRecord(i, 10 * i, live, dead, 1, max_iv, prev))
    for row in cors:
        m.on_miss_correlation(*row)
    return m


def ratios(made: int, correct: int, total: int) -> Tuple[float, float]:
    """The paper's accuracy and coverage of dead-block predictions."""
    return (correct / made if made else 1.0), (made / total if total else 0.0)


def loop_decay(gens: List[Gen], threshold: int) -> Tuple[float, float]:
    made = correct = 0
    for live, dead, max_iv, prev in gens:
        fired_in_live = max_iv >= threshold
        if fired_in_live or dead >= threshold:
            made += 1
            correct += not fired_in_live
    return ratios(made, correct, len(gens))


def loop_livetime(gens: List[Gen], scale: float) -> Tuple[float, float]:
    made = correct = 0
    for live, dead, max_iv, prev in gens:
        if prev is None:
            continue
        point = max(1, int(scale * prev))
        if live + dead >= point:
            made += 1
            correct += live <= point
    return ratios(made, correct, len(gens))


def loop_conflict(cors, predict) -> Tuple[float, float]:
    tp = fp = fn = 0
    for miss_class, reload_iv, dead, live in cors:
        predicted = predict(reload_iv, dead, live)
        actual = miss_class == MissClass.CONFLICT
        tp += predicted and actual
        fp += predicted and not actual
        fn += actual and not predicted
    return (tp / (tp + fp) if tp + fp else 1.0), (tp / (tp + fn) if tp + fn else 0.0)


def loop_abs_diff(pairs) -> List[float]:
    edges = [0, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192]
    counts = [0] * (len(edges) + 1)
    for prev, cur in pairs:
        diff = abs(cur - prev)
        counts[next((i for i, e in enumerate(edges) if diff <= e), len(edges))] += 1
    return [c / len(pairs) if pairs else 0.0 for c in counts]


def loop_ratio_cdf(pairs) -> List[float]:
    values = [max(cur, 1) / max(prev, 1) for prev, cur in pairs]
    return [sum(v <= bp for v in values) / len(values) if values else 0.0
            for bp in RATIO_BREAKPOINTS]


class TestDeadBlock:
    @settings(max_examples=150, deadline=None)
    @given(generation_rows, thresholds)
    def test_decay(self, gens, ts):
        columns = bank(gens).generation_columns
        assert decay_curve(columns, ts) == [(t, *loop_decay(gens, t)) for t in ts]
        for t in ts:
            stats = DecayDeadBlockPredictor(t).evaluate(columns)
            assert (stats.accuracy, stats.coverage) == loop_decay(gens, t)

    @settings(max_examples=150, deadline=None)
    @given(generation_rows)
    def test_live_time(self, gens):
        columns = bank(gens).generation_columns
        assert livetime_scale_curve(columns, SCALES) == [
            (s, *loop_livetime(gens, s)) for s in SCALES
        ]
        stats = LiveTimeDeadBlockPredictor().evaluate(columns)
        assert stats.total == len(gens)
        assert (stats.accuracy, stats.coverage) == loop_livetime(gens, 2.0)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(SCALES), st.lists(st.tuples(
        st.one_of(st.none(), times), st.integers(-2, 2), st.integers(-2, 2),
    ), max_size=60))
    def test_live_time_at_the_prediction_point(self, scale, rows):
        """Live and generation times within two cycles of the point."""
        gens = []
        for prev, d_live, d_gen in rows:
            point = max(1, int(scale * (prev or 0)))
            live = max(0, point + d_live)
            gens.append((live, max(0, point + d_gen - live), 0, prev))
        stats = LiveTimeDeadBlockPredictor(scale).evaluate(bank(gens).generation_columns)
        assert (stats.accuracy, stats.coverage) == loop_livetime(gens, scale)


class TestConflict:
    @settings(max_examples=150, deadline=None)
    @given(correlation_rows, thresholds)
    def test_reload_and_dead_time(self, cors, ts):
        columns = bank(cors=cors).correlation_columns
        for metric, pick, sweep in (
            ("reload", lambda r, d, lv: r, FIG8_THRESHOLDS),
            ("dead", lambda r, d, lv: d, FIG10_THRESHOLDS),
        ):
            for t_list in (ts, list(sweep)):
                assert accuracy_coverage_curve(columns, metric, t_list) == [
                    (t, *loop_conflict(cors, lambda *v, t=t: pick(*v) < t))
                    for t in t_list
                ]
        for t in ts:
            r = evaluate_reload_predictor(columns, t)
            d = evaluate_dead_time_predictor(columns, t)
            assert (r.accuracy, r.coverage) == loop_conflict(cors, lambda r, d, lv: r < t)
            assert (d.accuracy, d.coverage) == loop_conflict(cors, lambda r, d, lv: d < t)
            assert r.total == d.total == len(cors)

    @settings(max_examples=150, deadline=None)
    @given(correlation_rows)
    def test_zero_live_time(self, cors):
        stats = evaluate_zero_live_predictor(bank(cors=cors).correlation_columns)
        assert (stats.accuracy, stats.coverage) == loop_conflict(
            cors, lambda r, d, lv: lv == 0
        )


class TestFigure15:
    @settings(max_examples=150, deadline=None)
    @given(generation_rows)
    def test_abs_diff_buckets_and_ratio_cdf(self, gens):
        columns = bank(gens).generation_columns
        pairs = [(prev, live) for live, _, _, prev in gens if prev is not None]
        assert columns.live_time_pairs().tolist() == [list(p) for p in pairs]
        assert abs_diff_histogram(columns.live_time_pairs()) == loop_abs_diff(pairs)
        assert ratio_cdf(columns.live_time_ratios(), list(RATIO_BREAKPOINTS)) == \
            loop_ratio_cdf(pairs)
