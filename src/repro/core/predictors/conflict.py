"""Conflict-miss predictors (paper Section 4.1).

Three predictors, all keyed on the metrics of the *previous* generation
of the block that misses:

- :class:`ReloadIntervalConflictPredictor` — conflict if the reload
  interval is below a threshold (paper's natural breakpoint: 16K
  cycles; near-perfect accuracy up to there, ~85% coverage).  Reload
  intervals are an L2-side quantity (the block's access interval one
  level down), making this predictor natural to implement near the L2.
- :class:`DeadTimeConflictPredictor` — conflict if the last dead time
  was short (L1-side; the basis of the victim filter, threshold 1K).
- :class:`ZeroLiveTimeConflictPredictor` — conflict if the last live
  time was zero (a single "re-reference bit" per line; high accuracy,
  ~30% coverage, no knob).

Offline evaluation helpers sweep thresholds over the
:class:`~repro.core.metrics.CorrelationColumns` a simulation collected,
producing the accuracy/coverage curves of Figures 8 and 10 and the
per-benchmark bars of Figure 11.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ...common.types import MissClass
from ..metrics import CorrelationColumns
from .base import BinaryPredictor, PredictionStats, ThresholdPredictor


class ReloadIntervalConflictPredictor(ThresholdPredictor):
    """Conflict iff reload interval < threshold (default 16K cycles)."""

    #: The paper's chosen operating point: accuracy is stable and nearly
    #: perfect up to 16K cycles, where a clear drop makes a natural
    #: breakpoint.
    PAPER_THRESHOLD = 16_000

    def __init__(self, threshold: int = PAPER_THRESHOLD) -> None:
        """Threshold in cycles, the paper's 16K by default."""
        super().__init__(threshold)


class DeadTimeConflictPredictor(ThresholdPredictor):
    """Conflict iff the last generation's dead time < threshold (1K)."""

    #: Matches the victim filter: a 2-bit 512-cycle counter value <= 1.
    PAPER_THRESHOLD = 1024

    def __init__(self, threshold: int = PAPER_THRESHOLD) -> None:
        """Threshold in cycles, the paper's 1K by default."""
        super().__init__(threshold)


class ZeroLiveTimeConflictPredictor(BinaryPredictor):
    """Conflict iff the last generation was never re-referenced.

    Hardware cost is one re-reference bit per L1 line.  No threshold to
    tune — the paper includes it to show how different metrics classify
    the same behavior.
    """

    def predict(self, value):
        """Positive where the live time *value* is zero."""
        return value == 0


def _samples(
    correlations: CorrelationColumns,
    metric: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """The metric's column and the is-conflict column; cold misses carry
    no previous generation and never appear in *correlations*."""
    values = {
        "reload": correlations.reload_interval,
        "dead": correlations.last_dead_time,
        "live": correlations.last_live_time,
    }[metric]
    return values, correlations.miss_class == int(MissClass.CONFLICT)


def evaluate_reload_predictor(
    correlations: CorrelationColumns,
    threshold: int = ReloadIntervalConflictPredictor.PAPER_THRESHOLD,
) -> PredictionStats:
    """Accuracy/coverage of the reload-interval predictor at one threshold."""
    return ReloadIntervalConflictPredictor(threshold).evaluate(*_samples(correlations, "reload"))


def evaluate_dead_time_predictor(
    correlations: CorrelationColumns,
    threshold: int = DeadTimeConflictPredictor.PAPER_THRESHOLD,
) -> PredictionStats:
    """Accuracy/coverage of the dead-time predictor at one threshold."""
    return DeadTimeConflictPredictor(threshold).evaluate(*_samples(correlations, "dead"))


def evaluate_zero_live_predictor(
    correlations: CorrelationColumns,
) -> PredictionStats:
    """Accuracy/coverage of the zero-live-time predictor (Figure 11)."""
    return ZeroLiveTimeConflictPredictor().evaluate(*_samples(correlations, "live"))


def accuracy_coverage_curve(
    correlations: CorrelationColumns,
    metric: str,
    thresholds: Sequence[int],
) -> List[Tuple[int, float, float]]:
    """Sweep thresholds; returns (threshold, accuracy, coverage) rows.

    *metric* is ``"reload"`` (Figure 8, x in cycles) or ``"dead"``
    (Figure 10).  One sort of all values and of the conflicts' values;
    then each threshold counts the values below it by binary search.
    """
    values, is_conflict = _samples(correlations, metric)
    conflicts = np.sort(values[is_conflict])
    made = np.searchsorted(np.sort(values), thresholds).tolist()
    hits = np.searchsorted(conflicts, thresholds).tolist()
    rows: List[Tuple[int, float, float]] = []
    for threshold, m, h in zip(thresholds, made, hits):
        stats = PredictionStats(
            h, m - h, conflicts.size - h, values.size - m - conflicts.size + h,
        )
        rows.append((threshold, stats.accuracy, stats.coverage))
    return rows


#: Figure 8's x-axis: 1K..512K cycles, doubling.
FIG8_THRESHOLDS: Tuple[int, ...] = tuple(1000 * (1 << i) for i in range(10))
#: Figure 10's x-axis: 100..51200 cycles, doubling.
FIG10_THRESHOLDS: Tuple[int, ...] = tuple(100 * (1 << i) for i in range(10))
