"""Dead-block predictors (paper Section 5.1).

Two ways to decide that the block in a frame will not be used again
this generation:

- :class:`DecayDeadBlockPredictor` (Section 5.1.1, Figure 14): declare
  the block dead once its idle time exceeds a threshold — the cache-
  decay mechanism.  High accuracy needs thresholds above ~5K cycles, at
  which point only ~50% of generations ever trigger and the prediction
  arrives too late to drive a timely prefetch.
- :class:`LiveTimeDeadBlockPredictor` (Section 5.1.2, Figure 16):
  predict the new generation's live time to equal the block's previous
  live time, and declare the block dead at ``scale`` times that value
  after the fill (the paper picks scale=2 from the ratio CDF of
  Figure 15: ~80% of live times are below twice the previous one).

Offline evaluation runs over the closed generations'
:class:`~repro.core.metrics.GenerationColumns`.  The ground truth per
generation: a *decay* prediction fires at the first idle
period >= threshold, and is correct iff that period is the dead time
(no access interval within the live time was that large).  A
*live-time* prediction exists only when the block survives past the
scaled prediction point and has a previous live time; it is correct
iff the real live time ended by then.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..metrics import GenerationColumns


@dataclass
class DeadBlockStats:
    """Accuracy/coverage tallies with the paper's §5.1 definitions.

    *Coverage* is the fraction of generations for which a prediction was
    made at all ("the percent of the blocks for which we do make a
    prediction"); *accuracy* is the fraction of made predictions that
    were right.
    """

    total: int = 0
    made: int = 0
    correct: int = 0

    @property
    def accuracy(self) -> float:
        """Correct share of the predictions made (1.0 when none was)."""
        return self.correct / self.made if self.made else 1.0

    @property
    def coverage(self) -> float:
        """Share of generations with a prediction (0.0 without any)."""
        return self.made / self.total if self.total else 0.0


class DecayDeadBlockPredictor:
    """Dead once idle for *threshold* cycles (cache-decay style)."""

    def __init__(self, threshold: int) -> None:
        """Refuse a non-positive idle *threshold* (cycles)."""
        if threshold <= 0:
            raise ValueError(f"decay threshold must be positive, got {threshold}")
        self.threshold = threshold

    def evaluate(self, generations: GenerationColumns) -> DeadBlockStats:
        """Accuracy/coverage over closed generations."""
        return _decay_stats(generations, [self.threshold])[0]


def _decay_stats(generations: GenerationColumns,
                 thresholds: Sequence[int]) -> List[DeadBlockStats]:
    """Decay outcomes per threshold, from one sort of each idle column.

    A prediction fires unless every idle period stays below the
    threshold (``max(max_access_interval, dead_time) < T``: uncovered),
    and it is right iff no access interval reached the threshold first
    (``max_access_interval < T <= dead_time``).
    """
    live_idle = generations.max_access_interval
    quiet_live = np.searchsorted(np.sort(live_idle), thresholds).tolist()
    quiet = np.searchsorted(
        np.sort(np.maximum(live_idle, generations.dead_time)), thresholds
    ).tolist()
    total = int(live_idle.size)
    return [DeadBlockStats(total, total - q, ql - q)
            for ql, q in zip(quiet_live, quiet)]


class LiveTimeDeadBlockPredictor:
    """Dead at ``scale`` x previous live time after the fill."""

    #: The paper's heuristic: twice the previous live time.
    PAPER_SCALE = 2.0

    def __init__(self, scale: float = PAPER_SCALE) -> None:
        """Refuse a non-positive *scale*."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale

    def predicted_death_offset(self, prev_live_time):
        """Cycles after the fill at which the block is declared dead.

        Elementwise over an array of previous live times.  A previous
        live time of zero still yields a minimal wait of one cycle so the
        prediction point is after the fill itself.
        """
        return np.maximum(1, (self.scale * np.asarray(prev_live_time)).astype(np.int64))

    def evaluate(self, generations: GenerationColumns) -> DeadBlockStats:
        """Accuracy/coverage over closed generations.

        A generation is uncovered when the block has no previous live
        time (first generation) or was evicted before the prediction
        point; a covered one is right iff its live time ended by then.
        """
        has_prev = generations.prev_live_time >= 0
        point = self.predicted_death_offset(generations.prev_live_time[has_prev])
        live = generations.live_time[has_prev]
        covered = live + generations.dead_time[has_prev] >= point
        return DeadBlockStats(
            int(generations.live_time.size),
            int(np.count_nonzero(covered)),
            int(np.count_nonzero(covered & (live <= point))),
        )


def decay_curve(
    generations: GenerationColumns,
    thresholds: Sequence[int],
) -> List[Tuple[int, float, float]]:
    """(threshold, accuracy, coverage) rows for Figure 14."""
    return [(threshold, stats.accuracy, stats.coverage)
            for threshold, stats in zip(thresholds, _decay_stats(generations, thresholds))]


def livetime_scale_curve(
    generations: GenerationColumns,
    scales: Sequence[float],
) -> List[Tuple[float, float, float]]:
    """(scale, accuracy, coverage) rows — the x2 heuristic ablation."""
    rows: List[Tuple[float, float, float]] = []
    for scale in scales:
        stats = LiveTimeDeadBlockPredictor(scale).evaluate(generations)
        rows.append((scale, stats.accuracy, stats.coverage))
    return rows


#: Figure 14's x-axis: idle-time thresholds 40..5120 cycles, doubling.
FIG14_THRESHOLDS: Tuple[int, ...] = tuple(40 * (1 << i) for i in range(8))
