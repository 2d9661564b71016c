"""Shared predictor-evaluation machinery.

The paper evaluates every predictor on two axes (Figures 8, 10, 11, 14,
16):

- **accuracy**: of the predictions made, the fraction that were right
  (``TP / (TP + FP)``);
- **coverage**: the fraction of actual positives the predictor captured
  (``TP / (TP + FN)``) — equivalently, for the dead-block predictors,
  the fraction of cases where a prediction was made at all.

:class:`PredictionStats` holds the outcome counts; binary predictors
implement :class:`BinaryPredictor` so the same column evaluation
drives them all.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np


@dataclass
class PredictionStats:
    """Confusion-style tallies for a binary predictor."""

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    true_negatives: int = 0

    @property
    def predictions_made(self) -> int:
        """Positive predictions issued."""
        return self.true_positives + self.false_positives

    @property
    def actual_positives(self) -> int:
        """Ground-truth positives seen."""
        return self.true_positives + self.false_negatives

    @property
    def total(self) -> int:
        """Samples tallied, positive or negative."""
        return (
            self.true_positives
            + self.false_positives
            + self.false_negatives
            + self.true_negatives
        )

    @property
    def accuracy(self) -> float:
        """Fraction of issued predictions that were correct (1.0 if none)."""
        made = self.predictions_made
        return self.true_positives / made if made else 1.0

    @property
    def coverage(self) -> float:
        """Fraction of actual positives captured (0.0 if none existed)."""
        positives = self.actual_positives
        return self.true_positives / positives if positives else 0.0

    def merged(self, other: "PredictionStats") -> "PredictionStats":
        """Combine two tallies."""
        return PredictionStats(
            self.true_positives + other.true_positives,
            self.false_positives + other.false_positives,
            self.false_negatives + other.false_negatives,
            self.true_negatives + other.true_negatives,
        )


class BinaryPredictor(abc.ABC):
    """A predictor that answers yes/no from one observed metric value."""

    @abc.abstractmethod
    def predict(self, value):
        """Predict from the observed metric *value* (or, elementwise, an
        array of them)."""

    def evaluate(self, values, actual) -> PredictionStats:
        """Count the outcomes over parallel columns of metric values and
        ground truth."""
        predicted = np.asarray(self.predict(np.asarray(values)), dtype=bool)
        actual = np.asarray(actual, dtype=bool)
        made = int(np.count_nonzero(predicted))
        positives = int(np.count_nonzero(actual))
        hits = int(np.count_nonzero(predicted & actual))
        return PredictionStats(
            hits, made - hits, positives - hits,
            actual.size - made - positives + hits,
        )


class ThresholdPredictor(BinaryPredictor):
    """Predict positive when the metric is strictly below a threshold.

    The shape of all the paper's conflict predictors: small reload
    interval / dead time / live time => conflict.
    """

    def __init__(self, threshold: int) -> None:
        """Refuse a negative *threshold*."""
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        self.threshold = threshold

    def predict(self, value):
        """Positive where *value* (a scalar or an array) is below the threshold."""
        return value < self.threshold

    def __repr__(self) -> str:
        return f"{type(self).__name__}(threshold={self.threshold})"
