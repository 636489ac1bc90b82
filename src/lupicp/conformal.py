"""Mondrian inductive conformal prediction over any decision model.

Calibration scores are the margins alpha_i = y_i f(x_i), treated as
conformity scores (a large margin means a typical example), so p-values
count calibration scores at or below the test score.  Counting within
each class separately (the Mondrian construction) gives per-class
validity.

P-values are deterministic: ties count toward the numerator, which keeps
outputs reproducible at the price of slightly conservative validity.

The batch API works on arrays.  The p-values of n test objects are an
(n, 2) float array whose columns follow ``LABELS``, p(-1) then p(+1)
(:func:`pairs_from_decision_values`); prediction regions are an (n, 2)
boolean mask over the same columns (:func:`predict_region`); the
metrics take the p-value array with the true labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CalibrationTable",
    "ValidityDeviation",
    "calibrate",
    "pairs_from_decision_values",
    "predict_region",
    "observed_fuzziness",
    "validity_deviation",
    "accuracy",
    "default_epsilon_grid",
]

LABELS = (-1, 1)


@dataclass
class CalibrationTable:
    """Per-class ascending conformity scores from the calibration set."""

    scores_by_class: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for label in LABELS:
            raw = np.sort(np.asarray(self.scores_by_class.get(label, ()), dtype=float))
            clean[label] = raw
        self.scores_by_class = clean

    def count(self, label: int) -> int:
        return self.scores_by_class[label].shape[0]


def calibrate(model, X_cal, y_cal) -> CalibrationTable:
    """Score a calibration set through a trained model."""
    y_cal = np.asarray(y_cal)
    scores = np.asarray(y_cal, dtype=float) * model.decision_values(X_cal)
    return CalibrationTable(
        scores_by_class={label: scores[y_cal == label] for label in LABELS}
    )


def pairs_from_decision_values(table: CalibrationTable, values) -> np.ndarray:
    """P-values of test objects from their raw decision values f(x).

    Returns an (n, 2) array whose columns are p(-1) and p(+1): under the
    hypothesized label y the conformity score is y * f(x), and its p-value
    is (#{calibration scores of class y <= score} + 1) / (n_y + 1).  A
    vacuous class gives p-values of 1.0.
    """
    values = np.asarray(values, dtype=float)
    pvalues = np.ones((values.shape[0], len(LABELS)))
    for column, label in enumerate(LABELS):
        cal = table.scores_by_class[label]
        if cal.shape[0]:
            counts = np.searchsorted(cal, label * values, side="right")
            pvalues[:, column] = (counts + 1) / (cal.shape[0] + 1)
    return pvalues


def predict_region(pvalues, epsilon: float) -> np.ndarray:
    """(n, 2) boolean mask of the labels, in LABELS order, whose p-value
    exceeds the significance level epsilon."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    return np.asarray(pvalues, dtype=float) > epsilon


def _true_label_columns(truth) -> np.ndarray:
    """Column of each true label in a p-value array (-1 -> 0, else 1)."""
    return np.where(truth == LABELS[0], 0, 1)


def observed_fuzziness(pvalues, truth) -> float:
    """Mean over test objects of the p-value of the false label."""
    pvalues = np.asarray(pvalues, dtype=float)
    truth = np.asarray(truth)
    if len(pvalues) != truth.shape[0]:
        raise ValueError("p-value array and truth length differ")
    if truth.shape[0] == 0:
        raise ValueError("observed fuzziness is undefined on an empty test set")
    false_p = pvalues[np.arange(truth.shape[0]), 1 - _true_label_columns(truth)]
    # summed left to right: np.sum adds pairwise, which moves the last
    # digits of the reported value
    return sum(false_p.tolist()) / truth.shape[0]


@dataclass(frozen=True)
class ValidityDeviation:
    """Mean |empirical error rate - epsilon| over a significance grid.

    ``per_class`` holds None for a class absent from the test set; such
    classes are excluded from the pooled average.
    """

    per_class: dict
    pooled: float


def validity_deviation(pvalues, truth, grid) -> ValidityDeviation:
    """Per-class and pooled deviation from exact validity.

    For each class, err(eps) is the fraction of that class's test
    examples whose true-class p-value is <= eps; the deviation is the
    mean absolute gap |err(eps) - eps| over the grid.
    """
    pvalues = np.asarray(pvalues, dtype=float)
    truth = np.asarray(truth)
    grid = np.asarray(grid, dtype=float)
    if len(pvalues) != truth.shape[0]:
        raise ValueError("p-value array and truth length differ")
    if np.any((grid <= 0.0) | (grid >= 1.0)):
        raise ValueError("grid values must lie in (0, 1)")
    true_p = pvalues[np.arange(truth.shape[0]), _true_label_columns(truth)]
    per_class = {}
    present = []
    for label in LABELS:
        mask = truth == label
        if not np.any(mask):
            per_class[label] = None
            continue
        err = np.mean(true_p[mask][:, None] <= grid[None, :], axis=0)
        dev = float(np.mean(np.abs(err - grid)))
        per_class[label] = dev
        present.append(dev)
    pooled = float(np.mean(present)) if present else float("nan")
    return ValidityDeviation(per_class=per_class, pooled=pooled)


def accuracy(predictions, truth) -> float:
    """Fraction of exact label matches."""
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape:
        raise ValueError("prediction and truth length differ")
    if truth.shape[0] == 0:
        raise ValueError("accuracy is undefined on an empty test set")
    return float(np.mean(predictions == truth))


def default_epsilon_grid() -> np.ndarray:
    """The 0.01 .. 0.99 grid used for validity-deviation reports."""
    return np.linspace(0.01, 0.99, 99)
