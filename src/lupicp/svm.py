"""Binary soft-margin kernel SVM trained through the dense QP solver.

The trainer poses the standard dual

    max  sum(alpha) - 0.5 * alpha' (yy' * K) alpha
    s.t. y'alpha = 0,  0 <= alpha <= C

as a :class:`~lupicp.qp.QpProblem` and recovers the bias from the margin
equations of the free support vectors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .decision import DecisionModel
from .kernels import KernelSpec, gram_matrix
from .qp import QpNonConvergenceError, QpProblem, solve_qp

__all__ = [
    "SvmConfig",
    "TrainingError",
    "svm_train",
    "sign_labels",
]

logger = logging.getLogger(__name__)

PRUNE_TOL = 1e-9
FREE_TOL = 1e-6
ACCEPT_RESIDUAL = 1e-6


class TrainingError(Exception):
    """Dual optimization failed beyond the acceptable residual."""


@dataclass(frozen=True)
class SvmConfig:
    """Cost parameter C and the kernel used on the training features."""

    C: float
    kernel: KernelSpec

    def __post_init__(self):
        if not (np.isfinite(self.C) and self.C > 0):
            raise ValueError(f"C must be a positive real, got {self.C!r}")


def sign_labels(values) -> np.ndarray:
    """Labels predicted from decision values: +1 where f >= 0, else -1.
    An exact zero maps to +1, so repeated runs agree bit for bit."""
    return np.where(np.asarray(values) >= 0.0, 1, -1)


def check_labels(y) -> np.ndarray:
    y = np.asarray(y)
    values = set(np.unique(y).tolist())
    if not values <= {-1, 1}:
        raise ValueError(f"labels must be in {{-1, +1}}, got values {sorted(values)}")
    if len(values) < 2:
        raise ValueError("training labels contain a single class")
    return y.astype(float)


def recover_bias(y, scores, alpha, C):
    """Bias from free support vectors, or the midpoint of the KKT interval.

    ``scores`` are the bias-free decision values at the training rows.
    """
    free = (alpha > FREE_TOL * C) & (alpha < (1.0 - FREE_TOL) * C)
    if np.any(free):
        return float(np.mean(y[free] - scores[free]))
    at_zero = alpha <= FREE_TOL * C
    at_cost = ~at_zero
    lows, highs = [], []
    margins = y - scores  # the bias that puts each row exactly on its margin
    lows.extend(margins[at_zero & (y > 0)])
    lows.extend(margins[at_cost & (y < 0)])
    highs.extend(margins[at_cost & (y > 0)])
    highs.extend(margins[at_zero & (y < 0)])
    lo = max(lows) if lows else None
    hi = min(highs) if highs else None
    if lo is None and hi is None:
        return 0.0
    if lo is None:
        return float(hi)
    if hi is None:
        return float(lo)
    return float(0.5 * (lo + hi))


def solve_or_accept(problem: QpProblem):
    """Solve the dual, tolerating slow convergence down to 1e-6 residual."""
    try:
        return solve_qp(problem)
    except QpNonConvergenceError as exc:
        if exc.best.kkt_residual <= ACCEPT_RESIDUAL:
            logger.debug(
                "accepting dual solution at residual %.3e", exc.best.kkt_residual
            )
            return exc.best
        raise TrainingError(str(exc)) from exc


def svm_train(X, y, cfg: SvmConfig, gram=None) -> DecisionModel:
    """Train a binary SVM.  ``gram`` may supply a precomputed self-Gram."""
    y = check_labels(y)
    n = X.shape[0]
    if n != y.shape[0]:
        raise ValueError(f"row count mismatch: X has {n}, y has {y.shape[0]}")
    K = gram_matrix(X, X, cfg.kernel) if gram is None else gram
    Q = K * np.outer(y, y)
    problem = QpProblem.with_equalities(
        Q=Q,
        c=-np.ones(n),
        equalities=[(y, 0.0)],
        lower=0.0,
        upper=cfg.C,
    )
    sol = solve_or_accept(problem)
    alpha = np.clip(sol.x, 0.0, cfg.C)
    weights_full = alpha * y
    scores = K @ weights_full
    bias = recover_bias(y, scores, alpha, cfg.C)
    keep = alpha > PRUNE_TOL
    support = X[np.flatnonzero(keep)]
    return DecisionModel(
        support_vectors=support,
        weights=weights_full[keep],
        bias=bias,
        kernel=cfg.kernel,
        support_indices=np.flatnonzero(keep),
        dual_objective=-sol.objective,
        kkt_residual=sol.kkt_residual,
    )

