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

from .kernels import KernelSpec, gram_matrix
from .qp import QpNonConvergenceError, QpProblem, solve_qp

__all__ = [
    "SvmConfig",
    "DecisionModel",
    "TrainingError",
    "svm_train",
]

logger = logging.getLogger(__name__)

PRUNE_TOL = 1e-9
FREE_TOL = 1e-6
ACCEPT_RESIDUAL = 1e-6
# kernel entries per block of rows that decision_values scores at once
BLOCK_ENTRIES = 2**21


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


@dataclass
class DecisionModel:
    """Trained decision function f(x) = sum_i weights[i] K(sv_i, x) + bias.

    ``weights`` holds alpha_i * y_i for the retained support rows;
    ``support_indices`` maps them back to rows of the training matrix.
    """

    support_vectors: object
    weights: np.ndarray
    bias: float
    kernel: KernelSpec
    support_indices: np.ndarray | None = None
    dual_objective: float | None = None
    kkt_residual: float | None = None

    @property
    def n_support(self) -> int:
        return self.weights.shape[0]

    def decision_values(self, X) -> np.ndarray:
        """f at each row of X (dense or CSR), scored in blocks of rows whose
        kernel block holds at most BLOCK_ENTRIES entries (or one row), so
        memory beyond X and the result does not grow with the row count."""
        n = X.shape[0]
        if self.n_support == 0:
            return np.full(n, self.bias)
        values = np.empty(n)
        step = max(1, BLOCK_ENTRIES // self.n_support)
        for start in range(0, n, step):
            rows = X[start:start + step]
            values[start:start + step] = (
                gram_matrix(rows, self.support_vectors, self.kernel) @ self.weights
                + self.bias
            )
        return values

    def decision_value(self, x) -> float:
        return float(self.decision_values(_as_row(x, self.support_vectors))[0])

    def predict_labels(self, X) -> np.ndarray:
        # exact zero maps to +1 so repeated runs agree bit for bit
        return np.where(self.decision_values(X) >= 0.0, 1, -1)

    def predict_label(self, x) -> int:
        return int(self.predict_labels(_as_row(x, self.support_vectors))[0])


def _as_row(x, like):
    import scipy.sparse as sp

    if sp.issparse(x):
        return x
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        expected = like.shape[1] if like is not None and hasattr(like, "shape") else None
        if expected is not None and x.shape[0] != expected:
            raise ValueError(
                f"feature dimension mismatch: {x.shape[0]} vs {expected}"
            )
        return x[None, :]
    return x


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


def solve_or_accept(problem: QpProblem, tol: float, max_iter: int):
    """Solve the dual, tolerating slow convergence down to 1e-6 residual."""
    try:
        return solve_qp(problem, tol=tol, max_iter=max_iter)
    except QpNonConvergenceError as exc:
        if exc.best.kkt_residual <= ACCEPT_RESIDUAL:
            logger.debug(
                "accepting dual solution at residual %.3e", exc.best.kkt_residual
            )
            return exc.best
        raise TrainingError(str(exc)) from exc


def svm_train(X, y, cfg: SvmConfig, tol: float = 1e-8, max_iter: int = 200,
              gram=None) -> DecisionModel:
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
    sol = solve_or_accept(problem, tol=tol, max_iter=max_iter)
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

