"""SVM+ training: learning using privileged information.

Privileged features X* exist only at training time.  The primal learns a
decision function over X while a correcting function over X* models the
slack variables:

    min  0.5||w||^2 + (gamma_plus/2)||w*||^2 + C sum_i psi_i
    s.t. y_i (<w, phi(x_i)> + b) >= 1 - psi_i
         psi_i = <w*, phi*(x*_i)> + b*  >= 0

Its dual couples 2n nonnegative variables [alpha; beta] through two
equality constraints:

    max  sum(alpha) - 0.5 alpha'(yy' * K)alpha
         - 1/(2 gamma_plus) * delta' K* delta,   delta = alpha + beta - C
    s.t. y'alpha = 0,  sum(delta) = 0,  alpha >= 0,  beta >= 0

which the dense QP solver handles directly.  The decision function uses
only X-space terms, so prediction never needs privileged features.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, gram_matrix
from .qp import QpProblem
from .svm import DecisionModel, PRUNE_TOL, _as_row, check_labels, solve_or_accept

__all__ = [
    "SvmPlusConfig",
    "SvmPlusModel",
    "BiasRecoveryWarning",
    "svmplus_train",
]

SUPPORT_TOL = 1e-6


class BiasRecoveryWarning(UserWarning):
    """The two bias-recovery routes disagree beyond 1e-3."""


@dataclass(frozen=True)
class SvmPlusConfig:
    """Cost C, correcting-space weight gamma_plus, and the two kernels."""

    C: float
    gamma_plus: float
    decision_kernel: KernelSpec
    correcting_kernel: KernelSpec

    def __post_init__(self):
        if not (np.isfinite(self.C) and self.C > 0):
            raise ValueError(f"C must be a positive real, got {self.C!r}")
        if not (np.isfinite(self.gamma_plus) and self.gamma_plus > 0):
            raise ValueError(
                f"gamma_plus must be a positive real, got {self.gamma_plus!r}"
            )


@dataclass
class SvmPlusModel:
    """Decision model over X plus the diagnostic correcting function.

    ``deltas`` are alpha + beta - C; together with ``bias_star`` they
    reconstruct the modeled slack over X*.  The raw dual variables are
    retained for KKT auditing.
    """

    decision: DecisionModel
    deltas: np.ndarray
    bias_star: float
    correcting_kernel: KernelSpec
    correcting_vectors: object
    gamma_plus: float
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    dual_objective: float | None = None
    kkt_residual: float | None = None

    def decision_values(self, X) -> np.ndarray:
        return self.decision.decision_values(X)

    def decision_value(self, x) -> float:
        return self.decision.decision_value(x)

    def predict_labels(self, X) -> np.ndarray:
        return self.decision.predict_labels(X)

    def predict_label(self, x) -> int:
        return self.decision.predict_label(x)

    def correcting_values(self, Xstar) -> np.ndarray:
        K = gram_matrix(Xstar, self.correcting_vectors, self.correcting_kernel)
        return (K @ self.deltas) / self.gamma_plus + self.bias_star

    def correcting_value(self, xstar) -> float:
        return float(
            self.correcting_values(_as_row(xstar, self.correcting_vectors))[0]
        )


def assemble_dual(K, Kstar, y, C, gamma_plus):
    """Q, c and the dropped constant of the 2n-variable minimization.

    Variable order is [alpha; beta].  The constant belongs to the
    expansion of delta'K*delta and is needed to report the true dual
    objective.  Correctness of the expansion is pinned by an
    evaluation-equivalence test against the unexpanded objective.
    """
    n = y.shape[0]
    S = Kstar / gamma_plus
    Q = np.empty((2 * n, 2 * n))
    Q[:n, :n] = K * np.outer(y, y) + S
    Q[:n, n:] = S
    Q[n:, :n] = S
    Q[n:, n:] = S
    s_row = C * S.sum(axis=1)
    c = np.concatenate([-1.0 - s_row, -s_row])
    constant = 0.5 * C * float(s_row.sum())
    return Q, c, constant


def dual_objective_direct(K, Kstar, y, C, gamma_plus, alpha, beta) -> float:
    """Unexpanded SVM+ dual objective (the maximized form)."""
    delta = alpha + beta - C
    return float(
        alpha.sum()
        - 0.5 * (alpha * y) @ (K @ (alpha * y))
        - 0.5 / gamma_plus * delta @ (Kstar @ delta)
    )


def svmplus_train(X, Xstar, y, cfg: SvmPlusConfig, tol: float = 1e-8,
                  max_iter: int = 200, gram=None, gram_star=None) -> SvmPlusModel:
    """Train SVM+ on (X, X*, y) triplets.

    ``gram`` / ``gram_star`` may supply precomputed self-Grams for the
    decision and correcting spaces.
    """
    y = check_labels(y)
    n = X.shape[0]
    if Xstar.shape[0] != n:
        raise ValueError(
            f"row count mismatch: X has {n} rows, X* has {Xstar.shape[0]}"
        )
    if y.shape[0] != n:
        raise ValueError(f"row count mismatch: X has {n}, y has {y.shape[0]}")
    K = gram_matrix(X, X, cfg.decision_kernel) if gram is None else gram
    Kstar = (
        gram_matrix(Xstar, Xstar, cfg.correcting_kernel)
        if gram_star is None
        else gram_star
    )
    Q, c, constant = assemble_dual(K, Kstar, y, cfg.C, cfg.gamma_plus)
    problem = QpProblem.with_equalities(
        Q=Q,
        c=c,
        equalities=[
            (np.concatenate([y, np.zeros(n)]), 0.0),
            (np.ones(2 * n), n * cfg.C),
        ],
        lower=0.0,
        upper=np.inf,
    )
    sol = solve_or_accept(problem, tol=tol, max_iter=max_iter)
    alpha = np.maximum(sol.x[:n], 0.0)
    beta = np.maximum(sol.x[n:], 0.0)
    deltas = alpha + beta - cfg.C
    bias = -float(sol.eq_multipliers[0])
    bias_star = -float(sol.eq_multipliers[1])
    _crosscheck_biases(K, Kstar, y, alpha, deltas, cfg.gamma_plus, bias, bias_star)

    weights_full = alpha * y
    keep = np.flatnonzero(alpha > PRUNE_TOL)
    decision = DecisionModel(
        support_vectors=X[keep],
        weights=weights_full[keep],
        bias=bias,
        kernel=cfg.decision_kernel,
        support_indices=keep,
        dual_objective=-(sol.objective + constant),
        kkt_residual=sol.kkt_residual,
    )
    return SvmPlusModel(
        decision=decision,
        deltas=deltas,
        bias_star=bias_star,
        correcting_kernel=cfg.correcting_kernel,
        correcting_vectors=Xstar,
        gamma_plus=cfg.gamma_plus,
        alpha=alpha,
        beta=beta,
        dual_objective=-(sol.objective + constant),
        kkt_residual=sol.kkt_residual,
    )


def _crosscheck_biases(K, Kstar, y, alpha, deltas, gamma_plus, bias, bias_star):
    """Least-squares refit of the margin equations over support vectors.

    For every support row the KKT margin equation reads
        y_i (s_i + b) = 1 - (psi_i + b*)
    with s_i the bias-free decision value and psi_i the bias-free
    correcting value.  A disagreement with the multiplier-derived biases
    signals a degenerate support set and is reported as a warning.
    """
    sv = np.flatnonzero(alpha > SUPPORT_TOL)
    if sv.shape[0] < 2:
        return
    design = np.column_stack([y[sv], np.ones(sv.shape[0])])
    if np.linalg.matrix_rank(design) < 2:
        return
    s = K[sv] @ (alpha * y)
    psi = (Kstar[sv] @ deltas) / gamma_plus
    rhs = 1.0 - y[sv] * s - psi
    fitted, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    gap = max(abs(fitted[0] - bias), abs(fitted[1] - bias_star))
    if gap > 1e-3:
        warnings.warn(
            f"bias recovery routes disagree by {gap:.3e} "
            f"(multipliers: b={bias:.6g}, b*={bias_star:.6g}; "
            f"least squares: b={fitted[0]:.6g}, b*={fitted[1]:.6g})",
            BiasRecoveryWarning,
        )

