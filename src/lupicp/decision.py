"""Trained decision functions: what scoring needs of a trained model.

The SVM and SVM+ trainers produce these models, and :mod:`lupicp.model_io`
reads and writes them.  Scoring evaluates kernels on X alone, so this
module needs neither the QP solver nor the trainers, and nothing here
loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, gram_matrix

__all__ = ["BLOCK_ENTRIES", "DecisionModel", "SvmPlusModel"]

# kernel entries per block of rows that decision_values scores at once
BLOCK_ENTRIES = 2**21


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

    @property
    def block_rows(self) -> int:
        """Rows per block of :meth:`decision_values`: as many as keep the
        kernel block within BLOCK_ENTRIES entries, and at least one."""
        return max(1, BLOCK_ENTRIES // max(1, self.n_support))

    def decision_values(self, X) -> np.ndarray:
        """f at each row of X (dense or CSR), scored in blocks of
        :attr:`block_rows` rows, so memory beyond X and the result does not
        grow with the row count."""
        n = X.shape[0]
        if self.n_support == 0:
            return np.full(n, self.bias)
        values = np.empty(n)
        step = self.block_rows
        for start in range(0, n, step):
            rows = X[start:start + step]
            values[start:start + step] = (
                gram_matrix(rows, self.support_vectors, self.kernel) @ self.weights
                + self.bias
            )
        return values


@dataclass(kw_only=True)
class SvmPlusModel(DecisionModel):
    """Decision model over X plus the diagnostic correcting function.

    ``deltas`` are alpha + beta - C; together with ``bias_star`` they
    reconstruct the modeled slack over X*.  The raw dual variables are
    retained for KKT auditing.
    """

    deltas: np.ndarray
    bias_star: float
    correcting_kernel: KernelSpec
    correcting_vectors: object
    gamma_plus: float
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None

    def correcting_values(self, Xstar) -> np.ndarray:
        K = gram_matrix(Xstar, self.correcting_vectors, self.correcting_kernel)
        return (K @ self.deltas) / self.gamma_plus + self.bias_star
