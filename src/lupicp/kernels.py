"""RBF kernel evaluation and Gram-matrix construction.

Shared by the SVM and SVM+ trainers and by decision-function evaluation.
Feature matrices may be dense ndarrays or scipy sparse matrices; Gram
matrices are always materialized densely (affordable at the row counts
this library targets, and it keeps the QP solver simple).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "KernelSpec",
    "rbf_eval",
    "gram_matrix",
    "squared_distances",
    "rbf_from_squared_distances",
]


@dataclass(frozen=True)
class KernelSpec:
    """RBF kernel k(a, b) = exp(-gamma * ||a - b||^2).

    gamma is the inverse squared length-scale and must be positive.
    """

    gamma: float
    family: str = "rbf"

    def __post_init__(self):
        if self.family != "rbf":
            raise ValueError(f"unsupported kernel family: {self.family!r}")
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"kernel gamma must be a positive real, got {self.gamma!r}")


def _num_cols(X) -> int:
    if X.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got ndim={X.ndim}")
    return X.shape[1]


def _row_sq_norms(X) -> np.ndarray:
    if sp.issparse(X):
        return np.asarray(X.multiply(X).sum(axis=1)).ravel()
    return np.einsum("ij,ij->i", X, X)


def squared_distances(A, B) -> np.ndarray:
    """Pairwise squared Euclidean distances as a dense (n_a, n_b) array.

    Computed as ||a||^2 + ||b||^2 - 2<a, b> so sparse inputs never get
    densified; negative rounding residue is clamped to zero.  When A and
    B are the same object the result is exactly symmetric with a zero
    diagonal.
    """
    if _num_cols(A) != _num_cols(B):
        raise ValueError(
            f"feature dimension mismatch: {A.shape[1]} vs {B.shape[1]}"
        )
    same = A is B
    na = _row_sq_norms(A)
    nb = na if same else _row_sq_norms(B)
    cross = A @ B.T
    if sp.issparse(cross):
        cross = cross.toarray()
    cross = np.asarray(cross, dtype=float)
    # in place, the same values as na + nb - 2 * cross with two arrays alive
    d = na[:, None] + nb[None, :]
    cross *= 2.0
    d -= cross
    np.maximum(d, 0.0, out=d)
    if same:
        d = 0.5 * (d + d.T)
        np.fill_diagonal(d, 0.0)
    return d


def rbf_from_squared_distances(d: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * d) for a precomputed squared-distance array."""
    K = -gamma * d
    return np.exp(K, out=K)


def gram_matrix(rows_a, rows_b, spec: KernelSpec) -> np.ndarray:
    """Dense kernel matrix with entry (i, j) = k(rows_a[i], rows_b[j])."""
    return rbf_from_squared_distances(squared_distances(rows_a, rows_b), spec.gamma)


def rbf_eval(a, b, spec: KernelSpec) -> float:
    """Scalar kernel value exp(-gamma * ||a - b||^2) for two vectors."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"vector dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    diff = a - b
    return float(np.exp(-spec.gamma * np.dot(diff, diff)))
