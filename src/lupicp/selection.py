"""Stratified partitioning, k-fold cross-validation and grid search,
including the three-step tuning protocol (SVM on X, SVM on X*, then
SVM+ with both kernel widths pinned).

All randomness flows through explicit integer seeds, so every split,
fold assignment and selected parameter is reproducible.  Grid-search
ties are broken toward the smaller C, then the smaller gamma.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, rbf_from_squared_distances, squared_distances
from .svm import SvmConfig, TrainingError, sign_labels, svm_train
from .svmplus import SvmPlusConfig, svmplus_train

__all__ = [
    "SplitPlan",
    "GridSpec",
    "SearchError",
    "stratified_split",
    "kfold_indices",
    "grid_search_svm",
    "grid_search_svmplus",
    "tune_three_step",
    "SVM_PARAMETER_RANGES",
    "SVMPLUS_PARAMETER_RANGES",
    "default_svm_grid",
    "default_svmplus_grid",
]

logger = logging.getLogger(__name__)

# (C range, gamma range) explored per method
SVM_PARAMETER_RANGES = ((0.1, 1000.0), (1e-7, 1.0))
SVMPLUS_PARAMETER_RANGES = ((0.01, 100.0), (1e-4, 0.1))


class SearchError(Exception):
    """Every grid cell failed to train."""


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint stratified partition of row indices.

    ``first`` receives the requested fraction of each class (largest-
    remainder rounding); ``second`` holds the rest.
    """

    first: np.ndarray
    second: np.ndarray


@dataclass(frozen=True)
class GridSpec:
    """Candidate C and gamma values for one method's search."""

    C_values: tuple
    gamma_values: tuple

    def __post_init__(self):
        object.__setattr__(self, "C_values", tuple(float(v) for v in self.C_values))
        object.__setattr__(
            self, "gamma_values", tuple(float(v) for v in self.gamma_values)
        )
        if not self.C_values or not self.gamma_values:
            raise ValueError("grid must contain at least one C and one gamma")
        if min(self.C_values) <= 0 or min(self.gamma_values) <= 0:
            raise ValueError("grid values must be positive")

    def check_ranges(self, ranges, what: str) -> None:
        (c_lo, c_hi), (g_lo, g_hi) = ranges
        for v in self.C_values:
            if not (c_lo <= v <= c_hi):
                raise ValueError(f"{what}: C={v} outside [{c_lo}, {c_hi}]")
        for v in self.gamma_values:
            if not (g_lo <= v <= g_hi):
                raise ValueError(f"{what}: gamma={v} outside [{g_lo}, {g_hi}]")


def default_svm_grid() -> GridSpec:
    return GridSpec(
        C_values=(0.1, 1.0, 10.0, 100.0, 1000.0),
        gamma_values=tuple(10.0 ** e for e in range(-7, 1)),
    )


def default_svmplus_grid() -> GridSpec:
    return GridSpec(
        C_values=(0.01, 0.1, 1.0, 10.0, 100.0),
        gamma_values=(1e-4, 1e-3, 1e-2, 0.1),
    )


def _class_counts(y):
    y = np.asarray(y)
    labels, counts = np.unique(y, return_counts=True)
    return {int(l): int(c) for l, c in zip(labels, counts)}


def stratified_split(y, fraction: float, seed: int) -> SplitPlan:
    """Seeded stratified two-way split of ``range(len(y))``.

    Per-class allocations use largest-remainder rounding against the
    overall target size, keeping every part within one example of exact
    class proportionality.
    """
    y = np.asarray(y)
    n = y.shape[0]
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    counts = _class_counts(y)
    for label, count in counts.items():
        if count < 2:
            raise ValueError(f"class {label} has fewer than 2 examples")
    target_total = int(round(fraction * n))
    quotas = {label: fraction * count for label, count in counts.items()}
    base = {label: int(np.floor(q)) for label, q in quotas.items()}
    leftover = target_total - sum(base.values())
    remainders = sorted(
        counts, key=lambda label: (-(quotas[label] - base[label]), label)
    )
    take = dict(base)
    for label in remainders:
        if leftover <= 0:
            break
        if take[label] < counts[label]:
            take[label] += 1
            leftover -= 1
    rng = np.random.default_rng(seed)
    first, second = [], []
    for label in sorted(counts):
        idx = np.flatnonzero(y == label)
        idx = idx[rng.permutation(idx.shape[0])]
        first.append(idx[: take[label]])
        second.append(idx[take[label] :])
    return SplitPlan(
        first=np.sort(np.concatenate(first)),
        second=np.sort(np.concatenate(second)),
    )


def kfold_indices(n: int, k: int, y, seed: int) -> list:
    """Stratified k-fold (train, validate) index pairs.

    Each row validates exactly once; per-fold class counts stay within
    one of exact proportionality.
    """
    y = np.asarray(y)
    if y.shape[0] != n:
        raise ValueError(f"y has {y.shape[0]} entries, expected {n}")
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise ValueError(f"cannot make {k} folds from {n} rows")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(n, dtype=int)
    offset = 0
    for label in sorted(_class_counts(y)):
        idx = np.flatnonzero(y == label)
        idx = idx[rng.permutation(idx.shape[0])]
        # round-robin with a rotating start so small classes spread evenly
        fold_of[idx] = (np.arange(idx.shape[0]) + offset) % k
        offset += idx.shape[0] % k
    pairs = []
    everything = np.arange(n)
    for fold in range(k):
        validate = everything[fold_of == fold]
        train = everything[fold_of != fold]
        pairs.append((train, validate))
    return pairs


def _fold_distance_cache(X, folds):
    """Per-fold squared-distance blocks reused across every gamma."""
    cache = []
    for train, validate in folds:
        X_tr = X[train]
        cache.append(
            {
                "train": train,
                "validate": validate,
                "d_train": squared_distances(X_tr, X_tr),
                "d_val": squared_distances(X[validate], X_tr),
            }
        )
    return cache


def _cross_validate(y, cache, groups, fit, gamma_name):
    """Mean k-fold validation accuracy of every distinct grid cell.

    ``groups`` yields, one kernel width at a time, the per-fold kernels
    (each a tuple whose first two entries are the training Gram and the
    validation-by-training block) and the (C, gamma) cells scored on
    them.  ``fit(C, gamma, fold, kernels)`` trains on one fold.  A cell
    whose training fails on any fold is logged and left out.
    """
    scores, seen = {}, set()
    for kernels, cells in groups:
        for C, gamma in cells:
            key = (float(C), float(gamma))
            if key in seen:
                continue
            seen.add(key)
            accs = []
            try:
                for f, k in zip(cache, kernels):
                    model = fit(C, gamma, f, k)
                    vals = k[1][:, model.support_indices] @ model.weights + model.bias
                    accs.append(np.mean(sign_labels(vals) == y[f["validate"]]))
            except TrainingError as exc:
                logger.warning(
                    "grid cell C=%g %s=%g failed: %s", C, gamma_name, gamma, exc
                )
                continue
            scores[key] = float(np.mean(accs))
    return scores


def grid_search_svm(X, y, grid: GridSpec, k: int, seed: int,
                    tol: float = 1e-8, cache=None) -> dict:
    """Pick (C, gamma) with the highest mean k-fold validation accuracy;
    returns ``{"C", "gamma", "cv_accuracy"}``.

    ``cache`` may pass the fold distance blocks of X already built on
    the folds of (k, seed), as :func:`tune_three_step` does.
    """
    y = np.asarray(y)
    if cache is None:
        cache = _fold_distance_cache(X, kfold_indices(y.shape[0], k, y, seed))

    def fit(C, gamma, f, kernels):
        return svm_train(X[f["train"]], y[f["train"]],
                         SvmConfig(C=C, kernel=KernelSpec(gamma=gamma)),
                         tol=tol, gram=kernels[0])

    def widths():
        for gamma in dict.fromkeys(grid.gamma_values):
            kernels = [
                (rbf_from_squared_distances(f["d_train"], gamma),
                 rbf_from_squared_distances(f["d_val"], gamma))
                for f in cache
            ]
            yield kernels, [(C, gamma) for C in grid.C_values]

    return _pick_best(_cross_validate(y, cache, widths(), fit, "gamma"), "gamma")


def grid_search_svmplus(X, Xstar, y, grid: GridSpec, gamma1: float, gamma2: float,
                        k: int, seed: int, tol: float = 1e-8,
                        caches=None) -> dict:
    """Search (C, gamma_plus) with both kernel widths held fixed; returns
    ``{"C", "gamma_plus", "cv_accuracy"}``.

    ``grid.gamma_values`` carries the gamma_plus candidates here.
    ``caches`` may pass the fold distance blocks of X and of X* already
    built on the folds of (k, seed), as :func:`tune_three_step` does.
    """
    y = np.asarray(y)
    if caches is None:
        folds = kfold_indices(y.shape[0], k, y, seed)
        caches = (_fold_distance_cache(X, folds), _fold_distance_cache(Xstar, folds))
    cache, star_cache = caches

    def fit(C, gamma_plus, f, kernels):
        cfg = SvmPlusConfig(C=C, gamma_plus=gamma_plus,
                            decision_kernel=KernelSpec(gamma=gamma1),
                            correcting_kernel=KernelSpec(gamma=gamma2))
        return svmplus_train(X[f["train"]], Xstar[f["train"]], y[f["train"]], cfg,
                             tol=tol, gram=kernels[0], gram_star=kernels[2])

    kernels = [
        (rbf_from_squared_distances(f["d_train"], gamma1),
         rbf_from_squared_distances(f["d_val"], gamma1),
         rbf_from_squared_distances(s["d_train"], gamma2))
        for f, s in zip(cache, star_cache)
    ]
    cells = [(C, g) for C in grid.C_values for g in grid.gamma_values]
    return _pick_best(_cross_validate(y, cache, [(kernels, cells)], fit, "gamma_plus"),
                      "gamma_plus")


def _pick_best(scores: dict, gamma_name: str) -> dict:
    """The best-scoring cell, shaped as a ``selected_parameters`` entry."""
    if not scores:
        raise SearchError("every grid cell failed to train")
    C, gamma = min(scores, key=lambda key: (-scores[key], key[0], key[1]))
    return {"C": C, gamma_name: gamma, "cv_accuracy": scores[(C, gamma)]}


def tune_three_step(X, Xstar, y, grid_x: GridSpec, grid_xstar: GridSpec,
                    grid_plus: GridSpec, k: int, seed: int,
                    tol: float = 1e-8) -> dict:
    """The three-step protocol.

    Step 1 tunes (C1, gamma1) with SVM on X; step 2 tunes (C2, gamma2)
    with SVM on X*; step 3 tunes the SVM+ pair (C, gamma_plus) with the
    kernel widths pinned to gamma1 and gamma2 from the first two steps.
    All three steps share one set of folds, so each fold's distance
    blocks are computed once per feature space.

    Returns the selected parameters keyed ``svm_x``, ``svm_xstar`` and
    ``svmplus``; the ``svmplus`` entry also carries the pinned widths
    ``gamma1`` and ``gamma2``.
    """
    grid_x.check_ranges(SVM_PARAMETER_RANGES, "SVM on X grid")
    grid_xstar.check_ranges(SVM_PARAMETER_RANGES, "SVM on X* grid")
    grid_plus.check_ranges(SVMPLUS_PARAMETER_RANGES, "SVM+ grid")
    folds = kfold_indices(len(y), k, y, seed)
    cache = _fold_distance_cache(X, folds)
    step1 = grid_search_svm(X, y, grid_x, k=k, seed=seed, tol=tol, cache=cache)
    star_cache = _fold_distance_cache(Xstar, folds)
    step2 = grid_search_svm(Xstar, y, grid_xstar, k=k, seed=seed, tol=tol,
                            cache=star_cache)
    gamma1, gamma2 = step1["gamma"], step2["gamma"]
    step3 = grid_search_svmplus(
        X, Xstar, y, grid_plus,
        gamma1=gamma1, gamma2=gamma2, k=k, seed=seed, tol=tol,
        caches=(cache, star_cache),
    )
    return {"svm_x": step1, "svm_xstar": step2,
            "svmplus": {**step3, "gamma1": gamma1, "gamma2": gamma2}}
