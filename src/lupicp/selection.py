"""Stratified partitioning, k-fold cross-validation and grid search,
including the three-step tuning protocol (SVM on X, SVM on X*, then
SVM+ with both kernel widths pinned).

All randomness flows through explicit integer seeds, so every split,
fold assignment and selected parameter is reproducible.  Grid-search
ties are broken toward the smaller C, then the smaller gamma.

A grid search deals its distinct cells into one interleaved part per
available CPU and runs each part in a forked worker
(:mod:`lupicp.workers`); the workers inherit the folds and the fit
through fork and send back only each cell's fold accuracies or first
failure.  The search runs in this process instead on one CPU, where
fork is unavailable, or when ``svm_train``, ``svmplus_train`` or
``rbf_from_squared_distances`` in this module no longer is the library's
own (a test's or a tracer's replacement then
sees every fit).  Either way the same fits run and the same cell wins.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, rbf_from_squared_distances, squared_distances
from .svm import SvmConfig, TrainingError, sign_labels, svm_train
from .svmplus import SvmPlusConfig, svmplus_train
from .workers import available_cpus, map_parts

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

# The fit path as the library binds it.  A tuple: rebinding every module
# global bound to one of these functions leaves its entries alone.
_LIBRARY_FIT_PATH = (svm_train, svmplus_train, rbf_from_squared_distances)


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


def _fold_distances(X, folds):
    """Per-fold (training, validation-by-training) squared-distance
    blocks of X, reused across every kernel width."""
    blocks = []
    for train, validate in folds:
        X_tr = X[train]
        blocks.append((squared_distances(X_tr, X_tr),
                       squared_distances(X[validate], X_tr)))
    return blocks


def _cross_validate(y, folds, cells, fit, gamma_name):
    """Mean k-fold validation accuracy of every distinct grid cell.

    The distinct (C, gamma) ``cells`` are dealt into :func:`_worker_count`
    interleaved parts, run by :func:`~lupicp.workers.map_parts`.  Each part
    is fold-major: each fold walks the part's cells in grid order.
    ``fit(fold, C, gamma)`` trains on fold ``fold`` and returns the model
    with its validation-by-training kernel block.  A cell whose training
    fails on a fold is not fit on the later folds; it is logged after the
    loop, in cell order, and left out.
    """
    cells = list(dict.fromkeys((float(C), float(gamma)) for C, gamma in cells))
    workers = _worker_count(len(cells))

    def run_part(part):
        accs = {cell: [] for cell in cells[part::workers]}
        failed = {}
        for fold, (_, validate) in enumerate(folds):
            for cell in accs:
                if cell in failed:
                    continue
                try:
                    model, k_val = fit(fold, *cell)
                except TrainingError as exc:
                    failed[cell] = str(exc)  # not exc: its traceback holds the fit's arrays
                    continue
                vals = k_val[:, model.support_indices] @ model.weights + model.bias
                accs[cell].append(np.mean(sign_labels(vals) == y[validate]))
        return accs, failed

    accs, failed = {}, {}
    for part_accs, part_failed in map_parts(run_part, workers):
        accs.update(part_accs)
        failed.update(part_failed)
    for C, gamma in cells:
        if (C, gamma) in failed:
            logger.warning("grid cell C=%g %s=%g failed: %s",
                           C, gamma_name, gamma, failed[C, gamma])
    return {cell: float(np.mean(accs[cell])) for cell in cells if cell not in failed}


def _worker_count(n_cells: int) -> int:
    """One worker per available CPU, at most one per cell; 1, which keeps
    the search in this process, when a fit-path lookup of this module has
    been replaced."""
    fit_path = (svm_train, svmplus_train, rbf_from_squared_distances)
    if any(now is not own for now, own in zip(fit_path, _LIBRARY_FIT_PATH)):
        return 1
    return min(available_cpus(), n_cells)


def grid_search_svm(X, y, grid: GridSpec, folds, distances) -> dict:
    """Pick (C, gamma) with the highest mean k-fold validation accuracy;
    returns ``{"C", "gamma", "cv_accuracy"}``.

    ``folds`` are :func:`kfold_indices` pairs and ``distances`` their
    :func:`_fold_distances` blocks of X.  Cells run width by width, so
    one fold's kernels of one width are alive at a time.
    """
    y = np.asarray(y)

    @functools.lru_cache(maxsize=1)
    def kernels(fold, gamma):
        d_train, d_val = distances[fold]
        return (rbf_from_squared_distances(d_train, gamma),
                rbf_from_squared_distances(d_val, gamma))

    def fit(fold, C, gamma):
        train = folds[fold][0]
        K, K_val = kernels(fold, gamma)
        cfg = SvmConfig(C=C, kernel=KernelSpec(gamma=gamma))
        return svm_train(X[train], y[train], cfg, gram=K), K_val

    cells = [(C, gamma) for gamma in grid.gamma_values for C in grid.C_values]
    return _pick_best(_cross_validate(y, folds, cells, fit, "gamma"), "gamma")


def grid_search_svmplus(X, Xstar, y, grid: GridSpec, gamma1: float, gamma2: float,
                        folds, distances, star_distances) -> dict:
    """Search (C, gamma_plus) with both kernel widths held fixed; returns
    ``{"C", "gamma_plus", "cv_accuracy"}``.

    ``grid.gamma_values`` carries the gamma_plus candidates here.
    ``distances`` and ``star_distances`` are the :func:`_fold_distances`
    blocks of X and of X* on ``folds``.
    """
    y = np.asarray(y)

    @functools.lru_cache(maxsize=1)
    def kernels(fold):
        (d_train, d_val), (d_star, _) = distances[fold], star_distances[fold]
        return (rbf_from_squared_distances(d_train, gamma1),
                rbf_from_squared_distances(d_val, gamma1),
                rbf_from_squared_distances(d_star, gamma2))

    def fit(fold, C, gamma_plus):
        train = folds[fold][0]
        K, K_val, K_star = kernels(fold)
        cfg = SvmPlusConfig(C=C, gamma_plus=gamma_plus,
                            decision_kernel=KernelSpec(gamma=gamma1),
                            correcting_kernel=KernelSpec(gamma=gamma2))
        return svmplus_train(X[train], Xstar[train], y[train], cfg,
                             gram=K, gram_star=K_star), K_val

    cells = [(C, g) for C in grid.C_values for g in grid.gamma_values]
    return _pick_best(_cross_validate(y, folds, cells, fit, "gamma_plus"), "gamma_plus")


def _pick_best(scores: dict, gamma_name: str) -> dict:
    """The best-scoring cell, shaped as a ``selected_parameters`` entry."""
    if not scores:
        raise SearchError("every grid cell failed to train")
    C, gamma = min(scores, key=lambda key: (-scores[key], key[0], key[1]))
    return {"C": C, gamma_name: gamma, "cv_accuracy": scores[(C, gamma)]}


def tune_three_step(X, Xstar, y, grid_x: GridSpec, grid_xstar: GridSpec,
                    grid_plus: GridSpec, k: int, seed: int) -> dict:
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
    distances = _fold_distances(X, folds)
    step1 = grid_search_svm(X, y, grid_x, folds, distances)
    star_distances = _fold_distances(Xstar, folds)
    step2 = grid_search_svm(Xstar, y, grid_xstar, folds, star_distances)
    gamma1, gamma2 = step1["gamma"], step2["gamma"]
    step3 = grid_search_svmplus(X, Xstar, y, grid_plus, gamma1, gamma2,
                                folds, distances, star_distances)
    return {"svm_x": step1, "svm_xstar": step2,
            "svmplus": {**step3, "gamma1": gamma1, "gamma2": gamma2}}
