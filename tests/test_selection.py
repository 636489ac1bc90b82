import logging
import multiprocessing
import os
import re
from collections import Counter

import numpy as np
import pytest

from lupicp.selection import (
    GridSpec,
    _fold_distances,
    default_svm_grid,
    default_svmplus_grid,
    grid_search_svm,
    grid_search_svmplus,
    kfold_indices,
    stratified_split,
    tune_three_step,
)
from lupicp.kernels import squared_distances
from lupicp.svm import TrainingError
from conftest import triplet_blobs, two_blobs


def _fold_table(y, k, seed, *spaces):
    """The folds of (k, seed) and their distance blocks in each of ``spaces``,
    as the grid searches take them."""
    folds = kfold_indices(len(y), k, y, seed)
    return (folds, *(_fold_distances(Z, folds) for Z in spaces))


def test_split_exact_proportions():
    y = np.array([-1] * 5 + [1] * 5)
    plan = stratified_split(y, 0.8, seed=0)
    assert plan.first.shape[0] == 8
    assert plan.second.shape[0] == 2
    assert np.sum(y[plan.first] == -1) == 4
    assert np.sum(y[plan.second] == -1) == 1


def test_split_determinism():
    y = np.array([-1, 1] * 25)
    a = stratified_split(y, 0.7, seed=42)
    b = stratified_split(y, 0.7, seed=42)
    assert np.array_equal(a.first, b.first)
    assert np.array_equal(a.second, b.second)
    c = stratified_split(y, 0.7, seed=43)
    assert not np.array_equal(a.first, c.first)


def test_split_is_partition_with_near_proportional_classes():
    rng = np.random.default_rng(5)
    y = rng.choice([-1, 1], size=173, p=[0.3, 0.7])
    plan = stratified_split(y, 0.8, seed=1)
    merged = np.sort(np.concatenate([plan.first, plan.second]))
    assert np.array_equal(merged, np.arange(173))
    for label in (-1, 1):
        total = np.sum(y == label)
        got = np.sum(y[plan.first] == label)
        assert abs(got - 0.8 * total) <= 1.0


def test_split_rejects_tiny_classes_and_bad_fraction():
    with pytest.raises(ValueError):
        stratified_split(np.array([-1, 1, 1, 1]), 0.8, seed=0)
    with pytest.raises(ValueError):
        stratified_split(np.array([-1, -1, 1, 1]), 1.0, seed=0)


def test_kfold_balanced_partition():
    y = np.array([-1] * 5 + [1] * 5)
    folds = kfold_indices(10, 5, y, seed=0)
    assert len(folds) == 5
    all_validation = np.sort(np.concatenate([v for _, v in folds]))
    assert np.array_equal(all_validation, np.arange(10))
    for train, validate in folds:
        assert validate.shape[0] == 2
        assert np.sum(y[validate] == -1) == 1
        assert np.intersect1d(train, validate).size == 0
        assert np.array_equal(np.sort(np.concatenate([train, validate])), np.arange(10))


def test_kfold_class_proportions_within_one():
    rng = np.random.default_rng(6)
    y = rng.choice([-1, 1], size=83, p=[0.4, 0.6])
    k = 5
    folds = kfold_indices(83, k, y, seed=2)
    for label in (-1, 1):
        total = np.sum(y == label)
        for _, validate in folds:
            got = np.sum(y[validate] == label)
            assert abs(got - total / k) <= 1.0


def test_kfold_argument_validation():
    y = np.array([-1, 1, -1, 1])
    with pytest.raises(ValueError):
        kfold_indices(4, 1, y, seed=0)
    with pytest.raises(ValueError):
        kfold_indices(4, 5, y, seed=0)
    with pytest.raises(ValueError):
        kfold_indices(5, 2, y, seed=0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(C_values=(), gamma_values=(0.1,))
    with pytest.raises(ValueError):
        GridSpec(C_values=(1.0,), gamma_values=(-0.1,))
    grid = GridSpec(C_values=(1.0, 5000.0), gamma_values=(0.1,))
    with pytest.raises(ValueError):
        grid.check_ranges(((0.1, 1000.0), (1e-7, 1.0)), "svm")


def test_default_grids_cover_stated_ranges():
    svm = default_svm_grid()
    assert min(svm.C_values) == 0.1 and max(svm.C_values) == 1000.0
    assert min(svm.gamma_values) == 1e-7 and max(svm.gamma_values) == 1.0
    plus = default_svmplus_grid()
    assert min(plus.C_values) == 0.01 and max(plus.C_values) == 100.0
    assert min(plus.gamma_values) == 1e-4 and max(plus.gamma_values) == 0.1


def test_single_cell_grid_returns_that_cell():
    X, y = two_blobs(20, seed=0)
    grid = GridSpec(C_values=(2.0,), gamma_values=(0.5,))
    result = grid_search_svm(X, y, grid, *_fold_table(y, 2, 0, X))
    assert result["C"] == 2.0 and result["gamma"] == 0.5


def test_duplicate_cells_equal_deduplicated():
    X, y = two_blobs(20, seed=1)
    grid_a = GridSpec(C_values=(1.0, 1.0, 10.0), gamma_values=(0.5, 0.5))
    grid_b = GridSpec(C_values=(1.0, 10.0), gamma_values=(0.5,))
    table = _fold_table(y, 2, 3, X)
    r_a = grid_search_svm(X, y, grid_a, *table)
    r_b = grid_search_svm(X, y, grid_b, *table)
    assert (r_a["C"], r_a["gamma"], r_a["cv_accuracy"]) == (
        r_b["C"], r_b["gamma"], r_b["cv_accuracy"])


def test_separable_blobs_reach_full_cv_accuracy():
    X, y = two_blobs(40, seed=2, separation=8.0)
    grid = GridSpec(C_values=(1.0, 10.0), gamma_values=(0.1, 0.5))
    result = grid_search_svm(X, y, grid, *_fold_table(y, 5, 0, X))
    assert result["cv_accuracy"] == 1.0


def test_tie_break_prefers_smaller_c_then_gamma():
    # hugely separated blobs: every cell classifies perfectly
    X, y = two_blobs(24, seed=3, separation=12.0)
    grid = GridSpec(C_values=(10.0, 0.5), gamma_values=(0.9, 0.2))
    result = grid_search_svm(X, y, grid, *_fold_table(y, 3, 0, X))
    assert result["cv_accuracy"] == 1.0
    assert result["C"] == 0.5
    assert result["gamma"] == 0.2


def test_three_step_singleton_grids_pass_through():
    X, Xstar, y = triplet_blobs(24, seed=4)
    result = tune_three_step(
        X, Xstar, y,
        GridSpec((2.0,), (0.5,)),
        GridSpec((3.0,), (0.25,)),
        GridSpec((1.0,), (0.05,)),
        k=2, seed=0,
    )
    assert (result["svm_x"]["C"], result["svm_x"]["gamma"]) == (2.0, 0.5)
    assert (result["svm_xstar"]["C"], result["svm_xstar"]["gamma"]) == (3.0, 0.25)
    assert (result["svmplus"]["C"], result["svmplus"]["gamma_plus"]) == (1.0, 0.05)


def test_three_step_never_alters_kernel_widths():
    X, Xstar, y = triplet_blobs(30, seed=5)
    result = tune_three_step(
        X, Xstar, y,
        GridSpec((1.0, 10.0), (0.3, 0.6)),
        GridSpec((1.0,), (0.2, 0.4)),
        GridSpec((0.5, 1.0), (0.01, 0.1)),
        k=2, seed=1,
    )
    assert result["svm_x"]["gamma"] in (0.3, 0.6)
    assert result["svm_xstar"]["gamma"] in (0.2, 0.4)
    assert result["svmplus"]["gamma_plus"] in (0.01, 0.1)  # gamma_plus, not a kernel width


def test_three_step_determinism():
    X, Xstar, y = triplet_blobs(30, seed=6)
    grids = (
        GridSpec((1.0, 5.0), (0.2, 0.8)),
        GridSpec((1.0,), (0.3,)),
        GridSpec((1.0,), (0.05,)),
    )
    r1 = tune_three_step(X, Xstar, y, *grids, k=3, seed=9)
    r2 = tune_three_step(X, Xstar, y, *grids, k=3, seed=9)
    assert r1 == r2


def test_three_step_builds_fold_distances_once(monkeypatch):
    import lupicp.selection as selection

    X, Xstar, y = triplet_blobs(30, seed=6)
    grids = (
        GridSpec((1.0, 5.0), (0.2, 0.8)),
        GridSpec((1.0,), (0.3, 0.6)),
        GridSpec((0.5, 1.0), (0.01, 0.1)),
    )
    folds, distances, star_distances = _fold_table(y, 3, 9, X, Xstar)
    step1 = grid_search_svm(X, y, grids[0], folds, distances)
    step2 = grid_search_svm(Xstar, y, grids[1], folds, star_distances)
    step3 = grid_search_svmplus(X, Xstar, y, grids[2], step1["gamma"], step2["gamma"],
                                folds, distances, star_distances)
    calls = []

    def counted(A, B):
        calls.append((A.shape, B.shape))
        return squared_distances(A, B)

    monkeypatch.setattr(selection, "squared_distances", counted)
    result = tune_three_step(X, Xstar, y, *grids, k=3, seed=9)
    assert result == {"svm_x": step1, "svm_xstar": step2,
                      "svmplus": {**step3, "gamma1": step1["gamma"],
                                  "gamma2": step2["gamma"]}}
    # training and validation blocks, per fold, of X and of X*
    assert len(calls) == 2 * 2 * 3


def test_grid_search_svmplus_runs_with_fixed_widths():
    X, Xstar, y = triplet_blobs(20, seed=7)
    grid = GridSpec((0.5, 2.0), (0.01, 0.1))
    result = grid_search_svmplus(X, Xstar, y, grid, 0.5, 0.3,
                                 *_fold_table(y, 2, 0, X, Xstar))
    assert result["C"] in (0.5, 2.0)
    assert result["gamma_plus"] in (0.01, 0.1)
    assert 0.0 <= result["cv_accuracy"] <= 1.0


def test_selected_cell_cv_accuracy_stable_across_seeds():
    X, y = two_blobs(120, seed=8, separation=2.5)
    grid = GridSpec((1.0, 10.0, 100.0), (0.1, 0.5, 1.0))
    r1 = grid_search_svm(X, y, grid, *_fold_table(y, 5, 1, X))
    r2 = grid_search_svm(X, y, grid, *_fold_table(y, 5, 2, X))
    assert abs(r1["cv_accuracy"] - r2["cv_accuracy"]) <= 0.02


# the text that perfbench/run.py counts as one failed grid cell
CELL_FAILED = re.compile(r"grid cell C=\S+ gamma(?:_plus)?=\S+ failed")


def _search_svm(X, Xstar, y, grid):
    return grid_search_svm(X, y, grid, *_fold_table(y, 3, 0, X))


def _search_svmplus(X, Xstar, y, grid):
    return grid_search_svmplus(X, Xstar, y, grid, 0.5, 0.3,
                               *_fold_table(y, 3, 0, X, Xstar))


@pytest.mark.parametrize("trainer, search, gamma_name", [
    ("svm_train", _search_svm, "gamma"),
    ("svmplus_train", _search_svmplus, "gamma_plus"),
])
def test_failed_cell_is_logged_and_left_out(monkeypatch, caplog, trainer, search,
                                            gamma_name):
    import lupicp.selection as selection

    X, Xstar, y = triplet_blobs(30, seed=12, separation=6.0, star_separation=6.0)
    grid = GridSpec((0.5, 2.0, 0.5, 8.0), (0.1,))
    best = search(X, Xstar, y, grid)
    real = getattr(selection, trainer)

    def failing(*args, **kwargs):
        cfg = args[3] if trainer == "svmplus_train" else args[2]
        if cfg.C == best["C"]:
            raise TrainingError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(selection, trainer, failing)
    with caplog.at_level(logging.WARNING, logger="lupicp.selection"):
        result = search(X, Xstar, y, grid)
    assert result["C"] != best["C"] and result["C"] in grid.C_values
    failed = [r.getMessage() for r in caplog.records if CELL_FAILED.search(r.getMessage())]
    # the duplicated failing cell is tried and reported once
    assert failed == [
        f"grid cell C={best['C']:g} {gamma_name}=0.1 failed: injected failure"
    ]


def test_three_step_fits_each_distinct_cell_once_per_fold(monkeypatch):
    import lupicp.selection as selection

    X, Xstar, y = triplet_blobs(30, seed=6)
    k = 3
    grids = (
        GridSpec((1.0, 5.0, 1.0), (0.2, 0.8, 0.2)),
        GridSpec((1.0, 1.0), (0.3, 0.6, 0.6)),
        GridSpec((0.5, 1.0, 0.5), (0.01, 0.01, 0.1)),
    )
    fits = Counter()

    def counting(trainer, cfg_at, gamma_of):
        def fit(*args, **kwargs):
            cfg = args[cfg_at]
            fits[(trainer.__name__, args[0].shape[1], cfg.C, gamma_of(cfg))] += 1
            return trainer(*args, **kwargs)
        return fit

    monkeypatch.setattr(selection, "svm_train", counting(
        selection.svm_train, 2, lambda cfg: cfg.kernel.gamma))
    monkeypatch.setattr(selection, "svmplus_train", counting(
        selection.svmplus_train, 3, lambda cfg: cfg.gamma_plus))
    tune_three_step(X, Xstar, y, *grids, k=k, seed=9)
    dims = (X.shape[1], Xstar.shape[1], X.shape[1])
    names = ("svm_train", "svm_train", "svmplus_train")
    expected = Counter({
        (name, dim, C, g): k
        for name, dim, grid in zip(names, dims, grids)
        for C in grid.C_values for g in grid.gamma_values
    })
    assert len(expected) == 4 + 2 + 4
    assert fits == expected


def _counting_rbf(monkeypatch):
    import lupicp.selection as selection

    calls = []
    real = selection.rbf_from_squared_distances

    def counted(d, gamma):
        calls.append((id(d), gamma))  # the fold's distance block stays alive
        return real(d, gamma)

    monkeypatch.setattr(selection, "rbf_from_squared_distances", counted)
    return calls


def test_svm_search_builds_each_fold_width_kernel_once(monkeypatch):
    X, y = two_blobs(30, seed=13, separation=3.0)
    k = 3
    grid = default_svm_grid()
    table = _fold_table(y, k, 0, X)
    calls = _counting_rbf(monkeypatch)
    grid_search_svm(X, y, grid, *table)
    # the training and validation kernels of every (fold, width) pair
    assert len(calls) == 2 * len(set(grid.gamma_values)) * k
    assert len(set(calls)) == len(calls)


def test_svmplus_search_builds_each_fold_kernel_once(monkeypatch):
    X, Xstar, y = triplet_blobs(30, seed=14)
    k = 3
    table = _fold_table(y, k, 0, X, Xstar)
    calls = _counting_rbf(monkeypatch)
    grid_search_svmplus(X, Xstar, y, GridSpec((0.5, 2.0), (0.01, 0.1)), 0.5, 0.3, *table)
    # the training and validation kernels of X and the training kernel of X*
    assert len(calls) == 3 * k


def _failing_svm(monkeypatch, fails):
    """Patch svm_train so that the cell of cost C fails on its fit number
    ``fails[C]`` (0-based, so the fold number); returns the fit counter."""
    import lupicp.selection as selection

    fits = Counter()
    real = selection.svm_train

    def fit(*args, **kwargs):
        C = args[2].C
        fits[C] += 1
        if fails.get(C) == fits[C] - 1:
            raise TrainingError(f"injected failure on fold {fits[C] - 1}")
        return real(*args, **kwargs)

    monkeypatch.setattr(selection, "svm_train", fit)
    return fits


def _logged_failures(caplog):
    return [r.getMessage() for r in caplog.records if CELL_FAILED.search(r.getMessage())]


def test_cell_failing_on_a_fold_skips_its_later_folds(monkeypatch, caplog):
    X, y = two_blobs(30, seed=15, separation=4.0)
    grid = GridSpec((0.5, 2.0, 8.0), (0.1,))
    table = _fold_table(y, 3, 0, X)
    fits = _failing_svm(monkeypatch, {2.0: 1})
    with caplog.at_level(logging.WARNING, logger="lupicp.selection"):
        result = grid_search_svm(X, y, grid, *table)
    assert result["C"] in (0.5, 8.0)
    assert fits == Counter({0.5: 3, 2.0: 2, 8.0: 3})
    assert _logged_failures(caplog) == [
        "grid cell C=2 gamma=0.1 failed: injected failure on fold 1"]


def test_failed_cells_are_logged_in_cell_order(monkeypatch, caplog):
    X, y = two_blobs(30, seed=15, separation=4.0)
    grid = GridSpec((0.5, 2.0, 8.0), (0.1,))
    table = _fold_table(y, 3, 0, X)
    # the later cell fails first: on fold 0, before the earlier cell's fold 1
    _failing_svm(monkeypatch, {0.5: 1, 8.0: 0})
    with caplog.at_level(logging.WARNING, logger="lupicp.selection"):
        result = grid_search_svm(X, y, grid, *table)
    assert result["C"] == 2.0
    assert _logged_failures(caplog) == [
        "grid cell C=0.5 gamma=0.1 failed: injected failure on fold 1",
        "grid cell C=8 gamma=0.1 failed: injected failure on fold 0",
    ]


def _available_cpus(monkeypatch, n):
    """Let the grid searches see ``n`` available CPUs: one runs a search in
    this process, more fork that many workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _patch_solver(monkeypatch, hook):
    """Call ``hook(C, n)`` before each dual solve of cost C on n training
    rows.  ``lupicp.svm.solve_qp`` is not a lookup of ``lupicp.selection``,
    so the searches still fork, and the workers inherit the replacement."""
    import lupicp.svm as svm

    real = svm.solve_qp

    def solve(problem):
        if np.isfinite(problem.upper[0]):  # SVM: 0 <= alpha <= C
            hook(problem.upper[0], problem.n)
        else:  # SVM+: sum(alpha + beta) = nC over 2n variables
            n = problem.n // 2
            hook(problem.b[1] / n, n)
        return real(problem)

    monkeypatch.setattr(svm, "solve_qp", solve)


def _search_svm_k4(X, Xstar, y, grid):
    return grid_search_svm(X, y, grid, *_fold_table(y, 4, 0, X))


def _search_svmplus_k4(X, Xstar, y, grid):
    return grid_search_svmplus(X, Xstar, y, grid, 0.5, 0.3,
                               *_fold_table(y, 4, 0, X, Xstar))


@pytest.mark.parametrize("search, failures", [
    (_search_svm_k4, ["C=2 gamma=0.1 failed: injected on 23 rows",
                      "C=8 gamma=0.1 failed: injected on 22 rows",
                      "C=2 gamma=0.3 failed: injected on 23 rows",
                      "C=8 gamma=0.3 failed: injected on 22 rows"]),
    (_search_svmplus_k4, ["C=2 gamma_plus=0.1 failed: injected on 23 rows",
                          "C=2 gamma_plus=0.3 failed: injected on 23 rows",
                          "C=8 gamma_plus=0.1 failed: injected on 22 rows",
                          "C=8 gamma_plus=0.3 failed: injected on 22 rows"]),
], ids=["svm", "svmplus"])
def test_pooled_search_matches_in_process_search(monkeypatch, caplog, search, failures):
    import lupicp.selection as selection

    X, Xstar, y = triplet_blobs(30, seed=12)
    grid = GridSpec((0.5, 2.0, 8.0, 1.0), (0.1, 0.3))

    # the folds train on 22, 22, 23 and 23 rows: C=8 fails on fold 0 and
    # C=2 on fold 2, so both are skipped on their later folds
    def fail(C, n):
        if C == 8.0 or (C == 2.0 and n == 23):
            raise TrainingError(f"injected on {n} rows")

    _patch_solver(monkeypatch, fail)
    tables = []
    real_pick = selection._pick_best

    def pick(scores, gamma_name):
        tables.append(list(scores.items()))
        return real_pick(scores, gamma_name)

    monkeypatch.setattr(selection, "_pick_best", pick)
    runs = []
    for cpus in (3, 1):
        _available_cpus(monkeypatch, cpus)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="lupicp.selection"):
            runs.append((search(X, Xstar, y, grid), _logged_failures(caplog)))
    pooled, in_process = runs
    assert pooled == in_process
    assert tables[0] == tables[1] and len(tables[0]) == 4
    assert pooled[1] == [f"grid cell {line}" for line in failures]


def test_search_leaves_no_worker_running(monkeypatch):
    X, y = two_blobs(30, seed=15, separation=4.0)
    grid = GridSpec((0.5, 2.0, 8.0), (0.1, 0.3))
    table = _fold_table(y, 3, 0, X)
    _available_cpus(monkeypatch, 2)
    grid_search_svm(X, y, grid, *table)
    assert multiprocessing.active_children() == []

    def defect(C, n):
        if C == 8.0:
            raise RuntimeError("injected defect")

    _patch_solver(monkeypatch, defect)
    # not a TrainingError: it is no failed cell, it stops the search
    with pytest.raises(RuntimeError, match="injected defect"):
        grid_search_svm(X, y, grid, *table)
    assert multiprocessing.active_children() == []


def test_one_cpu_search_solves_in_process(monkeypatch):
    X, y = two_blobs(30, seed=15, separation=4.0)
    grid = GridSpec((0.5, 2.0), (0.1, 0.3))
    table = _fold_table(y, 3, 0, X)
    solves = []
    _patch_solver(monkeypatch, lambda C, n: solves.append(C))
    _available_cpus(monkeypatch, 1)
    grid_search_svm(X, y, grid, *table)
    assert Counter(solves) == Counter({0.5: 2 * 3, 2.0: 2 * 3})
    solves.clear()
    _available_cpus(monkeypatch, 2)
    grid_search_svm(X, y, grid, *table)
    assert solves == []  # each worker counted into its own copy


@pytest.mark.parametrize("name", ["svm_train", "svmplus_train",
                                  "rbf_from_squared_distances"])
def test_replaced_fit_lookup_keeps_the_search_in_process(monkeypatch, name):
    import lupicp.selection as selection

    X, Xstar, y = triplet_blobs(30, seed=14)
    grid = GridSpec((0.5, 2.0), (0.01, 0.1))
    real = getattr(selection, name)
    monkeypatch.setattr(selection, name, lambda *args, **kwargs: real(*args, **kwargs))
    solves = []
    _patch_solver(monkeypatch, lambda C, n: solves.append(C))
    _available_cpus(monkeypatch, 2)
    _search_svmplus(X, Xstar, y, grid)
    assert Counter(solves) == Counter({0.5: 2 * 3, 2.0: 2 * 3})
