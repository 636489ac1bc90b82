import numpy as np
import pytest

from lupicp.selection import (
    GridSpec,
    default_svm_grid,
    default_svmplus_grid,
    grid_search_svm,
    grid_search_svmplus,
    kfold_indices,
    stratified_split,
    tune_three_step,
)
from lupicp.kernels import squared_distances
from conftest import triplet_blobs, two_blobs


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
    result = grid_search_svm(X, y, grid, k=2, seed=0)
    assert result.C == 2.0 and result.gamma == 0.5


def test_duplicate_cells_equal_deduplicated():
    X, y = two_blobs(20, seed=1)
    grid_a = GridSpec(C_values=(1.0, 1.0, 10.0), gamma_values=(0.5, 0.5))
    grid_b = GridSpec(C_values=(1.0, 10.0), gamma_values=(0.5,))
    r_a = grid_search_svm(X, y, grid_a, k=2, seed=3)
    r_b = grid_search_svm(X, y, grid_b, k=2, seed=3)
    assert (r_a.C, r_a.gamma, r_a.mean_accuracy) == (r_b.C, r_b.gamma, r_b.mean_accuracy)


def test_separable_blobs_reach_full_cv_accuracy():
    X, y = two_blobs(40, seed=2, separation=8.0)
    grid = GridSpec(C_values=(1.0, 10.0), gamma_values=(0.1, 0.5))
    result = grid_search_svm(X, y, grid, k=5, seed=0)
    assert result.mean_accuracy == 1.0


def test_tie_break_prefers_smaller_c_then_gamma():
    # hugely separated blobs: every cell classifies perfectly
    X, y = two_blobs(24, seed=3, separation=12.0)
    grid = GridSpec(C_values=(10.0, 0.5), gamma_values=(0.9, 0.2))
    result = grid_search_svm(X, y, grid, k=3, seed=0)
    assert result.mean_accuracy == 1.0
    assert result.C == 0.5
    assert result.gamma == 0.2


def test_three_step_singleton_grids_pass_through():
    X, Xstar, y = triplet_blobs(24, seed=4)
    result = tune_three_step(
        X, Xstar, y,
        GridSpec((2.0,), (0.5,)),
        GridSpec((3.0,), (0.25,)),
        GridSpec((1.0,), (0.05,)),
        k=2, seed=0,
    )
    assert (result.svm_x.C, result.svm_x.gamma) == (2.0, 0.5)
    assert (result.svm_xstar.C, result.svm_xstar.gamma) == (3.0, 0.25)
    assert (result.svmplus.C, result.svmplus.gamma) == (1.0, 0.05)


def test_three_step_never_alters_kernel_widths():
    X, Xstar, y = triplet_blobs(30, seed=5)
    result = tune_three_step(
        X, Xstar, y,
        GridSpec((1.0, 10.0), (0.3, 0.6)),
        GridSpec((1.0,), (0.2, 0.4)),
        GridSpec((0.5, 1.0), (0.01, 0.1)),
        k=2, seed=1,
    )
    assert result.svm_x.gamma in (0.3, 0.6)
    assert result.svm_xstar.gamma in (0.2, 0.4)
    assert result.svmplus.gamma in (0.01, 0.1)  # gamma_plus, not a kernel width


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
    step1 = grid_search_svm(X, y, grids[0], k=3, seed=9)
    step2 = grid_search_svm(Xstar, y, grids[1], k=3, seed=9)
    step3 = grid_search_svmplus(X, Xstar, y, grids[2], gamma1=step1.gamma,
                                gamma2=step2.gamma, k=3, seed=9)
    calls = []

    def counted(A, B):
        calls.append((A.shape, B.shape))
        return squared_distances(A, B)

    monkeypatch.setattr(selection, "squared_distances", counted)
    result = tune_three_step(X, Xstar, y, *grids, k=3, seed=9)
    assert (result.svm_x, result.svm_xstar, result.svmplus) == (step1, step2, step3)
    # training and validation blocks, per fold, of X and of X*
    assert len(calls) == 2 * 2 * 3


def test_grid_search_svmplus_runs_with_fixed_widths():
    X, Xstar, y = triplet_blobs(20, seed=7)
    grid = GridSpec((0.5, 2.0), (0.01, 0.1))
    result = grid_search_svmplus(X, Xstar, y, grid, gamma1=0.5, gamma2=0.3, k=2, seed=0)
    assert result.C in (0.5, 2.0)
    assert result.gamma in (0.01, 0.1)
    assert 0.0 <= result.mean_accuracy <= 1.0


def test_selected_cell_cv_accuracy_stable_across_seeds():
    X, y = two_blobs(120, seed=8, separation=2.5)
    grid = GridSpec((1.0, 10.0, 100.0), (0.1, 0.5, 1.0))
    r1 = grid_search_svm(X, y, grid, k=5, seed=1)
    r2 = grid_search_svm(X, y, grid, k=5, seed=2)
    assert abs(r1.mean_accuracy - r2.mean_accuracy) <= 0.02
