import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from lupicp.kernels import KernelSpec, gram_matrix
from lupicp.decision import BLOCK_ENTRIES, DecisionModel
from lupicp.svm import SvmConfig, sign_labels, svm_train
from conftest import two_blobs
from oracles import qp_reference_solution

TWO_POINT_ALPHA = 1.0 / (1.0 - np.exp(-1.0))  # closed-form dual of the pair below


@pytest.fixture(scope="module")
def two_point_model():
    X = np.array([[0.0], [2.0]])
    y = np.array([-1, 1])
    return svm_train(X, y, SvmConfig(C=10.0, kernel=KernelSpec(gamma=0.25)))


def test_two_point_closed_form(two_point_model):
    m = two_point_model
    assert np.max(np.abs(np.abs(m.weights) - TWO_POINT_ALPHA)) < 1e-6
    assert m.bias == pytest.approx(0.0, abs=1e-6)
    assert m.decision_values(np.array([[1.0]]))[0] == pytest.approx(0.0, abs=1e-6)


def test_margin_equality_at_free_support_vector(two_point_model):
    values = two_point_model.decision_values(np.array([[2.0], [0.0]]))
    assert values == pytest.approx([1.0, -1.0], abs=1e-6)


def test_duplicated_points_leave_decision_unchanged(two_point_model):
    X = np.array([[0.0], [2.0], [0.0], [2.0]])
    y = np.array([-1, 1, -1, 1])
    m = svm_train(X, y, SvmConfig(C=10.0, kernel=KernelSpec(gamma=0.25)))
    probe = np.array([[0.0], [0.7], [1.0], [2.0], [3.5]])
    assert m.decision_values(probe) == pytest.approx(
        two_point_model.decision_values(probe), abs=1e-6
    )


def test_dual_matches_reference_oracle_on_six_points():
    rng = np.random.default_rng(21)
    X, y = two_blobs(6, seed=21, separation=3.0)
    cfg = SvmConfig(C=5.0, kernel=KernelSpec(gamma=0.5))
    m = svm_train(X, y, cfg)
    K = gram_matrix(X, X, cfg.kernel)
    Q = K * np.outer(y, y)
    _, f_oracle = qp_reference_solution(
        Q, -np.ones(6), np.asarray(y, float).reshape(1, -1), [0.0],
        np.zeros(6), np.full(6, cfg.C),
    )
    assert -m.dual_objective == pytest.approx(f_oracle, abs=1e-5)


def test_model_invariants_and_feasibility():
    X, y = two_blobs(30, seed=3)
    cfg = SvmConfig(C=2.0, kernel=KernelSpec(gamma=0.7))
    m = svm_train(X, y, cfg)
    assert np.all(np.abs(m.weights) <= cfg.C + 1e-8)
    assert abs(np.sum(m.weights)) <= 1e-6
    assert m.kkt_residual <= 1e-6


def test_free_support_vector_margins():
    for seed in range(5):
        X, y = two_blobs(20, seed=seed)
        cfg = SvmConfig(C=1.0, kernel=KernelSpec(gamma=0.5))
        m = svm_train(X, y, cfg)
        alpha = np.abs(m.weights)
        free = (alpha > 1e-5 * cfg.C) & (alpha < (1 - 1e-5) * cfg.C)
        if not np.any(free):
            continue
        margins = y[m.support_indices][free] * m.decision_values(
            m.support_vectors[free]
        )
        assert np.max(np.abs(margins - 1.0)) < 1e-4


def test_label_flip_antisymmetry():
    X, y = two_blobs(16, seed=5)
    cfg = SvmConfig(C=3.0, kernel=KernelSpec(gamma=0.4))
    m_plus = svm_train(X, y, cfg)
    m_minus = svm_train(X, -y, cfg)
    probe = np.random.default_rng(0).standard_normal((10, 2))
    assert np.max(
        np.abs(m_plus.decision_values(probe) + m_minus.decision_values(probe))
    ) < 1e-6


def test_permutation_invariance():
    X, y = two_blobs(18, seed=6)
    cfg = SvmConfig(C=1.5, kernel=KernelSpec(gamma=0.6))
    m1 = svm_train(X, y, cfg)
    perm = np.random.default_rng(1).permutation(18)
    m2 = svm_train(X[perm], y[perm], cfg)
    probe = np.random.default_rng(2).standard_normal((10, 2))
    assert np.max(np.abs(m1.decision_values(probe) - m2.decision_values(probe))) < 1e-6


def test_single_class_rejected():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        svm_train(X, np.ones(4), SvmConfig(C=1.0, kernel=KernelSpec(1.0)))


def test_unconverged_dual_raises_training_error(monkeypatch):
    import lupicp.svm
    from lupicp.qp import solve_qp
    from lupicp.svm import TrainingError

    monkeypatch.setattr(lupicp.svm, "solve_qp", functools.partial(solve_qp, max_iter=1))
    X, y = two_blobs(30, seed=8)
    with pytest.raises(TrainingError):
        svm_train(X, y, SvmConfig(C=1.0, kernel=KernelSpec(0.5)))


def test_row_mismatch_rejected():
    with pytest.raises(ValueError):
        svm_train(
            np.zeros((4, 2)), np.array([-1, 1, 1]),
            SvmConfig(C=1.0, kernel=KernelSpec(1.0)),
        )


def test_tie_rule_and_sign_mapping():
    model = DecisionModel(
        support_vectors=np.zeros((0, 2)),
        weights=np.zeros(0),
        bias=0.0,
        kernel=KernelSpec(1.0),
    )
    row = np.array([[1.0, 1.0]])
    assert sign_labels(model.decision_values(row)).tolist() == [1]  # exact zero -> +1
    model.bias = 0.7
    assert sign_labels(model.decision_values(row)).tolist() == [1]
    model.bias = -0.7
    assert sign_labels(model.decision_values(row)).tolist() == [-1]
    assert sign_labels([-0.0, 0.0, -1e-300, 2.5]).tolist() == [1, 1, -1, 1]


def test_zero_weight_model_returns_bias():
    model = DecisionModel(
        support_vectors=np.zeros((0, 3)),
        weights=np.zeros(0),
        bias=0.25,
        kernel=KernelSpec(1.0),
    )
    assert model.decision_values(np.array([[1.0, 2.0, 3.0]])).tolist() == [0.25]


def test_decision_dimension_mismatch():
    X, y = two_blobs(10, seed=7)
    m = svm_train(X, y, SvmConfig(C=1.0, kernel=KernelSpec(0.5)))
    with pytest.raises(ValueError, match="feature dimension mismatch: 3 vs 2"):
        m.decision_values(np.array([[1.0, 2.0, 3.0]]))


def test_config_validation():
    with pytest.raises(ValueError):
        SvmConfig(C=0.0, kernel=KernelSpec(1.0))
    with pytest.raises(ValueError):
        SvmConfig(C=-2.0, kernel=KernelSpec(1.0))


def _random_model(n_support, dim, seed, sparse=False):
    rng = np.random.default_rng(seed)
    if sparse:
        vectors = sp.random(n_support, dim, density=0.3, random_state=seed, format="csr")
    else:
        vectors = rng.standard_normal((n_support, dim))
    return DecisionModel(
        support_vectors=vectors,
        weights=rng.standard_normal(n_support),
        bias=0.375,
        kernel=KernelSpec(0.2),
    )


@pytest.mark.parametrize("sparse", [False, True])
def test_decision_values_across_block_boundaries(sparse):
    model = _random_model(700, 6, seed=8, sparse=sparse)
    step = BLOCK_ENTRIES // model.n_support
    rng = np.random.default_rng(9)
    if sparse:
        X_all = sp.random(step + 1, 6, density=0.3, random_state=10, format="csr")
    else:
        X_all = rng.standard_normal((step + 1, 6))
    for n in (0, 1, step - 1, step, step + 1):
        X = X_all[:n]
        got = model.decision_values(X)
        assert got.shape == (n,)
        # unblocked reference; BLAS may sum a row's terms in another order
        # depending on where the row falls in its block
        expected = gram_matrix(X, model.support_vectors, model.kernel) @ model.weights
        np.testing.assert_allclose(got, expected + model.bias, rtol=1e-13, atol=1e-13)


def test_decision_values_memory_does_not_grow_with_rows():
    model = _random_model(200, 8, seed=12)
    X = np.random.default_rng(13).standard_normal((60_000, 8))
    full_block = X.shape[0] * model.n_support * 8  # bytes of one unblocked kernel
    tracemalloc.start()
    try:
        model.decision_values(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_block / 2
