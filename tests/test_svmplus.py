import warnings

import numpy as np
import pytest

from lupicp.kernels import KernelSpec, gram_matrix
from lupicp.svmplus import (
    SvmPlusConfig,
    assemble_dual,
    dual_objective_direct,
    svmplus_train,
)
from conftest import triplet_blobs
from oracles import rbf_gram_loops, svmplus_dual_oracle


def unit_config(C=1.0, gamma_plus=1.0):
    return SvmPlusConfig(
        C=C,
        gamma_plus=gamma_plus,
        decision_kernel=KernelSpec(1.0),
        correcting_kernel=KernelSpec(1.0),
    )


def random_instance(seed, n=4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    Xstar = rng.standard_normal((n, 2))
    y = np.array([1, -1] * (n // 2) + [1] * (n % 2))
    return X, Xstar, y


def test_expanded_dual_matches_unexpanded_objective():
    # the linear-term expansion is where sign errors hide; pin it by
    # evaluating both forms at random feasible and infeasible points
    rng = np.random.default_rng(1)
    X, Xstar, y = random_instance(1)
    K = gram_matrix(X, X, KernelSpec(1.0))
    Kstar = gram_matrix(Xstar, Xstar, KernelSpec(1.0))
    C, gamma_plus = 2.5, 0.7
    Q, c, constant = assemble_dual(K, Kstar, y.astype(float), C, gamma_plus)
    assert np.max(np.abs(Q - Q.T)) < 1e-12
    for _ in range(20):
        v = rng.uniform(0, 3, size=8)
        direct = dual_objective_direct(K, Kstar, y, C, gamma_plus, v[:4], v[4:])
        expanded = -(0.5 * v @ Q @ v + c @ v + constant)
        assert direct == pytest.approx(expanded, rel=1e-12, abs=1e-12)


def test_canonical_feasible_point_gives_nonnegative_objective():
    # alpha = 0, beta = C*1 is always dual feasible with objective 0,
    # so the trained objective can never be negative
    X, Xstar, y = random_instance(2)
    m = svmplus_train(X, Xstar, y, unit_config())
    assert np.sum(m.alpha * y) == pytest.approx(0.0, abs=1e-6)
    assert np.sum(m.deltas) == pytest.approx(0.0, abs=1e-6)
    assert m.dual_objective >= -1e-8


def test_dual_matches_projected_gradient_oracle():
    for seed in range(6):
        X, Xstar, y = random_instance(seed)
        m = svmplus_train(X, Xstar, y, unit_config())
        K = rbf_gram_loops(X, 1.0)
        Kstar = rbf_gram_loops(Xstar, 1.0)
        _, _, w_oracle = svmplus_dual_oracle(K, Kstar, y, 1.0, 1.0)
        assert m.dual_objective == pytest.approx(w_oracle, abs=1e-5)
        assert m.kkt_residual <= 1e-6


def test_privileged_equals_standard_still_satisfies_kkt():
    X, _, y = random_instance(3)
    m = svmplus_train(X, X, y, unit_config())
    assert m.kkt_residual <= 1e-6
    assert np.sum(m.alpha * y) == pytest.approx(0.0, abs=1e-6)
    assert np.sum(m.deltas) == pytest.approx(0.0, abs=1e-6)


def test_decision_matches_dense_loop():
    X, Xstar, y = random_instance(4, n=6)
    cfg = unit_config(C=1.5, gamma_plus=0.5)
    m = svmplus_train(X, Xstar, y, cfg)
    for i in range(6):
        expected = sum(
            m.alpha[j] * y[j] * np.exp(-np.sum((X[j] - X[i]) ** 2))
            for j in range(6)
        ) + m.decision.bias
        assert m.decision_value(X[i]) == pytest.approx(expected, abs=1e-10)


def test_label_flip_negates_decision():
    X, Xstar, y = random_instance(5, n=6)
    cfg = unit_config()
    m_plus = svmplus_train(X, Xstar, y, cfg)
    m_minus = svmplus_train(X, Xstar, -y, cfg)
    probe = np.random.default_rng(0).standard_normal((8, 3))
    assert np.max(
        np.abs(m_plus.decision_values(probe) + m_minus.decision_values(probe))
    ) < 1e-6


def test_permutation_invariance():
    X, Xstar, y = triplet_blobs(12, seed=9, dim=3, star_dim=2)
    cfg = unit_config(C=2.0)
    m1 = svmplus_train(X, Xstar, y, cfg)
    perm = np.random.default_rng(1).permutation(12)
    m2 = svmplus_train(X[perm], Xstar[perm], y[perm], cfg)
    probe = np.random.default_rng(2).standard_normal((8, 3))
    assert np.max(np.abs(m1.decision_values(probe) - m2.decision_values(probe))) < 1e-6


def test_margin_kkt_links_decision_and_correcting_function():
    # for supporting alpha_i > 0:  y_i f(x_i) = 1 - correcting(xstar_i)
    X, Xstar, y = random_instance(6)
    m = svmplus_train(X, Xstar, y, unit_config())
    support = m.alpha > 1e-6
    assert np.any(support)
    for i in np.flatnonzero(support):
        lhs = y[i] * m.decision_value(X[i])
        rhs = 1.0 - m.correcting_value(Xstar[i])
        assert lhs == pytest.approx(rhs, abs=1e-4)


def test_correcting_values_nonnegative_at_active_beta():
    # beta_i > 0 forces the modeled slack to zero from below (KKT
    # complementarity), so correcting values there cannot go negative
    for seed in range(4):
        X, Xstar, y = random_instance(seed, n=6)
        m = svmplus_train(X, Xstar, y, unit_config(C=0.5))
        active = m.beta > 1e-6
        if np.any(active):
            values = m.correcting_values(Xstar[active])
            assert np.min(values) >= -1e-6


def test_zero_delta_model_returns_bias_star():
    X, Xstar, y = random_instance(7)
    m = svmplus_train(X, Xstar, y, unit_config())
    m.deltas = np.zeros_like(m.deltas)
    assert m.correcting_value(Xstar[0]) == pytest.approx(m.bias_star, abs=1e-12)


def test_prediction_needs_no_privileged_features():
    X, Xstar, y = triplet_blobs(10, seed=10, dim=3, star_dim=7)
    m = svmplus_train(X, Xstar, y, unit_config())
    probe = np.zeros(3)  # X-dimensional, not X*-dimensional
    assert isinstance(m.decision_value(probe), float)
    with pytest.raises(ValueError):
        m.decision_value(np.zeros(7))


def test_row_count_mismatch_rejected():
    X, Xstar, y = random_instance(8)
    with pytest.raises(ValueError):
        svmplus_train(X, Xstar[:3], y, unit_config())


def test_degenerate_privileged_space():
    # all privileged rows identical: the correcting block is rank one and
    # only the factorization ridge keeps it solvable
    X, _, y = random_instance(9, n=6)
    Xstar = np.tile([[1.0, 2.0]], (6, 1))
    m = svmplus_train(X, Xstar, y, unit_config())
    assert m.kkt_residual <= 1e-6
    assert np.sum(m.deltas) == pytest.approx(0.0, abs=1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        unit_config(C=0.0)
    with pytest.raises(ValueError):
        unit_config(gamma_plus=-1.0)


def test_bias_routes_agree_on_clean_instances():
    for seed in range(4):
        X, Xstar, y = random_instance(seed, n=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svmplus_train(X, Xstar, y, unit_config())
