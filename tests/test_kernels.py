import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lupicp.kernels import (
    KernelSpec,
    gram_matrix,
    squared_distances,
)
from oracles import rbf_gram_loops


def rbf(a, b, spec):
    """k(a, b) of two vectors, scored as one-row arrays."""
    return gram_matrix(np.atleast_2d(np.asarray(a, float)),
                       np.atleast_2d(np.asarray(b, float)), spec)[0, 0]


def test_spec_requires_positive_gamma():
    with pytest.raises(ValueError):
        KernelSpec(gamma=0.0)
    with pytest.raises(ValueError):
        KernelSpec(gamma=-1.0)


def test_rbf_identity_is_one():
    spec = KernelSpec(gamma=3.7)
    v = np.array([0.3, -1.2, 5.0])
    assert rbf(v, v, spec) == 1.0


def test_rbf_direct_substitution():
    assert rbf([0.0, 0.0], [1.0, 0.0], KernelSpec(1.0)) == pytest.approx(
        np.exp(-1.0), abs=1e-12
    )
    assert rbf([1.0, 2.0], [3.0, 4.0], KernelSpec(0.5)) == pytest.approx(
        np.exp(-4.0), abs=1e-12
    )


def test_rbf_dimension_mismatch():
    with pytest.raises(ValueError, match="feature dimension mismatch: 2 vs 1"):
        rbf([1.0, 2.0], [1.0], KernelSpec(1.0))


@given(
    a=st.lists(st.floats(-5, 5), min_size=1, max_size=6),
    b=st.lists(st.floats(-5, 5), min_size=1, max_size=6),
    gamma=st.floats(0.01, 5.0),
)
@settings(max_examples=50, deadline=None)
def test_rbf_symmetry_and_range(a, b, gamma):
    if len(a) != len(b):
        b = (b * len(a))[: len(a)]
    spec = KernelSpec(gamma=gamma)
    k_ab = rbf(a, b, spec)
    assert k_ab == pytest.approx(rbf(b, a, spec), abs=1e-14)
    assert 0.0 <= k_ab <= 1.0
    # strict positivity holds wherever exp() does not underflow float64
    if gamma * sum((x - z) ** 2 for x, z in zip(a, b)) < 700:
        assert k_ab > 0.0


def test_gram_single_vector():
    X = np.array([[1.0, 2.0]])
    values = gram_matrix(X, X, KernelSpec(0.7))
    assert values.shape == (1, 1)
    assert values[0, 0] == 1.0


def test_gram_identical_rows():
    X = np.array([[1.0, 2.0], [1.0, 2.0]])
    values = gram_matrix(X, X, KernelSpec(2.0))
    assert np.allclose(values, 1.0, atol=1e-12)


def test_gram_matches_scalar_loop():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 5))
    spec = KernelSpec(0.8)
    values = gram_matrix(X, X, spec)
    expected = np.array([[rbf(a, b, spec) for b in X] for a in X])
    assert np.max(np.abs(values - expected)) < 1e-12
    assert np.max(np.abs(values - rbf_gram_loops(X, 0.8))) < 1e-12


def test_self_gram_symmetric_unit_diagonal():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((7, 4)) * 3
    values = gram_matrix(X, X, KernelSpec(0.3))
    assert np.max(np.abs(values - values.T)) <= 1e-12
    assert np.max(np.abs(np.diag(values) - 1.0)) <= 1e-12
    assert np.all(values > 0) and np.all(values <= 1.0)


def test_self_gram_positive_semidefinite():
    rng = np.random.default_rng(2)
    for n in (2, 5, 8):
        X = rng.standard_normal((n, 3))
        values = gram_matrix(X, X, KernelSpec(0.5))
        assert np.min(np.linalg.eigvalsh(values)) >= -1e-8


def test_sparse_dense_agreement():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((6, 40))
    X[X < 0.5] = 0.0  # mostly zeros
    spec = KernelSpec(0.05)
    dense = gram_matrix(X, X, spec)
    sparse = gram_matrix(sp.csr_matrix(X), sp.csr_matrix(X), spec)
    assert np.max(np.abs(dense - sparse)) <= 1e-12
    cross = gram_matrix(sp.csr_matrix(X[:2]), sp.csr_matrix(X[2:]), spec)
    assert np.max(np.abs(cross - dense[:2, 2:])) <= 1e-12


def test_gram_dimension_mismatch():
    with pytest.raises(ValueError):
        gram_matrix(np.ones((2, 3)), np.ones((2, 4)), KernelSpec(1.0))


def test_squared_distance_clamped_nonnegative():
    # nearly identical rows can produce tiny negative residue pre-clamp
    X = np.array([[1e8, 1e8], [1e8, 1e8 + 1e-4]])
    d = squared_distances(X, X)
    assert np.all(d >= 0.0)
