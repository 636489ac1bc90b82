import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lupicp.qp import (
    QpInfeasibleError,
    QpNonConvergenceError,
    QpProblem,
    kkt_residual,
    solve_qp,
)
from oracles import qp_reference_solution


def box_problem(Q, c, equalities, lower, upper):
    return QpProblem.with_equalities(np.asarray(Q, float), c, equalities, lower, upper)


def random_instance(rng, n, n_eq, spread=2.0):
    B = rng.standard_normal((n, n))
    Q = B @ B.T + 0.1 * np.eye(n)
    c = rng.standard_normal(n)
    lower = -rng.uniform(0.5, spread, n)
    upper = rng.uniform(0.5, spread, n)
    x_inside = rng.uniform(lower, upper)
    equalities = []
    A = rng.standard_normal((n_eq, n))
    for i in range(n_eq):
        equalities.append((A[i], float(A[i] @ x_inside)))
    return box_problem(Q, c, equalities, lower, upper)


def test_symmetric_split():
    p = box_problem(np.eye(2), np.zeros(2), [([1.0, 1.0], 1.0)], 0.0, np.inf)
    s = solve_qp(p)
    assert np.allclose(s.x, [0.5, 0.5], atol=1e-7)
    assert s.objective == pytest.approx(0.25, abs=1e-8)


def test_separable_coordinatewise():
    p = box_problem(np.eye(2), [-1.0, -2.0], [], 0.0, np.inf)
    s = solve_qp(p)
    assert np.allclose(s.x, [1.0, 2.0], atol=1e-7)
    assert s.objective == pytest.approx(-2.5, abs=1e-8)


def test_active_bounds_hold_exactly():
    # the optimum (1, 0.3) has the first upper bound active; the free
    # coordinate is off only by the 1e-10 ridge
    p = box_problem(np.eye(2), [-2.0, -0.3], [], 0.0, 1.0)
    s = solve_qp(p)
    assert s.x[0] == 1.0
    assert s.x[1] == pytest.approx(0.3, abs=1e-9)
    assert s.kkt_residual <= 1e-9


def test_matches_reference_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(8):
        p = random_instance(rng, n=4, n_eq=1)
        s = solve_qp(p)
        x_oracle, f_oracle = qp_reference_solution(
            p.Q, p.c, p.A, p.b, p.lower, p.upper
        )
        assert abs(s.objective - f_oracle) <= 1e-6
        assert np.max(np.abs(s.x - x_oracle)) < 1e-3


def test_solution_respects_constraints():
    rng = np.random.default_rng(8)
    for n_eq in (0, 1, 2):
        p = random_instance(rng, n=6, n_eq=n_eq)
        s = solve_qp(p, tol=1e-8)
        assert np.all(s.x >= p.lower - 1e-8)
        assert np.all(s.x <= p.upper + 1e-8)
        if n_eq:
            assert np.max(np.abs(p.A @ s.x - p.b)) <= 1e-8
        assert s.kkt_residual <= 1e-8
        # the reported residual is exactly what the public function computes
        assert s.kkt_residual == pytest.approx(
            kkt_residual(p, s.x, s.eq_multipliers), abs=1e-15
        )


def test_kkt_residual_zero_at_unconstrained_minimum():
    p = box_problem(np.eye(2), [-1.0, 0.0], [], -np.inf, np.inf)
    assert kkt_residual(p, np.array([1.0, 0.0])) == 0.0


def test_kkt_residual_sees_equality_violation():
    p = box_problem(np.eye(2), np.zeros(2), [([1.0, 1.0], 1.0)], 0.0, np.inf)
    assert kkt_residual(p, np.array([0.5, 0.6]), [0.0]) >= 0.1


def test_kkt_residual_dimension_checks():
    p = box_problem(np.eye(2), np.zeros(2), [([1.0, 1.0], 1.0)], 0.0, np.inf)
    with pytest.raises(ValueError):
        kkt_residual(p, np.zeros(3), [0.0])
    with pytest.raises(ValueError):
        kkt_residual(p, np.zeros(2), [])


def test_infeasible_constraints_detected():
    p = box_problem(np.eye(2), np.zeros(2), [([1.0, 1.0], 5.0)], 0.0, 1.0)
    with pytest.raises(QpInfeasibleError):
        solve_qp(p)
    contradictory = box_problem(
        np.eye(2), np.zeros(2),
        [([1.0, 1.0], 1.0), ([1.0, 1.0], 2.0)],
        -10.0, 10.0,
    )
    with pytest.raises(QpInfeasibleError):
        solve_qp(contradictory)


def test_nonconvergence_carries_best_iterate():
    rng = np.random.default_rng(9)
    p = random_instance(rng, n=6, n_eq=1)
    with pytest.raises(QpNonConvergenceError) as info:
        solve_qp(p, tol=1e-14, max_iter=2)
    best = info.value.best
    assert best.x.shape == (6,)
    assert best.kkt_residual > 1e-14


def test_validation_rejects_bad_problems():
    with pytest.raises(ValueError):
        solve_qp(box_problem([[1.0, 0.5], [0.0, 1.0]], np.zeros(2), [], 0.0, 1.0))
    with pytest.raises(ValueError):
        solve_qp(box_problem(np.eye(2), np.zeros(2), [], 1.0, 0.0))
    three = [([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0), ([1.0, 1.0], 0.0)]
    with pytest.raises(ValueError):
        solve_qp(box_problem(np.eye(2), np.zeros(2), three, 0.0, 1.0))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_monotone_objective_on_feasible_iterates(seed):
    rng = np.random.default_rng(seed)
    p = random_instance(rng, n=int(rng.integers(2, 11)), n_eq=int(rng.integers(0, 3)))
    s = solve_qp(p)
    feasible = [
        t["objective"] for t in s.trace if t["primal_infeasibility"] <= 1e-8
    ]
    scale = 1.0 + max(abs(v) for v in feasible) if feasible else 1.0
    for earlier, later in zip(feasible, feasible[1:]):
        assert later <= earlier + 1e-7 * scale


@given(seed=st.integers(0, 10_000), scale=st.sampled_from([0.1, 10.0, 137.0]))
@settings(max_examples=20, deadline=None)
# a bound active at the optimum, loosely located by the interior point
@example(seed=141, scale=0.1)
@example(seed=440, scale=10.0)
# a variable 1.6e-5 inside its bound with a zero multiplier
@example(seed=402, scale=0.1)
# separate primal and dual step lengths cycled here without converging
@example(seed=954, scale=10.0)
@example(seed=2449, scale=137.0)
def test_scaling_invariance(seed, scale):
    rng = np.random.default_rng(seed)
    p = random_instance(rng, n=4, n_eq=1)
    s1 = solve_qp(p)
    scaled = QpProblem(
        Q=p.Q * scale, c=p.c * scale, A=p.A, b=p.b, lower=p.lower, upper=p.upper
    )
    s2 = solve_qp(scaled, tol=1e-8 * max(1.0, scale))
    assert np.max(np.abs(s1.x - s2.x)) < 1e-6
    assert s2.objective == pytest.approx(scale * s1.objective, rel=1e-6, abs=1e-9)


def test_solver_reaches_tolerance_on_svm_shaped_duals():
    rng = np.random.default_rng(10)
    n = 40
    X = rng.standard_normal((n, 2))
    y = rng.choice([-1.0, 1.0], size=n)
    d = ((X[:, None, :] - X[None, :, :]) ** 2).sum(-1)
    Q = np.exp(-0.5 * d) * np.outer(y, y)
    p = box_problem(Q, -np.ones(n), [(y, 0.0)], 0.0, 10.0)
    s = solve_qp(p, tol=1e-8)
    assert s.kkt_residual <= 1e-8
    assert abs(y @ s.x) <= 1e-8
