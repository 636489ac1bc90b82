import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lupicp import qp
from lupicp.kernels import KernelSpec, gram_matrix
from lupicp.qp import QpNonConvergenceError, QpProblem, kkt_residual, solve_qp
from lupicp.svmplus import assemble_dual
from conftest import triplet_blobs
from oracles import qp_reference_solution


def box_problem(Q, c, equalities, lower, upper):
    return QpProblem.with_equalities(np.asarray(Q, float), c, equalities, lower, upper)


def svm_dual(X, y, C, gamma):
    y = np.asarray(y, dtype=float)
    K = gram_matrix(X, X, KernelSpec(gamma))
    return box_problem(K * np.outer(y, y), -np.ones(len(y)), [(y, 0.0)], 0.0, C)


def svmplus_dual(X, Xstar, y, C, gamma, gamma_star, gamma_plus):
    y = np.asarray(y, dtype=float)
    n = len(y)
    Q, c, _ = assemble_dual(gram_matrix(X, X, KernelSpec(gamma)),
                            gram_matrix(Xstar, Xstar, KernelSpec(gamma_star)),
                            y, C, gamma_plus)
    equalities = [(np.concatenate([y, np.zeros(n)]), 0.0), (np.ones(2 * n), n * C)]
    return box_problem(Q, c, equalities, 0.0, np.inf)


def blob_duals():
    """An SVM and an SVM+ dual on blob triplets, by name."""
    X, Xstar, y = triplet_blobs(60, seed=4)
    return {
        "svm": svm_dual(X, y, C=10.0, gamma=0.5),
        "svm+": svmplus_dual(X, Xstar, y, C=1.0, gamma=0.5, gamma_star=0.2,
                             gamma_plus=0.1),
    }


def record_iterates(p):
    """Solve ``p``; return the solution and each iterate with its residual."""
    # the interior-point loop scores each iterate once, passing its Qx
    iterates = []
    residual_terms = qp._residual_terms

    def record(problem, x, multipliers, Qx=None):
        res = residual_terms(problem, x, multipliers, Qx=Qx)
        if Qx is not None:
            iterates.append((x.copy(), res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp, "_residual_terms", record)
        solution = solve_qp(p)
    return solution, iterates


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


def test_infeasible_constraints_end_without_convergence():
    # no phase one: the iteration stops with a named reason and a
    # residual that shows the equality cannot be met inside the box
    p = box_problem(np.eye(2), np.zeros(2), [([1.0, 1.0], 5.0)], 0.0, 1.0)
    with pytest.raises(QpNonConvergenceError) as info:
        solve_qp(p)
    assert info.value.best.kkt_residual >= 1.0
    assert info.value.best.stop_reason != "converged"
    assert str(info.value).endswith(info.value.best.stop_reason)
    contradictory = box_problem(
        np.eye(2), np.zeros(2),
        [([1.0, 1.0], 1.0), ([1.0, 1.0], 2.0)],
        -10.0, 10.0,
    )
    with pytest.raises(ValueError, match="linearly dependent"):
        solve_qp(contradictory)


def test_nonconvergence_carries_best_iterate():
    rng = np.random.default_rng(9)
    p = random_instance(rng, n=6, n_eq=1)
    with pytest.raises(QpNonConvergenceError) as info:
        solve_qp(p, tol=1e-14, max_iter=2)
    best = info.value.best
    assert best.x.shape == (6,)
    assert best.kkt_residual > 1e-14
    assert best.stop_reason == "max_iter"
    assert str(info.value).endswith(
        f"after 2 iterations (best at iteration {best.iterations}): max_iter")
    # an infeasible box: the first step is the closest the iteration gets,
    # and the message names both that iterate and the iterations run
    infeasible = box_problem(np.eye(3), np.zeros(3), [([1.0, 1.0, 1.0], 10.0)], 0.0, 1.0)
    with pytest.raises(QpNonConvergenceError) as info:
        solve_qp(infeasible, max_iter=5)
    assert info.value.best.iterations == 1
    assert str(info.value).endswith("after 5 iterations (best at iteration 1): max_iter")


def test_validation_rejects_bad_problems():
    with pytest.raises(ValueError):
        solve_qp(box_problem([[1.0, 0.5], [0.0, 1.0]], np.zeros(2), [], 0.0, 1.0))
    with pytest.raises(ValueError):
        solve_qp(box_problem(np.eye(2), np.zeros(2), [], 1.0, 0.0))
    three = [([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0), ([1.0, 1.0], 0.0)]
    with pytest.raises(ValueError):
        solve_qp(box_problem(np.eye(2), np.zeros(2), three, 0.0, 1.0))
    for duplicate in ([1.0, 1.0], [2.0, 2.0]):
        dependent = [([1.0, 1.0], 1.0), (duplicate, float(sum(duplicate) / 2))]
        with pytest.raises(ValueError, match="linearly dependent"):
            solve_qp(box_problem(np.eye(2), np.zeros(2), dependent, -10.0, 10.0))
    with pytest.raises(ValueError, match="finite"):
        solve_qp(box_problem(np.eye(2), np.zeros(2), [], -np.inf, 1.0))


@pytest.mark.parametrize("gap, ok", [(0.0, True), (5e-11, True), (2e-10, False)])
def test_symmetry_check_allows_rounding_only(gap, ok):
    Q = np.array([[2.0, 0.5], [0.5 + gap, 2.0]])
    p = box_problem(Q, -np.ones(2), [], 0.0, 1.0)
    if ok:
        assert solve_qp(p).kkt_residual <= 1e-8
    else:
        with pytest.raises(ValueError, match=r"not symmetric: max \|Q - Q'\| = 2\.000e-10"):
            solve_qp(p)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
# the first step from the equality-set start raised the objective
@example(seed=597)
# later steps raised it three times
@example(seed=5725)
def test_monotone_objective_on_feasible_iterates(seed):
    rng = np.random.default_rng(seed)
    p = random_instance(rng, n=int(rng.integers(2, 11)), n_eq=int(rng.integers(0, 3)))
    _, iterates = record_iterates(p)
    assert iterates
    feasible = [
        p.objective(x) for x, _ in iterates
        if np.max(np.abs(p.A @ x - p.b), initial=0.0) <= 1e-8
    ]
    scale = 1.0 + max(abs(v) for v in feasible) if feasible else 1.0
    for earlier, later in zip(feasible, feasible[1:]):
        assert later <= earlier + 1e-7 * scale


def test_descent_cap_keeps_steps_that_only_round_the_objective():
    # f(x) = 0.5 x'x - 2 x[0] from x = (1, 0): the line minimum along
    # the first axis is x[0] = 2
    p = box_problem(np.eye(2), [-2.0, 0.0], [], -10.0, 10.0)
    x = np.array([1.0, 0.0])
    Qx = p.Q @ x
    assert qp._descent_cap(p, Qx, x, np.array([1.0, 0.0]), 0.5) == 0.5
    assert qp._descent_cap(p, Qx, x, np.array([3.0, 0.0]), 1.0) == pytest.approx(1 / 3)
    assert qp._descent_cap(p, Qx, x, np.array([-1.0, 0.0]), 1.0) == 0.0
    # an ascent too small to tell from rounding keeps its step
    tiny = np.array([-1e-13, 0.0])
    assert qp._descent_cap(p, Qx, x, tiny, 1.0) == 1.0


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


@pytest.mark.parametrize("m", [0, 1, 2])
def test_kkt_solver_matches_dense_solve(m):
    rng = np.random.default_rng(11 + m)
    n = 7
    B = rng.standard_normal((n, n))
    M = B @ B.T + 0.5 * np.eye(n)
    A = rng.standard_normal((m, n))
    full = np.block([[M, -A.T], [A, np.zeros((m, m))]])
    solve = qp._kkt_solver(M.copy(), A)
    for _ in range(2):  # one factorization serves every right-hand side
        f, g = rng.standard_normal(n), rng.standard_normal(m)
        expected = np.linalg.solve(full, np.concatenate([f, g]))
        dx, dy = solve(f, g)
        assert dx.shape == (n,) and dy.shape == (m,)
        assert np.max(np.abs(dx - expected[:n])) <= 1e-10
        assert np.max(np.abs(dy - expected[n:]), initial=0.0) <= 1e-10


def test_kkt_solver_rejects_an_indefinite_matrix():
    with pytest.raises(np.linalg.LinAlgError):
        qp._kkt_solver(np.diag([1.0, -1.0]), np.zeros((0, 2)))


@pytest.mark.parametrize("make", [
    lambda X, Xstar, y: svm_dual(X, y, C=1.0, gamma=0.5),
    lambda X, Xstar, y: svmplus_dual(X, Xstar, y, C=10.0, gamma=0.5, gamma_star=0.2,
                                     gamma_plus=0.1),
], ids=["svm", "svm+"])
def test_first_iterate_lies_on_the_equality_set(make):
    X, Xstar, y = triplet_blobs(60, seed=12)
    keep = np.concatenate([np.flatnonzero(y > 0), np.flatnonzero(y < 0)[:15]])
    y = y[keep]
    assert y.sum() == 15  # unbalanced: the mid-box start is off the equality set
    p = make(X[keep], Xstar[keep], y)
    s, iterates = record_iterates(p)
    x0 = iterates[0][0]
    assert np.max(np.abs(p.A @ x0 - p.b)) <= 1e-12 * max(1.0, np.max(np.abs(p.b)))
    assert np.all(x0 > p.lower) and np.all(x0 < p.upper)
    assert s.kkt_residual <= 1e-8


def test_start_keeps_the_box_centre_when_the_correction_leaves_the_box():
    # the least-norm move onto x0 + x1 = 9.8 from (0.5, 5) is (2.65, 7.15),
    # outside 0 <= x0 <= 1
    p = box_problem(np.eye(2), [1.0, -1.0], [([1.0, 1.0], 9.8)], 0.0, [1.0, 10.0])
    s, iterates = record_iterates(p)
    assert np.array_equal(iterates[0][0], [0.5, 5.0])
    assert s.stop_reason == "converged"
    assert s.kkt_residual <= 1e-8
    x_oracle, _ = qp_reference_solution(p.Q, p.c, p.A, p.b, p.lower, p.upper)
    assert np.max(np.abs(s.x - x_oracle)) < 1e-6


@pytest.mark.parametrize("name", ["svm", "svm+"])
def test_crossover_answer_certifies_with_exact_bounds(name):
    p = blob_duals()[name]
    s, iterates = record_iterates(p)
    # no iterate met the tolerance: the answer came from the polish
    assert min(res for _, res in iterates) > 1e-8
    assert s.stop_reason == "converged"
    assert s.iterations == len(iterates) - 1
    assert s.kkt_residual <= 1e-8
    assert s.kkt_residual == kkt_residual(p, s.x, s.eq_multipliers)
    on_bound = (s.x == p.lower) | (s.x == p.upper)
    assert on_bound.sum() >= 10
    # every other coordinate is clearly free, none merely close to a bound
    gap = np.minimum(s.x - p.lower, p.upper - s.x)[~on_bound]
    assert np.all(gap > 1e-3)


def test_equality_start_and_crossover_each_save_iterations():
    # 8 iterations before either change, 7 with only the crossover and 8
    # with only the equality start
    before = 8
    s = solve_qp(blob_duals()["svm+"])
    assert s.iterations <= 6 < before
