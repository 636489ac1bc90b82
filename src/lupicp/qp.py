"""Dense convex quadratic programming for the SVM and SVM+ duals.

    minimize    0.5 x'Qx + c'x
    subject to  A x = b                 (0, 1 or 2 independent rows)
                lower <= x <= upper     (lower finite, upper may be infinite)

This is exactly the shape of both the soft-margin SVM dual (n variables,
one equality, 0 <= x <= C) and the SVM+ dual (2n variables, two
equalities, x >= 0), so one solver serves both trainers.

The algorithm is a Mehrotra-style predictor-corrector interior-point
method.  Convergence is declared on the same residual that
:func:`kkt_residual` reports, which makes every solution verifiable
without knowledge of solver internals.  Q is regularized with a 1e-10
ridge before factorization to absorb the numerically rank-deficient Gram
matrices RBF kernels tend to produce.

Primal and dual variables take separate step lengths.  On rare
instances that, together with Mehrotra's second-order correction, leaves
the iteration cycling with a barrier parameter that never falls (in a QP
the dual residual depends on x through Qx).  So while the residual has
not improved for STALL_ITERATIONS iterations, the step is a plain
centred Newton step (sigma = STALL_SIGMA) with one length for both.

The iteration starts on the equality set: mid-box (or one above the
lower bound where there is no upper one), moved by the least-norm
correction onto ``A x = b`` when that stays strictly inside the bounds.
From a point on ``A x = b`` the primal step may not raise the objective
by more than rounding (RISE_TOL of its size).  The centring term can
point uphill, most of all in the first steps from that start, so a
longer step is cut back to the objective's line minimum, and a step
that does not descend leaves x where it is while the duals move.

A tolerance on the KKT residual bounds x only loosely near a bound (a
slack of 1e-6 against a multiplier of 1e-3 passes a 1e-8 tolerance), so
the interior-point answer is polished: the bounds it shows as active are
fixed and the remaining equality-constrained QP is solved directly.  The
polished point replaces the interior one only when its residual is lower.
The loop also crosses over to the polish early: once two successive
iterates show the same active bounds, and that guess has not been tried,
it polishes the current iterate and returns the result if it meets the
tolerance.  The certificate is the same KKT residual either way.

There is no phase one, because both duals are feasible by construction.
An infeasible or degenerate problem ends in :class:`QpNonConvergenceError`,
whose message names why the iteration stopped; linearly dependent
equality rows are rejected up front with ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "QpProblem",
    "QpSolution",
    "QpError",
    "QpNonConvergenceError",
    "solve_qp",
    "kkt_residual",
]

# the KKT residual at which every SVM and SVM+ dual is certified
TOL = 1e-8
RIDGE = 1e-10
# iterations without a lower residual before the safeguarded step takes over
STALL_ITERATIONS = 10
# centring of the safeguarded step
STALL_SIGMA = 0.1
# objective rise, relative to its size, that a primal step on A x = b may
# make: rounding, not ascent
RISE_TOL = 1e-12
# active-set corrections per polish before it gives up
POLISH_ROUNDS = 10


class QpError(Exception):
    """Base class for solver failures."""


class QpNonConvergenceError(QpError):
    """The iteration stopped with the residual above tolerance.

    Carries the best iterate found so callers can decide whether it is
    still usable at a looser tolerance.
    """

    def __init__(self, message: str, best: "QpSolution"):
        super().__init__(message)
        self.best = best


@dataclass
class QpProblem:
    """Convex QP data.  ``A`` has one row per equality constraint."""

    Q: np.ndarray
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def with_equalities(cls, Q, c, equalities, lower, upper) -> "QpProblem":
        """Build from a list of (coefficient vector, rhs) pairs."""
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        if equalities:
            A = np.asarray([np.asarray(a, dtype=float) for a, _ in equalities])
            b = np.asarray([float(r) for _, r in equalities])
        else:
            A = np.zeros((0, n))
            b = np.zeros(0)
        return cls(
            Q=np.asarray(Q, dtype=float),
            c=c,
            A=A,
            b=b,
            lower=np.broadcast_to(np.asarray(lower, dtype=float), (n,)).copy(),
            upper=np.broadcast_to(np.asarray(upper, dtype=float), (n,)).copy(),
        )

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def validate(self) -> None:
        n = self.n
        if self.Q.shape != (n, n):
            raise ValueError(f"Q must be {n}x{n}, got {self.Q.shape}")
        if self.A.ndim != 2 or self.A.shape[1] != n:
            raise ValueError(f"A must be (m, {n}), got {self.A.shape}")
        m = self.A.shape[0]
        if m > 2:
            raise ValueError(f"at most two equality constraints supported, got {m}")
        if self.b.shape != (m,):
            raise ValueError(f"b must have shape ({m},), got {self.b.shape}")
        if self.lower.shape != (n,) or self.upper.shape != (n,):
            raise ValueError("bounds must match the variable count")
        if not scipy.linalg.issymmetric(self.Q):
            asym = np.max(np.abs(self.Q - self.Q.T))
            if asym > 1e-10:
                raise ValueError(f"Q is not symmetric: max |Q - Q'| = {asym:.3e}")
        if not np.all(np.isfinite(self.lower)):
            raise ValueError("lower bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        if m and np.linalg.matrix_rank(self.A) < m:
            raise ValueError("equality constraint rows are linearly dependent")

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ (self.Q @ x) + self.c @ x)


@dataclass
class QpSolution:
    """``stop_reason`` is ``converged`` when ``kkt_residual`` meets the
    tolerance, else why the interior-point loop stopped: ``slack
    collapse``, ``factorization failed``, ``step too small`` or
    ``max_iter``."""

    x: np.ndarray
    objective: float
    eq_multipliers: np.ndarray
    kkt_residual: float
    iterations: int
    stop_reason: str


def _residual_terms(p: QpProblem, x: np.ndarray, multipliers: np.ndarray, Qx=None):
    if Qx is None:
        Qx = p.Q @ x
    g = Qx + p.c
    if p.A.shape[0]:
        g = g - p.A.T @ np.asarray(multipliers, dtype=float)
        eq_violation = np.max(np.abs(p.A @ x - p.b))
    else:
        eq_violation = 0.0
    finite_l = np.isfinite(p.lower)
    finite_u = np.isfinite(p.upper)
    mu_lower = np.where(finite_l, np.maximum(g, 0.0), 0.0)
    mu_upper = np.where(finite_u, np.maximum(-g, 0.0), 0.0)
    stationarity = np.max(np.abs(g - mu_lower + mu_upper), initial=0.0)
    bound_violation = max(
        np.max(np.where(finite_l, p.lower - x, -np.inf), initial=-np.inf),
        np.max(np.where(finite_u, x - p.upper, -np.inf), initial=-np.inf),
        0.0,
    )
    slack_l = np.where(finite_l, np.maximum(x - p.lower, 0.0), 0.0)
    slack_u = np.where(finite_u, np.maximum(p.upper - x, 0.0), 0.0)
    complementarity = max(
        np.max(mu_lower * slack_l, initial=0.0),
        np.max(mu_upper * slack_u, initial=0.0),
    )
    return max(stationarity, bound_violation, eq_violation, complementarity)


def kkt_residual(p: QpProblem, x, multipliers=()) -> float:
    """Infinity-norm KKT residual of (x, equality multipliers).

    Bound multipliers are recovered by projecting the reduced gradient
    onto the sign pattern the bounds allow, so the residual depends only
    on quantities a caller can supply.  Zero at (and only near) optimal
    points.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"x must have shape ({p.n},), got {x.shape}")
    multipliers = np.asarray(multipliers, dtype=float).ravel()
    if multipliers.shape[0] != p.A.shape[0]:
        raise ValueError(
            f"expected {p.A.shape[0]} equality multipliers, got {multipliers.shape[0]}"
        )
    return float(_residual_terms(p, x, multipliers))


def _start_point(p: QpProblem):
    """Mid-box where the upper bound is finite, else one above the lower,
    moved by the least-norm correction onto ``A x = b`` when that stays
    strictly inside the bounds."""
    x = np.where(np.isfinite(p.upper), 0.5 * (p.lower + p.upper), p.lower + 1.0)
    if p.A.shape[0]:
        moved = x + p.A.T @ np.linalg.solve(p.A @ p.A.T, p.b - p.A @ x)
        if np.all(moved > p.lower) and np.all(moved < p.upper):
            return moved
    return x


def _active_guess(p: QpProblem, x, y, Qx):
    """The bounds that look active at (x, y): (at_lower, at_upper).

    A bound counts as active where the projected gradient's multiplier
    exceeds the slack, the usual interior-point indicator.
    """
    g = Qx + p.c - p.A.T @ y
    at_lower = (g > 0) & (x - p.lower < g)
    at_upper = np.isfinite(p.upper) & (g < 0) & (p.upper - x < -g)
    return at_lower, at_upper


def _max_step(v, dv):
    """Largest step in [0, 1] keeping v + step*dv strictly positive."""
    mask = dv < 0
    if not np.any(mask):
        return 1.0
    return float(min(1.0, np.min(v[mask] / -dv[mask])))


def _descent_cap(p: QpProblem, Qx, x, dx, step):
    """``step`` along ``dx`` from ``x``, cut back to the objective's line
    minimum (0 where ``dx`` does not descend) when the full step would
    raise the objective by more than RISE_TOL of its size."""
    slope = float((Qx + p.c) @ dx)
    curvature = float(dx @ (p.Q @ dx))
    rise = step * (slope + 0.5 * step * curvature)
    if rise <= RISE_TOL * (1.0 + abs(0.5 * x @ Qx + p.c @ x)):
        return step
    return -slope / curvature if slope < 0.0 else 0.0


def _kkt_solver(M, A):
    """Factor ``M`` (overwritten) and return ``solve(f, g) -> (dx, dy)``
    for the system ``M dx - A'dy = f``, ``A dx = g``.

    ``M`` is eliminated by its Cholesky factor, in place when ``M`` is
    Fortran-ordered, and ``dy`` found from the Schur complement
    ``A M^-1 A'``.  ``M^-1 A'`` is solved for as extra columns of the
    first right-hand side, and the Schur complement built from it is
    reused by every later one.  Raises ``LinAlgError`` when ``M`` is not
    numerically positive definite.
    """
    factor = scipy.linalg.cho_factor(M, lower=True, overwrite_a=True, check_finite=False)
    at_solved = schur = None

    def solve(f, g):
        nonlocal at_solved, schur
        if not A.shape[0]:
            return scipy.linalg.cho_solve(factor, f, check_finite=False), np.zeros(0)
        if at_solved is None:
            both = scipy.linalg.cho_solve(factor, np.column_stack([f, A.T]),
                                          check_finite=False)
            f_solved, at_solved = both[:, 0], both[:, 1:]
            schur = A @ at_solved
        else:
            f_solved = scipy.linalg.cho_solve(factor, f, check_finite=False)
        dy = np.linalg.solve(schur, g - A @ f_solved)
        return f_solved + at_solved @ dy, dy

    return solve


def _ipm(p: QpProblem, tol, max_iter):
    """Predictor-corrector loop with a crossover to :func:`_polish`.

    Returns (x, y, residual, its iteration, iterations run, stop reason):
    the first point that meets ``tol``, else the best iterate seen,
    polished.
    """
    Q, c, A, b, lower, upper = p.Q, p.c, p.A, p.b, p.lower, p.upper
    n = c.shape[0]
    finite_u = np.isfinite(upper)
    n_pairs = n + int(finite_u.sum())
    diag_idx = np.arange(n)
    # reused per iteration and factored in place: M is symmetric, so its
    # transpose is the Fortran-ordered array that LAPACK overwrites
    m_work = np.empty_like(Q)

    x = _start_point(p)
    y = np.zeros(A.shape[0])
    zl = np.ones(n)
    zu = np.where(finite_u, 1.0, 0.0)

    best = None
    previous, polished = None, set()  # active-set guesses, as bytes
    reason = "max_iter"
    steps = 0
    for _ in range(max_iter):
        Qx = Q @ x
        res = _residual_terms(p, x, y, Qx=Qx)
        sl = x - lower
        su = np.where(finite_u, upper - x, 1.0)
        mu = float(np.sum(sl * zl) + np.sum(su[finite_u] * zu[finite_u])) / n_pairs
        if best is None or res < best[-1]:
            best = (x.copy(), y.copy(), steps, res)
        guess = _active_guess(p, x, y, Qx)
        if res <= tol:
            return (*_polish(p, x, y, res, *guess), steps, steps, "converged")

        # cross over once the active-set guess repeats, unless already tried
        key = guess[0].tobytes() + guess[1].tobytes()
        if key == previous and key not in polished:
            polished.add(key)
            x_p, y_p, res_p = _polish(p, x, y, res, *guess)
            if res_p <= tol:
                return x_p, y_p, res_p, steps, steps, "converged"
        previous = key

        # slacks can collapse to zero at float precision near the solution
        if np.any(sl <= 0.0) or np.any(su[finite_u] <= 0.0):
            reason = "slack collapse"
            break

        d = zl / sl
        d[finite_u] += zu[finite_u] / su[finite_u]
        np.copyto(m_work, Q)
        m_work[diag_idx, diag_idx] += d + RIDGE
        try:
            solve = _kkt_solver(m_work.T, A)
        except np.linalg.LinAlgError:
            reason = "factorization failed"
            break
        g = -(A @ x - b)

        def direction(t_l, t_u):
            f = -(Qx + c - A.T @ y - zl + zu)
            f = f + t_l / sl
            f = f - np.where(finite_u, t_u / su, 0.0)
            dx, dy = solve(f, g)
            dzl = (t_l - zl * dx) / sl
            dzu = np.where(finite_u, (t_u + zu * dx) / su, 0.0)
            return dx, dy, dzl, dzu

        def step_lengths(dx, dzl, dzu):
            a_p = min(_max_step(sl, dx), _max_step(su[finite_u], -dx[finite_u]))
            a_d = min(_max_step(zl, dzl), _max_step(zu[finite_u], dzu[finite_u]))
            return a_p, a_d

        stalled = steps - best[2] >= STALL_ITERATIONS
        if stalled:
            # plain centred Newton step
            t_l = STALL_SIGMA * mu - sl * zl
            t_u = STALL_SIGMA * mu - su * zu
        else:
            # predictor (affine scaling)
            t_l_aff = -sl * zl
            t_u_aff = -su * zu
            dx_a, dy_a, dzl_a, dzu_a = direction(t_l_aff, t_u_aff)
            ap_a, ad_a = step_lengths(dx_a, dzl_a, dzu_a)
            mu_aff = (
                np.sum((sl + ap_a * dx_a) * (zl + ad_a * dzl_a))
                + np.sum((su - ap_a * dx_a)[finite_u] * (zu + ad_a * dzu_a)[finite_u])
            ) / n_pairs
            sigma = min(1.0, max(0.0, (mu_aff / mu)) ** 3)

            # corrector
            t_l = sigma * mu - sl * zl - dx_a * dzl_a
            t_u = sigma * mu - su * zu + dx_a * dzu_a
        dx, dy, dzl_d, dzu_d = direction(t_l, t_u)
        ap, ad = step_lengths(dx, dzl_d, dzu_d)
        eta = max(0.995, 1.0 - mu)
        ap = min(1.0, eta * ap)
        ad = min(1.0, eta * ad)
        if stalled:
            ap = ad = min(ap, ad)
        if np.max(np.abs(g), initial=0.0) <= TOL:
            ap = _descent_cap(p, Qx, x, dx, ap)
        if ap < 1e-13 and ad < 1e-13:
            reason = "step too small"
            break
        x = x + ap * dx
        y = y + ad * dy
        zl = zl + ad * dzl_d
        zu = np.where(finite_u, zu + ad * dzu_d, 0.0)
        steps += 1

    x_b, y_b, it_b, res_b = best
    res_now = _residual_terms(p, x, y)
    if res_now < res_b:
        x_b, y_b, it_b, res_b = x, y, steps, res_now
    guess = _active_guess(p, x_b, y_b, Q @ x_b)
    return (*_polish(p, x_b, y_b, res_b, *guess), it_b, steps, reason)


def _polish(p: QpProblem, x, y, res, at_lower, at_upper):
    """Re-solve with the guessed active bounds fixed: (x, y, residual).

    The guess (:func:`_active_guess`) can be wrong for a variable that
    sits near a bound with a near-zero multiplier, so each round also
    fixes free variables that crossed a bound and frees fixed ones whose
    multiplier has the wrong sign, until the set stops changing.  Returns
    the inputs unchanged when a reduced system is singular or the result
    has no lower residual.
    """
    finite_u = np.isfinite(p.upper)
    for _ in range(POLISH_ROUNDS):
        free = ~(at_lower | at_upper)
        fixed = np.where(at_lower, p.lower, np.where(at_upper, p.upper, 0.0))
        x_new = fixed.copy()
        y_new = y  # kept when no free variable is left to determine it
        if free.any():
            bound = ~free
            # the bound columns' product first, so that only one block of
            # Q is copied out at a time
            q_bound = p.Q[np.ix_(free, bound)] @ fixed[bound]
            Q_ff = p.Q[np.ix_(free, free)]
            Q_ff[np.diag_indices_from(Q_ff)] += RIDGE
            try:  # Q_ff is symmetric, so Q_ff.T is it in Fortran order
                x_f, y_new = _kkt_solver(Q_ff.T, p.A[:, free])(
                    -(p.c[free] + q_bound),
                    p.b - p.A[:, bound] @ fixed[bound],
                )
            except np.linalg.LinAlgError:
                return x, y, res
            if not (np.all(np.isfinite(x_f)) and np.all(np.isfinite(y_new))):
                return x, y, res
            x_new[free] = x_f
        g = p.Q @ x_new + p.c - p.A.T @ y_new
        new_lower = (free & (x_new < p.lower)) | (at_lower & (g >= 0))
        new_upper = (free & finite_u & (x_new > p.upper)) | (at_upper & (g <= 0))
        if np.array_equal(new_lower, at_lower) and np.array_equal(new_upper, at_upper):
            break
        at_lower, at_upper = new_lower, new_upper
    else:
        return x, y, res
    res_new = _residual_terms(p, x_new, y_new)
    if res_new < res:
        return x_new, y_new, res_new
    return x, y, res


def solve_qp(p: QpProblem, tol: float = TOL, max_iter: int = 200) -> QpSolution:
    """Solve the QP to the requested KKT residual.

    Runs no feasibility pre-solve.  Raises ``ValueError`` for a malformed
    problem, linearly dependent equality rows included, and
    :class:`QpNonConvergenceError` (carrying the best iterate) when the
    residual stays above ``tol``, as it does on an infeasible problem; its
    message ends with the reason the iteration stopped.
    """
    p.validate()
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    x, y, res, iters, ran, reason = _ipm(p, tol=tol, max_iter=max_iter)
    solution = QpSolution(
        x=x,
        objective=p.objective(x),
        eq_multipliers=y,
        kkt_residual=res,
        iterations=iters,
        stop_reason="converged" if res <= tol else reason,
    )
    if res > tol:
        raise QpNonConvergenceError(
            f"KKT residual {res:.3e} above tolerance {tol:.1e} "
            f"after {ran} iterations (best at iteration {iters}): {reason}",
            best=solution,
        )
    return solution
