"""Dense convex quadratic programming with box bounds and up to two
linear equality constraints.

    minimize    0.5 x'Qx + c'x
    subject to  A x = b                 (0, 1 or 2 rows)
                lower <= x <= upper     (either side may be infinite)

This is exactly the shape of both the soft-margin SVM dual (n variables,
one equality) and the SVM+ dual (2n variables, two equalities), so one
solver serves both trainers.

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

A tolerance on the KKT residual bounds x only loosely near a bound (a
slack of 1e-6 against a multiplier of 1e-3 passes a 1e-8 tolerance), so
the interior-point answer is polished: the bounds it shows as active are
fixed and the remaining equality-constrained QP is solved directly.  The
polished point replaces the interior one only when its residual is lower.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "QpProblem",
    "QpSolution",
    "QpError",
    "QpInfeasibleError",
    "QpNonConvergenceError",
    "solve_qp",
    "kkt_residual",
]

RIDGE = 1e-10
FEASIBILITY_TOL = 1e-6
# iterations without a lower residual before the safeguarded step takes over
STALL_ITERATIONS = 10
# centring of the safeguarded step
STALL_SIGMA = 0.1


class QpError(Exception):
    """Base class for solver failures."""


class QpInfeasibleError(QpError):
    """The equality constraints admit no point inside the bounds."""


class QpNonConvergenceError(QpError):
    """Iteration limit hit with residual above tolerance.

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
        asym = np.max(np.abs(self.Q - self.Q.T)) if n else 0.0
        if asym > 1e-10:
            raise ValueError(f"Q is not symmetric: max |Q - Q'| = {asym:.3e}")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ (self.Q @ x) + self.c @ x)


@dataclass
class QpSolution:
    x: np.ndarray
    objective: float
    eq_multipliers: np.ndarray
    kkt_residual: float
    iterations: int
    trace: list = field(default_factory=list, repr=False)


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


def _start_point(lower, upper):
    finite_l = np.isfinite(lower)
    finite_u = np.isfinite(upper)
    x = np.zeros(lower.shape[0])
    both = finite_l & finite_u
    x[both] = 0.5 * (lower[both] + upper[both])
    only_l = finite_l & ~finite_u
    x[only_l] = lower[only_l] + 1.0
    only_u = finite_u & ~finite_l
    x[only_u] = upper[only_u] - 1.0
    return x


def _solve_equality_kkt(Qr, c, A, b):
    # no inequality bounds: one symmetric indefinite solve
    n = c.shape[0]
    m = A.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = Qr
    K[:n, n:] = -A.T
    K[n:, :n] = A
    rhs = np.concatenate([-c, b])
    sol = np.linalg.solve(K, rhs)
    return sol[:n], sol[n : n + m]


def _max_step(v, dv):
    """Largest step in [0, 1] keeping v + step*dv strictly positive."""
    mask = dv < 0
    if not np.any(mask):
        return 1.0
    return float(min(1.0, np.min(v[mask] / -dv[mask])))


def _ipm(Q, c, A, b, lower, upper, tol, max_iter, diagonal_q=False):
    """Predictor-corrector loop.  Returns (x, y, iters, trace, residual)."""
    n = c.shape[0]
    m = A.shape[0]
    problem = QpProblem(Q=Q, c=c, A=A, b=b, lower=lower, upper=upper)
    finite_l = np.isfinite(lower)
    finite_u = np.isfinite(upper)
    n_pairs = int(finite_l.sum() + finite_u.sum())

    if diagonal_q:
        q_diag = np.diagonal(Q).copy() + RIDGE
    else:
        diag_idx = np.arange(n)
        m_work = np.empty_like(Q)  # reused per iteration; potrf overwrites it

    if n_pairs == 0:
        x, y = _solve_equality_kkt(Q + RIDGE * np.eye(n), c, A, b)
        res = _residual_terms(problem, x, y)
        return x, y, 0, [], res

    x = _start_point(lower, upper)
    y = np.zeros(m)
    zl = np.where(finite_l, 1.0, 0.0)
    zu = np.where(finite_u, 1.0, 0.0)

    trace = []
    best = None
    it = 0
    for it in range(1, max_iter + 1):
        Qx = Q @ x
        res = _residual_terms(problem, x, y, Qx=Qx)
        obj = float(0.5 * x @ Qx + c @ x)
        primal_inf = float(np.max(np.abs(A @ x - b))) if m else 0.0
        sl = np.where(finite_l, x - lower, 1.0)
        su = np.where(finite_u, upper - x, 1.0)
        mu = (
            float(np.sum(sl[finite_l] * zl[finite_l]) + np.sum(su[finite_u] * zu[finite_u]))
            / n_pairs
        )
        trace.append(
            {
                "iteration": it - 1,
                "objective": obj,
                "primal_infeasibility": primal_inf,
                "kkt_residual": res,
                "mu": mu,
            }
        )
        if best is None or res < best[-1]:
            best = (x.copy(), y.copy(), it - 1, res)
        if res <= tol:
            return x, y, it - 1, trace, res

        # slacks can collapse to zero at float precision near the solution
        if np.any(sl[finite_l] <= 0.0) or np.any(su[finite_u] <= 0.0):
            break

        d = np.zeros(n)
        d[finite_l] += zl[finite_l] / sl[finite_l]
        d[finite_u] += zu[finite_u] / su[finite_u]

        if diagonal_q:
            m_diag = q_diag + d

            def solve_m(rhs, m_diag=m_diag):
                return rhs / m_diag if rhs.ndim == 1 else rhs / m_diag[:, None]

        else:
            np.copyto(m_work, Q)
            m_work[diag_idx, diag_idx] += d + RIDGE
            try:
                factor = scipy.linalg.cho_factor(
                    m_work, lower=True, overwrite_a=True, check_finite=False
                )
            except np.linalg.LinAlgError:
                break

            def solve_m(rhs, factor=factor):
                return scipy.linalg.cho_solve(factor, rhs, check_finite=False)

        if m:
            at_solved = solve_m(A.T)

        def direction(t_l, t_u):
            f = -(Qx + c - (A.T @ y if m else 0.0) - zl + zu)
            f = f + np.where(finite_l, t_l / np.where(finite_l, sl, 1.0), 0.0)
            f = f - np.where(finite_u, t_u / np.where(finite_u, su, 1.0), 0.0)
            f_solved = solve_m(f)
            if m:
                r_p = A @ x - b
                schur = A @ at_solved
                dy = np.linalg.solve(schur, -r_p - A @ f_solved)
                dx = f_solved + at_solved @ dy
            else:
                dy = np.zeros(0)
                dx = f_solved
            dzl = np.where(finite_l, (t_l - zl * dx) / np.where(finite_l, sl, 1.0), 0.0)
            dzu = np.where(finite_u, (t_u + zu * dx) / np.where(finite_u, su, 1.0), 0.0)
            return dx, dy, dzl, dzu

        def step_lengths(dx, dzl, dzu):
            a_p = min(
                _max_step(sl[finite_l], dx[finite_l]),
                _max_step(su[finite_u], -dx[finite_u]),
            )
            a_d = min(
                _max_step(zl[finite_l], dzl[finite_l]),
                _max_step(zu[finite_u], dzu[finite_u]),
            )
            return a_p, a_d

        stalled = it - 1 - best[2] >= STALL_ITERATIONS
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
                np.sum((sl + ap_a * dx_a)[finite_l] * (zl + ad_a * dzl_a)[finite_l])
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
        if ap < 1e-13 and ad < 1e-13:
            break
        x = x + ap * dx
        y = y + ad * dy
        zl = np.where(finite_l, zl + ad * dzl_d, 0.0)
        zu = np.where(finite_u, zu + ad * dzu_d, 0.0)

    x_b, y_b, it_b, res_b = best
    res_now = _residual_terms(problem, x, y)
    if res_now < res_b:
        x_b, y_b, it_b, res_b = x, y, it, res_now
    return x_b, y_b, it_b, trace, res_b


def _solve_reduced_kkt(Q_ff, c, A, b):
    """Solve Q_ff x - A'y = -c, A x = b by Cholesky and the Schur complement.

    ``Q_ff`` is overwritten, so the solve needs no memory beyond that copy.
    """
    Q_ff[np.diag_indices_from(Q_ff)] += RIDGE
    factor = scipy.linalg.cho_factor(Q_ff, lower=True, overwrite_a=True, check_finite=False)
    x = -scipy.linalg.cho_solve(factor, c, check_finite=False)
    if not A.shape[0]:
        return x, np.zeros(0)
    w = scipy.linalg.cho_solve(factor, A.T, check_finite=False)
    y = np.linalg.solve(A @ w, b - A @ x)
    return x + w @ y, y


def _polish(p: QpProblem, x, y, res, max_rounds=10):
    """Re-solve with the apparently active bounds fixed: (x, y, residual).

    A bound counts as active where the projected gradient's multiplier
    exceeds the slack, the usual interior-point indicator.  That guess
    can be wrong for a variable that sits near a bound with a near-zero
    multiplier, so each round also fixes free variables that crossed a
    bound and frees fixed ones whose multiplier has the wrong sign, until
    the set stops changing.  Returns the inputs unchanged when a reduced
    system is singular or the result has no lower residual.
    """
    finite_l = np.isfinite(p.lower)
    finite_u = np.isfinite(p.upper)
    g = p.Q @ x + p.c
    if p.A.shape[0]:
        g = g - p.A.T @ y
    at_lower = finite_l & (g > 0) & (x - p.lower < g)
    at_upper = finite_u & (g < 0) & (p.upper - x < -g)
    for _ in range(max_rounds):
        free = ~(at_lower | at_upper)
        fixed = np.where(at_lower, p.lower, np.where(at_upper, p.upper, 0.0))
        x_new = fixed.copy()
        y_new = y  # kept when no free variable is left to determine it
        if free.any():
            bound = ~free
            try:
                x_f, y_new = _solve_reduced_kkt(
                    p.Q[np.ix_(free, free)],
                    p.c[free] + p.Q[np.ix_(free, bound)] @ fixed[bound],
                    p.A[:, free],
                    p.b - p.A[:, bound] @ fixed[bound],
                )
            except np.linalg.LinAlgError:
                return x, y, res
            if not (np.all(np.isfinite(x_f)) and np.all(np.isfinite(y_new))):
                return x, y, res
            x_new[free] = x_f
        g = p.Q @ x_new + p.c
        if p.A.shape[0]:
            g = g - p.A.T @ y_new
        new_lower = (free & finite_l & (x_new < p.lower)) | (at_lower & (g >= 0))
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


def _quick_feasible_point(A, b, lower, upper):
    """Cheap constructive feasibility certificate, or None."""
    candidates = [np.clip(np.zeros(lower.shape[0]), lower, upper), _start_point(lower, upper)]
    try:
        ls = A.T @ np.linalg.solve(A @ A.T, b)
        candidates.append(np.clip(ls, lower, upper))
    except np.linalg.LinAlgError:
        pass
    for x in candidates:
        if np.max(np.abs(A @ x - b)) <= 1e-9:
            return x
    return None


def _phase_one(A, b, lower, upper, max_iter):
    """LP min sum(r) over Ax + r_pos - r_neg = b; returns residual norm."""
    m, n = A.shape
    n_ext = n + 2 * m
    Q = np.zeros((n_ext, n_ext))
    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    A_ext = np.hstack([A, np.eye(m), -np.eye(m)])
    lo = np.concatenate([lower, np.zeros(2 * m)])
    hi = np.concatenate([upper, np.full(2 * m, np.inf)])
    x, _, _, _, _ = _ipm(
        Q, c, A_ext, b, lo, hi, tol=1e-9, max_iter=max_iter, diagonal_q=True
    )
    artificial = float(np.sum(np.abs(x[n:])))
    return artificial


def solve_qp(p: QpProblem, tol: float = 1e-8, max_iter: int = 200) -> QpSolution:
    """Solve the QP to the requested KKT residual.

    Raises :class:`QpInfeasibleError` when the phase-one pre-solve leaves
    more than 1e-6 of constraint violation, and
    :class:`QpNonConvergenceError` (carrying the best iterate) when the
    iteration limit is reached first.
    """
    p.validate()
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    if p.A.shape[0] and _quick_feasible_point(p.A, p.b, p.lower, p.upper) is None:
        infeasibility = _phase_one(p.A, p.b, p.lower, p.upper, max_iter=100)
        if infeasibility > FEASIBILITY_TOL:
            raise QpInfeasibleError(
                f"equality constraints unreachable within bounds "
                f"(phase-one residual {infeasibility:.3e})"
            )

    x, y, iters, trace, res = _ipm(
        p.Q, p.c, p.A, p.b, p.lower, p.upper, tol=tol, max_iter=max_iter
    )
    x, y, res = _polish(p, x, y, res)
    solution = QpSolution(
        x=x,
        objective=p.objective(x),
        eq_multipliers=y,
        kkt_residual=res,
        iterations=iters,
        trace=trace,
    )
    if res > tol:
        raise QpNonConvergenceError(
            f"KKT residual {res:.3e} above tolerance {tol:.1e} "
            f"after {iters} iterations",
            best=solution,
        )
    return solution
