"""Independent verification oracles.

These deliberately avoid the library's solver machinery: the QP oracle
is a feasible-set grid search with elimination of the equality
constraints, and the SVM+ oracle is a long-running projected-gradient
descent whose projection is computed by exact active-set enumeration.
Both use nothing beyond numpy primitives.  The dense-CSV oracle is the
plain text-mode line loop that the numpy parser must agree with.
"""

from __future__ import annotations

import itertools

import numpy as np

BOX_CAP = 50.0  # stand-in half-width for infinite bounds


def qp_objective(Q, c, x):
    return 0.5 * x @ (Q @ x) + c @ x


def grid_refine_qp(Q, c, A, b, lower, upper, final_step=1e-8, points=21):
    """Global minimum of a convex box/equality QP by projected grid search.

    Equality constraints are eliminated through a best-conditioned pivot
    column subset; the remaining free coordinates are scanned on a grid
    that is repeatedly halved around the incumbent until the step drops
    below ``final_step``.  Near active bounds the oracle's own error is
    linear in the step (|gradient| * step), so certifying objective gaps
    at 1e-6 needs a step a couple of orders finer than 1e-4; the default
    leaves the oracle error around 1e-7 on unit-scale problems.
    Returns (x, objective).
    """
    Q = np.asarray(Q, float)
    c = np.asarray(c, float)
    A = np.asarray(A, float).reshape(-1, c.shape[0])
    b = np.asarray(b, float).ravel()
    n = c.shape[0]
    m = A.shape[0]
    lower = np.where(np.isfinite(lower), lower, -BOX_CAP)
    upper = np.where(np.isfinite(upper), upper, BOX_CAP)

    if m == 0:
        pivot = ()
    else:
        best_det, pivot = -1.0, None
        for cols in itertools.combinations(range(n), m):
            det = abs(np.linalg.det(A[:, cols]))
            if det > best_det:
                best_det, pivot = det, cols
        if best_det < 1e-12:
            raise ValueError("equality constraints are rank deficient")
    free = [j for j in range(n) if j not in pivot]
    pivot = list(pivot)

    if not free:
        x = np.zeros(n)
        x[pivot] = np.linalg.solve(A[:, pivot], b)
        return x, qp_objective(Q, c, x)

    if m:
        apinv = np.linalg.inv(A[:, pivot])
        t = apinv @ b
        M = apinv @ A[:, free]

    def assemble(points_free):
        # points_free: (k, len(free)) -> full feasible candidates + mask
        k = points_free.shape[0]
        X = np.empty((k, n))
        X[:, free] = points_free
        if m:
            X[:, pivot] = t[None, :] - points_free @ M.T
        ok = np.all(X >= lower[None, :] - 1e-9, axis=1)
        ok &= np.all(X <= upper[None, :] + 1e-9, axis=1)
        return X, ok

    lo = lower[free].copy()
    hi = upper[free].copy()
    center = 0.5 * (lo + hi)
    window = hi - lo
    best_x, best_f = None, np.inf
    grid_points = points
    for _ in range(2000):
        starts = np.maximum(lo, center - window / 2)
        stops = np.minimum(hi, center + window / 2)
        axes = [
            np.linspace(starts[i], stops[i], grid_points) for i in range(len(free))
        ]
        mesh = np.stack(
            [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1
        )
        X, ok = assemble(mesh)
        if not np.any(ok):
            if grid_points > 600:
                raise ValueError("no feasible grid point found")
            grid_points *= 2
            continue
        grid_points = points
        Xok = X[ok]
        vals = 0.5 * np.einsum("ij,ij->i", Xok @ Q, Xok) + Xok @ c
        i = int(np.argmin(vals))
        improvement = best_f - float(vals[i])
        if improvement > 0:
            best_f = float(vals[i])
            best_x = Xok[i]
        center = best_x[free]
        step = (stops - starts) / max(grid_points - 1, 1)
        if np.max(step) <= final_step:
            return best_x, best_f
        # an incumbent on the scan-window edge (not clamped by the box)
        # means the minimum may lie outside: recenter at the same scale
        # and only shrink once movement stalls; long flat valleys after
        # equality elimination need this crawl phase
        on_edge = (center - starts <= step + 1e-15) | (stops - center <= step + 1e-15)
        at_box = (center - lo <= 1e-12) | (hi - center <= 1e-12)
        crawling = np.any(on_edge & ~at_box)
        if not crawling or improvement <= 1e-13 * (1.0 + abs(best_f)):
            window = window * 0.5
    raise RuntimeError("grid refinement failed to converge")


def enumerate_active_sets_qp(Q, c, A, b, lower, upper):
    """Exact minimum of a convex box/equality QP by active-set enumeration.

    Every combination of {free, at-lower, at-upper} per coordinate is a
    candidate active set; each one fixes some variables and reduces the
    rest to an equality-constrained quadratic solved by one dense KKT
    system.  Feasible candidates are compared on the objective.  The
    combination matching the true active set reproduces the optimum to
    linear-algebra precision, and every candidate is primal feasible, so
    the best candidate IS the global minimum.  Exponential in n; meant
    for n <= 6.  Returns (x, objective) or (None, inf) when no candidate
    is feasible.
    """
    Q = np.asarray(Q, float)
    c = np.asarray(c, float)
    A = np.asarray(A, float).reshape(-1, c.shape[0])
    b = np.asarray(b, float).ravel()
    n = c.shape[0]
    m = A.shape[0]
    best_x, best_f = None, np.inf
    for combo in itertools.product((0, 1, 2), repeat=n):
        fixed_vals = {}
        ok = True
        for i, state in enumerate(combo):
            if state == 1:
                if not np.isfinite(lower[i]):
                    ok = False
                    break
                fixed_vals[i] = lower[i]
            elif state == 2:
                if not np.isfinite(upper[i]):
                    ok = False
                    break
                fixed_vals[i] = upper[i]
        if not ok:
            continue
        free = [i for i in range(n) if i not in fixed_vals]
        x = np.zeros(n)
        for i, v in fixed_vals.items():
            x[i] = v
        if free:
            k = len(free)
            K = np.zeros((k + m, k + m))
            K[:k, :k] = Q[np.ix_(free, free)] + 1e-12 * np.eye(k)
            if m:
                K[:k, k:] = A[:, free].T
                K[k:, :k] = A[:, free]
            x_fixed_only = x.copy()
            x_fixed_only[free] = 0.0
            rhs = np.concatenate(
                [-c[free] - (Q @ x_fixed_only)[free], b - A @ x_fixed_only]
            )
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            x[free] = sol[:k]
        if m and np.max(np.abs(A @ x - b)) > 1e-8:
            continue
        if np.any(x < lower - 1e-9) or np.any(x > upper + 1e-9):
            continue
        f = qp_objective(Q, c, x)
        if f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


def qp_reference_solution(Q, c, A, b, lower, upper):
    """Best of the two independent oracles, cross-checked.

    Grid refinement localizes globally but its accuracy near active
    bounds is linear in the final step; active-set enumeration is exact
    but trusts dense linear solves.  They must agree (grid never beats
    enumeration by more than rounding), and the enumeration point wins.
    """
    xg, fg = grid_refine_qp(Q, c, A, b, lower, upper)
    xe, fe = enumerate_active_sets_qp(Q, c, A, b, lower, upper)
    if xe is None:
        return xg, fg
    if fg < fe - 1e-7 * (1.0 + abs(fe)):
        raise RuntimeError(
            f"oracle disagreement: grid {fg!r} beats enumeration {fe!r}"
        )
    return (xe, fe) if fe <= fg else (xg, fg)


def _projection_tables(A):
    """Per clamp-mask pseudoinverses of A_F A_F' for batch projection."""
    m, n = A.shape
    masks = np.array(
        [[(s >> j) & 1 == 0 for j in range(n)] for s in range(2**n)], dtype=float
    )
    pinvs = np.empty((masks.shape[0], m, m))
    for s, mask in enumerate(masks):
        af = A * mask[None, :]
        pinvs[s] = np.linalg.pinv(af @ af.T)
    return masks, pinvs


def make_projector(A, d):
    """Exact Euclidean projector onto {v >= 0, A v = d} (enumerative)."""
    A = np.asarray(A, float)
    d = np.asarray(d, float)
    masks, pinvs = _projection_tables(A)

    def project(z):
        zf = z[None, :] * masks
        rhs = d[None, :] - zf @ A.T
        lam = np.einsum("sij,sj->si", pinvs, rhs)
        v = (z[None, :] + lam @ A) * masks
        feasible = np.max(np.abs(v @ A.T - d[None, :]), axis=1) <= 1e-8
        feasible &= np.min(np.where(masks > 0, v, 0.0), axis=1) >= -1e-9
        multipliers = -(z[None, :] + lam @ A)
        feasible &= np.min(np.where(masks > 0, 0.0, multipliers), axis=1) >= -1e-8
        idx = np.flatnonzero(feasible)
        if idx.size == 0:
            raise RuntimeError("projection enumeration found no KKT point")
        return np.maximum(v[idx[0]], 0.0)

    return project


def svmplus_dual_oracle(K, Kstar, y, C, gamma_plus, grad_tol=1e-10,
                        max_iter=2_000_000):
    """Maximize the SVM+ dual by projected gradient to a tiny mapping norm.

    Gradients are formed directly from the unexpanded objective

        W = sum(a) - 0.5 (a*y)'K(a*y) - 1/(2 g) d'K*d,  d = a + b - C

    and the step size comes from the eigenvalue bound
    L <= lam_max(K) + 2 lam_max(K*)/g.  Returns (alpha, beta, W).
    """
    K = np.asarray(K, float)
    Kstar = np.asarray(Kstar, float)
    y = np.asarray(y, float)
    n = y.shape[0]
    A = np.vstack([np.concatenate([y, np.zeros(n)]), np.ones(2 * n)])
    d = np.array([0.0, n * C])
    project = make_projector(A, d)
    L = float(np.linalg.eigvalsh(K)[-1] + 2.0 * np.linalg.eigvalsh(Kstar)[-1] / gamma_plus)

    v = project(np.concatenate([np.zeros(n), np.full(n, C)]))
    for _ in range(max_iter):
        alpha, beta = v[:n], v[n:]
        delta = alpha + beta - C
        kd = Kstar @ delta / gamma_plus
        grad_alpha = -1.0 + y * (K @ (alpha * y)) + kd
        grad = np.concatenate([grad_alpha, kd])
        v_next = project(v - grad / L)
        if np.linalg.norm(L * (v - v_next)) <= grad_tol:
            v = v_next
            break
        v = v_next
    alpha, beta = v[:n], v[n:]
    delta = alpha + beta - C
    w = (
        alpha.sum()
        - 0.5 * (alpha * y) @ (K @ (alpha * y))
        - 0.5 / gamma_plus * delta @ (Kstar @ delta)
    )
    return alpha, beta, float(w)


def rbf_gram_loops(X, gamma):
    """Plain double-loop RBF Gram for oracle comparisons."""
    X = np.asarray(X, float)
    n = X.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            diff = X[i] - X[j]
            K[i, j] = np.exp(-gamma * np.dot(diff, diff))
    return K


def load_dense_csv_lines(path, skip_header=False):
    """Dense CSV read line by line in text mode, one float() per field.

    The reference for ``load_feature_file(path, "dense-csv")``: the same
    array, or a ``DataFormatError`` with the same message.
    """
    from lupicp.dataio import DataFormatError

    rows = []
    width = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if skip_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise DataFormatError(
                    f"ragged row: {len(fields)} fields, expected {width}",
                    path=path, line=lineno,
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise DataFormatError(
                    f"non-numeric field: {exc}", path=path, line=lineno
                ) from exc
    if not rows:
        raise DataFormatError("no data rows", path=path)
    return np.asarray(rows)
