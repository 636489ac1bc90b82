"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The MNIST criteria
need the raw IDX files (not redistributable here); point
LUPICP_MNIST_DIR at a directory containing train-images-idx3-ubyte and
train-labels-idx1-ubyte, and set LUPICP_MNIST_FULL=1 for the full
4000-example run (about two hours); the default is the reduced
1000-example mode.  Without the files those criteria are skipped.
"""

import json
import os
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from lupicp.conformal import default_epsilon_grid
from lupicp.dataio import load_feature_file, write_feature_file, write_labels
from lupicp.experiment import DatasetConfig, ExperimentConfig, run_experiment
from lupicp.kernels import KernelSpec, gram_matrix
from lupicp.qp import QpProblem, solve_qp
from lupicp.selection import GridSpec, kfold_indices, stratified_split
from lupicp.svm import SvmConfig, svm_train
from lupicp.svmplus import SvmPlusConfig, svmplus_train
from conftest import triplet_blobs
from oracles import qp_reference_solution, rbf_gram_loops, svmplus_dual_oracle

EPSILONS = (0.05, 0.1, 0.2)


def gate(name: str, ok: bool, detail: str = ""):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_qp_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst_obj, worst_x = 0.0, 0.0
    for trial in range(50):
        n = int(rng.integers(2, 5))
        n_eq = int(rng.integers(1, 3))
        B = rng.standard_normal((n, n))
        Q = B @ B.T + 0.1 * np.eye(n)
        c = rng.standard_normal(n)
        lower = -rng.uniform(0.5, 2.0, n)
        upper = rng.uniform(0.5, 2.0, n)
        inside = rng.uniform(lower, upper)
        A = rng.standard_normal((n_eq, n))
        p = QpProblem.with_equalities(
            Q, c, [(A[i], float(A[i] @ inside)) for i in range(n_eq)], lower, upper
        )
        s = solve_qp(p)
        x_oracle, f_oracle = qp_reference_solution(Q, c, p.A, p.b, lower, upper)
        worst_obj = max(worst_obj, abs(s.objective - f_oracle))
        worst_x = max(worst_x, float(np.max(np.abs(s.x - x_oracle))))
    elapsed = time.time() - t0
    gate(
        "criterion 1 (QP vs grid-refinement/enumeration oracle, 50 instances)",
        worst_obj <= 1e-6 and worst_x <= 1e-3 and elapsed < 60,
        f"max|dobj|={worst_obj:.2e} (tol 1e-6), max|dx|={worst_x:.2e} (tol 1e-3), "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_criterion_2_svm_correctness():
    X = np.array([[0.0], [2.0]])
    y = np.array([-1, 1])
    m = svm_train(X, y, SvmConfig(C=10.0, kernel=KernelSpec(gamma=0.25)))
    alpha_gap = float(np.max(np.abs(np.abs(m.weights) - 1.0 / (1.0 - np.exp(-1.0)))))
    bias_gap = abs(m.bias)

    worst_margin = 0.0
    instances_with_free = 0
    rng = np.random.default_rng(202)
    for trial in range(20):
        n = int(rng.integers(12, 25))
        yy = np.concatenate([-np.ones(n // 2, int), np.ones(n - n // 2, int)])
        XX = rng.standard_normal((n, 2)) + yy[:, None] * 1.2
        cfg = SvmConfig(C=1.0, kernel=KernelSpec(gamma=0.5))
        model = svm_train(XX, yy, cfg)
        alpha = np.abs(model.weights)
        free = (alpha > 1e-5 * cfg.C) & (alpha < (1.0 - 1e-5) * cfg.C)
        if not np.any(free):
            continue
        instances_with_free += 1
        margins = yy[model.support_indices][free] * model.decision_values(
            model.support_vectors[free]
        )
        worst_margin = max(worst_margin, float(np.max(np.abs(margins - 1.0))))
    gate(
        "criterion 2 (SVM closed form + margin KKT)",
        alpha_gap <= 1e-6 and bias_gap <= 1e-6
        and worst_margin <= 1e-4 and instances_with_free >= 10,
        f"two-point |dalpha|={alpha_gap:.2e}, |b|={bias_gap:.2e} (tol 1e-6); "
        f"free-SV margin gap {worst_margin:.2e} (tol 1e-4) over "
        f"{instances_with_free}/20 instances with free SVs",
    )


def test_criterion_3_svmplus_oracle_equivalence():
    rng = np.random.default_rng(303)
    t0 = time.time()
    worst_obj = worst_eq = worst_kkt = 0.0
    for trial in range(20):
        X = rng.standard_normal((4, 3))
        Xstar = rng.standard_normal((4, 2))
        y = np.array([1, -1, 1, -1])
        cfg = SvmPlusConfig(1.0, 1.0, KernelSpec(1.0), KernelSpec(1.0))
        m = svmplus_train(X, Xstar, y, cfg)
        K = rbf_gram_loops(X, 1.0)
        Kstar = rbf_gram_loops(Xstar, 1.0)
        _, _, w_oracle = svmplus_dual_oracle(K, Kstar, y, 1.0, 1.0)
        worst_obj = max(worst_obj, abs(m.dual_objective - w_oracle))
        worst_eq = max(
            worst_eq, abs(float(np.sum(m.alpha * y))), abs(float(np.sum(m.deltas)))
        )
        worst_kkt = max(worst_kkt, m.kkt_residual)
    elapsed = time.time() - t0
    gate(
        "criterion 3 (SVM+ vs projected-gradient oracle, 20 instances)",
        worst_obj <= 1e-5 and worst_eq <= 1e-6 and worst_kkt <= 1e-6
        and elapsed < 120,
        f"max|dobj|={worst_obj:.2e} (tol 1e-5), max|eq|={worst_eq:.2e}, "
        f"max kkt={worst_kkt:.2e} (tol 1e-6), {elapsed:.1f}s (limit 120s)",
    )


def test_criterion_4_conformal_validity():
    reps = 200
    t0 = time.time()
    seeds = np.random.SeedSequence(20260809).spawn(reps)
    cfg = SvmConfig(C=1.0, kernel=KernelSpec(gamma=0.5))
    err_smooth = {(lab, e): 0 for lab in (-1, 1) for e in EPSILONS}
    err_det = {(lab, e): 0 for lab in (-1, 1) for e in EPSILONS}
    discrete_target = {(lab, e): 0.0 for lab in (-1, 1) for e in EPSILONS}
    totals = {-1: 0, 1: 0}
    for seed in seeds:
        rng = np.random.default_rng(seed)
        y_all = rng.choice([-1, 1], size=1200)
        X_all = rng.standard_normal((1200, 2)) + y_all[:, None] * 1.0
        model = svm_train(X_all[:600], y_all[:600], cfg)
        values = model.decision_values(X_all[600:])
        y_rest = y_all[600:]
        cal_vals, cal_y = values[:300], y_rest[:300]
        test_vals, test_y = values[300:], y_rest[300:]
        for lab in (-1, 1):
            cal = np.sort(cal_y[cal_y == lab] * cal_vals[cal_y == lab])
            n = cal.shape[0]
            scores = lab * test_vals[test_y == lab]
            m = scores.shape[0]
            totals[lab] += m
            at_or_below = np.searchsorted(cal, scores, side="right")
            below = np.searchsorted(cal, scores, side="left")
            p_det = (at_or_below + 1) / (n + 1)
            tau = rng.uniform(size=m)
            p_smooth = (below + tau * (at_or_below - below + 1)) / (n + 1)
            for e in EPSILONS:
                err_det[(lab, e)] += int(np.sum(p_det <= e))
                err_smooth[(lab, e)] += int(np.sum(p_smooth <= e))
                # deterministic p-values are discrete: their exact error
                # probability at significance e is floor(e(n+1))/(n+1)
                discrete_target[(lab, e)] += np.floor(e * (n + 1)) / (n + 1) * m
    elapsed = time.time() - t0

    # Exact validity (error rate centered at epsilon) is the property of
    # the tie-randomized p-values, so the literal two-sided check runs on
    # those; deterministic p-values are conservative by construction and
    # their guaranteed direction is one-sided.  Their exact discrete
    # error target floor(e(n+1))/(n+1) is printed for transparency.
    ok = elapsed < 300
    details = [f"{elapsed:.0f}s (limit 300s)"]
    for lab in (-1, 1):
        N = totals[lab]
        for e in EPSILONS:
            budget = 3.0 * np.sqrt(e * (1 - e) / N)
            rate_s = err_smooth[(lab, e)] / N
            rate_d = err_det[(lab, e)] / N
            target = discrete_target[(lab, e)] / N
            ok &= abs(rate_s - e) <= budget          # exact validity (smoothed)
            ok &= rate_d <= e + budget               # conservative validity (det.)
            details.append(
                f"class {lab:+d} e={e}: smoothed {rate_s:.4f} "
                f"det {rate_d:.4f} (discrete target {target:.4f}, 3sd {budget:.4f})"
            )
    gate("criterion 4 (Mondrian validity, 200 resamplings)", ok, "; ".join(details))


# --- MNIST criteria -------------------------------------------------------

def _mnist_paths():
    root = Path(os.environ.get("LUPICP_MNIST_DIR", "data/mnist"))
    images = root / "train-images-idx3-ubyte"
    labels = root / "train-labels-idx1-ubyte"
    if images.exists() and labels.exists():
        return images, labels
    return None


@pytest.fixture(scope="module")
def mnist_report():
    paths = _mnist_paths()
    if paths is None:
        pytest.skip(
            "MNIST IDX files not available; set LUPICP_MNIST_DIR to a directory "
            "holding train-images-idx3-ubyte and train-labels-idx1-ubyte"
        )
    full = os.environ.get("LUPICP_MNIST_FULL", "") == "1"
    limit = 4000 if full else 1000
    cfg = ExperimentConfig(
        dataset=DatasetConfig(
            kind="mnist-idx", images=str(paths[0]), labels=str(paths[1]), limit=limit
        ),
        seed=7,
        repetitions=10,
    )
    t0 = time.time()
    report = run_experiment(cfg)
    return report, full, time.time() - t0


def test_criterion_5_mnist_accuracy(mnist_report):
    report, full, elapsed = mnist_report
    acc = {k: report.per_model[k]["averages"]["accuracy"] for k in report.per_model}
    ordering_ok = acc["svmplus"] >= acc["svm_x"] - 0.005
    details = (
        f"acc svm_x={acc['svm_x']:.4f} svm_xstar={acc['svm_xstar']:.4f} "
        f"svmplus={acc['svmplus']:.4f}, {elapsed:.0f}s"
    )
    if full:
        ok = (
            0.92 <= acc["svm_x"] <= 0.96
            and 0.97 <= acc["svm_xstar"] <= 1.0
            and ordering_ok
            and elapsed < 7200
        )
        gate("criterion 5 (MNIST 4000, accuracy windows)", ok, details)
    else:
        ok = ordering_ok and elapsed < 900
        gate("criterion 5 (MNIST reduced 1000, ordering)", ok, details + " (limit 900s)")


def test_criterion_6_mnist_observed_fuzziness(mnist_report):
    report, full, _ = mnist_report
    of = {
        k: report.per_model[k]["averages"]["observed_fuzziness"]
        for k in report.per_model
    }
    ok = of["svm_xstar"] < of["svmplus"] <= of["svm_x"] * 1.05
    gate(
        "criterion 6 (MNIST observed-fuzziness ordering)",
        ok,
        f"OF svm_x={of['svm_x']:.6f} svm_xstar={of['svm_xstar']:.6f} "
        f"svmplus={of['svmplus']:.6f}",
    )


# --- drug-dataset shaped synthetic battery --------------------------------

def test_criterion_7_drug_shaped_invariants(tmp_path):
    import scipy.sparse as sp

    t0 = time.time()
    rng = np.random.default_rng(707)
    n, d_dense, d_sparse = 500, 10, 50_000
    y = np.concatenate([-np.ones(n // 2, int), np.ones(n // 2, int)])
    X = rng.standard_normal((n, d_dense)) + y[:, None] * 0.8
    Xstar = sp.random(
        n, d_sparse, density=0.004, random_state=7, format="csr", dtype=float
    )
    Xstar = Xstar + sp.csr_matrix(
        (np.full(n, 2.0), (np.arange(n), np.where(y > 0, 17, 23))),
        shape=(n, d_sparse),
    )

    # loader round-trips at the drug-data shape
    write_feature_file(tmp_path / "x.csv", X, "dense-csv")
    write_feature_file(tmp_path / "xstar.txt", Xstar, "sparse-index-value")
    X_loaded = load_feature_file(tmp_path / "x.csv", "dense-csv")
    Xstar_loaded = load_feature_file(tmp_path / "xstar.txt", "sparse-index-value")
    loaders_ok = (
        float(np.max(np.abs(X_loaded - X))) <= 1e-12
        and Xstar_loaded.shape == (n, d_sparse)
        and (Xstar_loaded != Xstar).nnz == 0
    )

    # kernel invariants on the sparse privileged space
    spec = KernelSpec(gamma=1e-4)
    K = gram_matrix(Xstar_loaded, Xstar_loaded, spec)
    kernel_ok = (
        float(np.max(np.abs(K - K.T))) <= 1e-12
        and float(np.max(np.abs(np.diag(K) - 1.0))) <= 1e-12
        and np.all(K >= 0.0) and np.all(K <= 1.0)
    )

    # split/fold partition invariants at this scale
    plan = stratified_split(y, 0.8, seed=1)
    folds = kfold_indices(n, 5, y, seed=1)
    merged = np.sort(np.concatenate([plan.first, plan.second]))
    split_ok = np.array_equal(merged, np.arange(n)) and all(
        np.intersect1d(tr, va).size == 0 for tr, va in folds
    )

    # both trainers satisfy their dual feasibility / KKT contracts
    svm_dense = svm_train(X, y, SvmConfig(C=1.0, kernel=KernelSpec(0.1)))
    svm_sparse = svm_train(Xstar_loaded, y, SvmConfig(C=1.0, kernel=spec))
    plus = svmplus_train(
        X, Xstar_loaded, y,
        SvmPlusConfig(1.0, 0.1, KernelSpec(0.1), spec),
    )
    train_ok = (
        svm_dense.kkt_residual <= 1e-6
        and svm_sparse.kkt_residual <= 1e-6
        and plus.kkt_residual <= 1e-6
        and abs(float(np.sum(plus.alpha * y))) <= 1e-6
        and abs(float(np.sum(plus.deltas))) <= 1e-6
        and abs(float(np.sum(svm_dense.weights))) <= 1e-6
    )

    # conformal metrics stay well-defined on these models
    from lupicp.conformal import calibrate, observed_fuzziness, pairs_from_decision_values, validity_deviation

    table = calibrate(plus, X, y)
    pairs = pairs_from_decision_values(table, plus.decision_values(X))
    vd = validity_deviation(pairs, y, default_epsilon_grid())
    conformal_ok = (
        0.0 <= observed_fuzziness(pairs, y) <= 2.0
        and vd.pooled >= 0.0
    )

    elapsed = time.time() - t0
    gate(
        "criterion 7 (drug-shaped synthetic invariants, 500 x 10 + 50k sparse)",
        loaders_ok and kernel_ok and split_ok and train_ok and conformal_ok
        and elapsed < 600,
        f"loaders={loaders_ok} kernel={kernel_ok} split={split_ok} "
        f"train={train_ok} conformal={conformal_ok}, {elapsed:.0f}s (limit 600s)",
    )


def test_criterion_7_table1_shapes_when_files_supplied():
    specs = {
        "AHR": (6299, 10, 55725),
        "Hansen": (6509, 10, 48325),
        "MMP": (5647, 10, 49764),
    }
    root = os.environ.get("LUPICP_DRUG_DIR")
    if not root:
        pytest.skip(
            "drug feature files not available; set LUPICP_DRUG_DIR to a directory "
            "with <name>_physchem.csv and <name>_fingerprints.txt per dataset"
        )
    checked = []
    for name, (rows, d_x, d_star) in specs.items():
        dense = Path(root) / f"{name.lower()}_physchem.csv"
        sparse = Path(root) / f"{name.lower()}_fingerprints.txt"
        if not dense.exists() or not sparse.exists():
            continue
        X = load_feature_file(dense, "dense-csv")
        Xstar = load_feature_file(sparse, "sparse-index-value")
        assert X.shape == (rows, d_x), f"{name}: {X.shape}"
        assert Xstar.shape == (rows, d_star), f"{name}: {Xstar.shape}"
        checked.append(name)
    gate(
        "criterion 7b (Table-1 shapes of supplied drug files)",
        bool(checked),
        f"validated: {', '.join(checked) or 'none'}",
    )


def test_criterion_8_experiment_determinism(tmp_path):
    X, Xstar, y = triplet_blobs(60, seed=88)
    write_feature_file(tmp_path / "x.csv", X)
    write_feature_file(tmp_path / "xstar.csv", Xstar)
    write_labels(tmp_path / "y.txt", y)

    def run():
        cfg = ExperimentConfig(
            dataset=DatasetConfig(
                kind="triplet-files",
                x_path=str(tmp_path / "x.csv"),
                xstar_path=str(tmp_path / "xstar.csv"),
                labels_path=str(tmp_path / "y.txt"),
            ),
            seed=17,
            repetitions=3,
            cv_folds=2,
            grid_svm_x=GridSpec((1.0, 10.0), (0.5,)),
            grid_svm_xstar=GridSpec((1.0,), (0.25,)),
            grid_svmplus=GridSpec((1.0,), (0.1,)),
        )
        payload = asdict(run_experiment(cfg))
        payload.pop("timings")
        return json.dumps(payload, sort_keys=True).encode()

    first, second = run(), run()
    gate(
        "criterion 8 (byte-identical non-timing report fields)",
        first == second,
        f"{len(first)} bytes compared",
    )
