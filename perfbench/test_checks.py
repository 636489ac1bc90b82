"""The benchmark's own tests: each output check accepts what ``lupicp``
writes and rejects a corrupted copy.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import inputs  # noqa: E402
from layers import per_layer_metrics  # noqa: E402
from lupicp.cli import main as lupicp_main  # noqa: E402


def _triplet_files(tmp_path, X, Xstar, y, xstar_format):
    inputs.write_dense_csv(tmp_path / "x.csv", X)
    if xstar_format == "dense-csv":
        inputs.write_dense_csv(tmp_path / "xstar.txt", Xstar)
    else:
        inputs.write_sparse_bits(tmp_path / "xstar.txt", Xstar)
    inputs.write_labels(tmp_path / "labels.txt", y)
    inputs.write_config(tmp_path / "config.json", tmp_path / "x.csv",
                        tmp_path / "xstar.txt", tmp_path / "labels.txt",
                        xstar_format, seed=7, repetitions=1)


def _train(tmp_path, C, gamma_plus, gamma1, gamma2):
    code = lupicp_main([
        "train", "--config", str(tmp_path / "config.json"), "--model", "svm-plus",
        "--cost", str(C), "--gamma-plus", str(gamma_plus), "--gamma1", str(gamma1),
        "--gamma2", str(gamma2), "--out", str(tmp_path / "model.txt"),
        "--calibration-out", str(tmp_path / "calibration.txt"),
    ])
    assert code == 0
    return (checks.read_model(tmp_path / "model.txt"),
            checks.read_calibration(tmp_path / "calibration.txt"))


@pytest.fixture
def predicted(tmp_path):
    rng = np.random.default_rng(3)
    _triplet_files(tmp_path, *inputs.study_triplets(400, rng), "dense-csv")
    model, calibration = _train(tmp_path, 1.0, 0.1, 1e-3, 1e-3)
    rows, truth = inputs.study_rows(3000, rng)
    inputs.write_dense_csv(tmp_path / "rows.csv", rows)
    out = tmp_path / "predictions.tsv"
    assert lupicp_main(["predict", "--model", str(tmp_path / "model.txt"),
                        "--calibration", str(tmp_path / "calibration.txt"),
                        "--input", str(tmp_path / "rows.csv"), "--epsilon", "0.05",
                        "--out", str(out)]) == 0
    return out, model, calibration, rows, truth


def _rewrite_line(path, index, edit):
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index].split("\t"))
    path.write_text("\n".join(lines) + "\n")


def test_predictions_check_accepts_program_output(predicted):
    out, model, calibration, rows, truth = predicted
    checks.check_predictions(out, model, calibration, rows, truth, 0.05)


def test_predictions_check_rejects_shifted_pvalue(predicted):
    out, model, calibration, rows, truth = predicted
    _rewrite_line(out, 5, lambda f: "\t".join([f"{float(f[0]) + 0.01:.6f}", *f[1:]]))
    with pytest.raises(checks.CheckFailed, match="disagree"):
        checks.check_predictions(out, model, calibration, rows, truth, 0.05)


def test_predictions_check_rejects_flipped_region(predicted):
    out, model, calibration, rows, truth = predicted
    flipped = {"-1,+1": "+1", "+1": "-1", "-1": "+1", "": "-1,+1"}
    _rewrite_line(out, 7, lambda f: "\t".join([f[0], f[1], flipped[f[2]]]))
    with pytest.raises(checks.CheckFailed, match="region"):
        checks.check_predictions(out, model, calibration, rows, truth, 0.05)


@pytest.fixture
def fitted(tmp_path):
    X, bits, y = inputs.drug_triplets(300, np.random.default_rng(5))
    _triplet_files(tmp_path, X, bits, y, "sparse-index-value")
    model, calibration = _train(tmp_path, 1.0, 1.0, 0.05, 0.01)
    counts = {c: int(np.sum(y == c)) for c in checks.LABELS}
    sizes = {c: s[3] for c, s in checks.split_sizes(counts, 0.8, 0.7).items()}
    return model, calibration, X, y, sizes


def test_fit_check_accepts_program_output(fitted):
    checks.check_svmplus_fit(*fitted[:4], 1.0, fitted[4])


def test_fit_check_rejects_perturbed_delta(fitted):
    model, calibration, X, y, sizes = fitted
    model["deltas"][3] += 1e-3
    with pytest.raises(checks.CheckFailed, match="deltas"):
        checks.check_svmplus_fit(model, calibration, X, y, 1.0, sizes)


def test_fit_check_rejects_moved_calibration_score(fitted):
    model, calibration, X, y, sizes = fitted
    calibration[1][0] += 1e-4
    with pytest.raises(checks.CheckFailed, match="calibration score"):
        checks.check_svmplus_fit(model, calibration, X, y, 1.0, sizes)


def test_split_sizes_match_program_splits():
    from lupicp.selection import stratified_split

    for counts in ({-1: 400, 1: 400}, {-1: 37, 1: 64}, {-1: 1101, 1: 1099}):
        y = np.concatenate([np.full(n, c) for c, n in counts.items()])
        outer = stratified_split(y, 0.8, seed=1)
        inner = stratified_split(y[outer.first], 0.7, seed=2)
        cal = y[outer.first][inner.second]
        expected = checks.split_sizes(counts, 0.8, 0.7)
        assert {c: int(np.sum(cal == c)) for c in counts} == {
            c: s[3] for c, s in expected.items()}
        assert {c: int(np.sum(y[outer.second] == c)) for c in counts} == {
            c: s[1] for c, s in expected.items()}


def _study_report(accuracy, C=1.0):
    rep = {"accuracy": accuracy, "validity_deviation": 0.05, "observed_fuzziness": 0.1}
    grid = {"C": C, "gamma": 1e-3, "cv_accuracy": 0.8}
    return {
        "counts": {"total": 800, "train": 640, "test": 160},
        "per_model": {k: {"per_repetition": [rep]} for k in ("svm_x", "svm_xstar", "svmplus")},
        "selected_parameters": {
            "svm_x": grid, "svm_xstar": grid,
            "svmplus": {"C": C, "gamma_plus": 1e-4, "gamma1": 1e-3, "gamma2": 1e-3},
        },
    }


def test_study_check():
    config = {"repetitions": 1, "epsilon_grid": [0.01 * k for k in range(1, 100)],
              "grids": {"svm_x": {"C": [1.0], "gamma": [1e-3]},
                        "svm_xstar": {"C": [1.0], "gamma": [1e-3]},
                        "svmplus": {"C": [1.0], "gamma_plus": [1e-4]}}}
    sizes = checks.split_sizes({-1: 400, 1: 400}, 0.8, 0.7)
    bayes = {k: inputs.bayes_accuracy(2.0) for k in ("svm_x", "svm_xstar", "svmplus")}
    checks.check_study(_study_report(0.82), config, sizes, bayes)
    with pytest.raises(checks.CheckFailed, match="accuracy"):
        checks.check_study(_study_report(0.99), config, sizes, bayes)
    with pytest.raises(checks.CheckFailed, match="accuracy"):
        checks.check_study(_study_report(0.55), config, sizes, bayes)
    with pytest.raises(checks.CheckFailed, match="grid"):
        checks.check_study(_study_report(0.82, C=3.0), config, sizes, bayes)


def test_tracer_spans_one_fit(tmp_path):
    _triplet_files(tmp_path, *inputs.study_triplets(200, np.random.default_rng(1)),
                   "dense-csv")
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, str(HERE / "tracer.py"), str(spans), "train",
                    "--config", "config.json", "--model", "svm-plus", "--cost", "1",
                    "--gamma-plus", "0.1", "--gamma1", "0.001", "--gamma2", "0.001",
                    "--out", "model.txt", "--calibration-out", "calibration.txt"],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    metrics = per_layer_metrics(json.loads(spans.read_text()))
    assert metrics["qp.solves"] == metrics["svmplus.train_calls"] == 1
    assert metrics["qp.cho_factor_calls"] >= metrics["qp.iterations"] > 0
    assert metrics["dataio.rows_read"] == 3 * 200
    assert metrics["selection.cells"] == 0
    assert metrics["cli.self_s"] > 0
