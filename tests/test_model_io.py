import re

import numpy as np
import pytest
import scipy.sparse as sp

from lupicp.conformal import CalibrationTable, calibrate
from lupicp.kernels import KernelSpec
from lupicp.model_io import (
    ModelFormatError,
    load_calibration,
    load_model,
    save_calibration,
    save_model,
)
from lupicp.svm import SvmConfig, svm_train
from lupicp.svmplus import SvmPlusConfig, svmplus_train
from conftest import triplet_blobs, two_blobs


def test_svm_model_round_trip(tmp_path):
    X, y = two_blobs(20, seed=0)
    model = svm_train(X, y, SvmConfig(C=1.5, kernel=KernelSpec(0.4)))
    path = tmp_path / "model.txt"
    save_model(path, model)
    loaded = load_model(path)
    probe = np.random.default_rng(0).standard_normal((12, 2))
    assert np.max(np.abs(loaded.decision_values(probe) - model.decision_values(probe))) == 0.0
    assert loaded.kernel == model.kernel
    assert loaded.bias == model.bias


def test_svmplus_model_round_trip(tmp_path):
    X, Xstar, y = triplet_blobs(14, seed=1, dim=3, star_dim=5)
    model = svmplus_train(
        X, Xstar, y,
        SvmPlusConfig(1.0, 0.5, KernelSpec(0.5), KernelSpec(0.25)),
    )
    path = tmp_path / "model.txt"
    save_model(path, model)
    loaded = load_model(path)
    probe = np.random.default_rng(1).standard_normal((9, 3))
    assert np.max(np.abs(loaded.decision_values(probe) - model.decision_values(probe))) == 0.0
    probe_star = np.random.default_rng(2).standard_normal((9, 5))
    assert np.max(
        np.abs(loaded.correcting_values(probe_star) - model.correcting_values(probe_star))
    ) == 0.0


def test_sparse_support_rows_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    X = sp.random(16, 30, density=0.2, random_state=3, format="csr")
    y = np.array([-1, 1] * 8)
    model = svm_train(X, y, SvmConfig(C=1.0, kernel=KernelSpec(0.1)))
    path = tmp_path / "model.txt"
    save_model(path, model)
    loaded = load_model(path)
    probe = sp.random(5, 30, density=0.2, random_state=4, format="csr")
    assert np.max(np.abs(loaded.decision_values(probe) - model.decision_values(probe))) == 0.0


def test_calibration_round_trip(tmp_path):
    X, y = two_blobs(30, seed=5)
    model = svm_train(X, y, SvmConfig(C=1.0, kernel=KernelSpec(0.5)))
    table = calibrate(model, X, y)
    path = tmp_path / "cal.txt"
    save_calibration(path, table)
    loaded = load_calibration(path)
    for label in (-1, 1):
        assert np.array_equal(
            loaded.scores_by_class[label], table.scores_by_class[label]
        )


def test_empty_class_calibration_round_trip(tmp_path):
    table = CalibrationTable(scores_by_class={1: [0.5, 1.0]})
    path = tmp_path / "cal.txt"
    save_calibration(path, table)
    loaded = load_calibration(path)
    assert loaded.is_vacuous(-1)
    assert loaded.count(1) == 2


def test_bad_headers_rejected(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a model\n")
    with pytest.raises(ModelFormatError):
        load_model(path)
    with pytest.raises(ModelFormatError):
        load_calibration(path)


def test_truncated_model_rejected(tmp_path):
    X, y = two_blobs(20, seed=6)
    model = svm_train(X, y, SvmConfig(C=1.0, kernel=KernelSpec(0.5)))
    path = tmp_path / "model.txt"
    save_model(path, model)
    lines = path.read_text().splitlines()
    (tmp_path / "cut.txt").write_text("\n".join(lines[:6]) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "cut.txt")


def test_negative_calibration_count_rejected(tmp_path):
    path = tmp_path / "cal.txt"
    path.write_text("lupicp-calibration v1\nclass -1 -2\nclass +1 1\n0.5\n")
    with pytest.raises(ModelFormatError, match=f"{path}:2:"):
        load_calibration(path)


def test_sparse_index_overflow_rejected(tmp_path):
    X = sp.random(16, 30, density=0.2, random_state=3, format="csr")
    model = svm_train(X, np.array([-1, 1] * 8), SvmConfig(C=1.0, kernel=KernelSpec(0.1)))
    path = tmp_path / "model.txt"
    save_model(path, model)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].split()[0] + " " + "9" * 30 + ":1.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(path)


def _damage_field(line, position, text):
    fields = line.split(" ")
    fields[position] = text
    return " ".join(fields)


def _damage_sparse_value(line, text):
    coefficient, first, *rest = line.split(" ")
    index, _, _ = first.partition(":")
    return " ".join([coefficient, f"{index}:{text}", *rest])


# field -> (keyword of the damaged line, or of the block whose first row
# is damaged; the damage)
NON_FINITE = {
    "kernel gamma": ("kernel", lambda line: _damage_field(line, 2, "inf")),
    "bias": ("bias", lambda line: _damage_field(line, 1, "nan")),
    "support coefficient": ("support", lambda line: _damage_field(line, 0, "-inf")),
    "support value": ("support", lambda line: _damage_field(line, 2, "inf")),
    "correcting kernel gamma": (
        "correcting_kernel", lambda line: _damage_field(line, 2, "nan")),
    "gamma_plus": ("gamma_plus", lambda line: _damage_field(line, 1, "inf")),
    "bias_star": ("bias_star", lambda line: _damage_field(line, 1, "-inf")),
    "correcting coefficient": ("correcting", lambda line: _damage_field(line, 0, "nan")),
    "correcting sparse value": ("correcting", lambda line: _damage_sparse_value(line, "inf")),
}


@pytest.fixture(scope="module")
def svmplus_model_lines(tmp_path_factory):
    """The lines of an SVM+ model file with dense support and sparse
    correcting rows."""
    X, Xstar, y = triplet_blobs(14, seed=1, dim=3, star_dim=5)
    model = svmplus_train(
        X, sp.csr_matrix(Xstar), y,
        SvmPlusConfig(1.0, 0.5, KernelSpec(0.5), KernelSpec(0.25)),
    )
    path = tmp_path_factory.mktemp("model") / "model.txt"
    save_model(path, model)
    return path.read_text().splitlines()


@pytest.mark.parametrize("field", sorted(NON_FINITE))
def test_non_finite_model_value_rejected(tmp_path, svmplus_model_lines, field):
    keyword, damage = NON_FINITE[field]
    lines = list(svmplus_model_lines)
    at = next(i for i, line in enumerate(lines) if line.split(" ")[0] == keyword)
    if keyword in ("support", "correcting"):
        at += 1  # the block's first row
    lines[at] = damage(lines[at])
    path = tmp_path / "model.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ModelFormatError, match=f"{re.escape(str(path))}:{at + 1}:"):
        load_model(path)


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_non_finite_calibration_score_rejected(tmp_path, score):
    path = tmp_path / "cal.txt"
    path.write_text(f"lupicp-calibration v1\nclass -1 2\n0.5\n{score}\nclass +1 0\n")
    with pytest.raises(ModelFormatError, match=f"{re.escape(str(path))}:4:"):
        load_calibration(path)
