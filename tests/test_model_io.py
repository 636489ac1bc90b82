import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lupicp.conformal import CalibrationTable, calibrate
from lupicp.dataio import DataFormatError
from lupicp.kernels import KernelSpec
from lupicp.model_io import (
    load_calibration,
    load_model,
    save_calibration,
    save_model,
)
from lupicp.decision import DecisionModel
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


def test_csc_support_rows_round_trip(tmp_path):
    X = sp.random(16, 30, density=0.2, random_state=3, format="csc")
    model = svm_train(X, np.array([-1, 1] * 8), SvmConfig(C=1.0, kernel=KernelSpec(0.1)))
    path = tmp_path / "model.txt"
    save_model(path, model)
    loaded = load_model(path)
    assert (loaded.support_vectors != model.support_vectors).nnz == 0


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
    assert loaded.count(-1) == 0
    assert loaded.count(1) == 2


def test_bad_headers_rejected(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a model\n")
    with pytest.raises(DataFormatError):
        load_model(path)
    with pytest.raises(DataFormatError):
        load_calibration(path)


def test_truncated_model_rejected(tmp_path):
    X, y = two_blobs(20, seed=6)
    model = svm_train(X, y, SvmConfig(C=1.0, kernel=KernelSpec(0.5)))
    path = tmp_path / "model.txt"
    save_model(path, model)
    lines = path.read_text().splitlines()
    (tmp_path / "cut.txt").write_text("\n".join(lines[:6]) + "\n")
    # the error names the line after the last one
    with pytest.raises(DataFormatError, match=r"cut\.txt:7: file ends"):
        load_model(tmp_path / "cut.txt")


def test_block_count_past_the_end_of_file_rejected(tmp_path):
    # a count far beyond the rows in the file is a format error, not an
    # allocation of that many rows
    path = tmp_path / "model.txt"
    path.write_text("lupicp-model v1\ntype svm\nkernel rbf 0.5\nbias 0.0\n"
                    "support 1000000000000 3 dense\n1.0 1.0 2.0 3.0\n")
    with pytest.raises(DataFormatError, match=r"model\.txt:7: file ends"):
        load_model(path)


def test_negative_calibration_count_rejected(tmp_path):
    path = tmp_path / "cal.txt"
    path.write_text("lupicp-calibration v1\nclass -1 -2\nclass +1 1\n0.5\n")
    with pytest.raises(DataFormatError, match=f"{path}:2:"):
        load_calibration(path)


def test_sparse_index_overflow_rejected(tmp_path):
    X = sp.random(16, 30, density=0.2, random_state=3, format="csr")
    model = svm_train(X, np.array([-1, 1] * 8), SvmConfig(C=1.0, kernel=KernelSpec(0.1)))
    path = tmp_path / "model.txt"
    save_model(path, model)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].split()[0] + " " + "9" * 30 + ":1.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError):
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


def _svmplus_model_lines(directory, sparse_support):
    X, Xstar, y = triplet_blobs(14, seed=1, dim=3, star_dim=5)
    model = svmplus_train(
        sp.csr_matrix(X) if sparse_support else X, sp.csr_matrix(Xstar), y,
        SvmPlusConfig(1.0, 0.5, KernelSpec(0.5), KernelSpec(0.25)),
    )
    path = directory / "model.txt"
    save_model(path, model)
    return path.read_text().splitlines()


@pytest.fixture(scope="module")
def svmplus_model_lines(tmp_path_factory):
    """The lines of an SVM+ model file with dense support and sparse
    correcting rows."""
    return _svmplus_model_lines(tmp_path_factory.mktemp("model"), sparse_support=False)


@pytest.fixture(scope="module")
def sparse_svmplus_model_lines(tmp_path_factory):
    """The lines of an SVM+ model file with sparse support and correcting
    rows."""
    return _svmplus_model_lines(tmp_path_factory.mktemp("model"), sparse_support=True)


def _line_of(lines, keyword):
    """The 0-based position of the line that starts with ``keyword``."""
    return next(i for i, line in enumerate(lines) if line.split(" ")[0] == keyword)


def _assert_rejected_at(path, lines, at):
    """``lines`` written to ``path`` fail to load, naming line ``at + 1``."""
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=f"{re.escape(str(path))}:{at + 1}:"):
        load_model(path)


@pytest.mark.parametrize("field", sorted(NON_FINITE))
def test_non_finite_model_value_rejected(tmp_path, svmplus_model_lines, field):
    keyword, damage = NON_FINITE[field]
    lines = list(svmplus_model_lines)
    at = _line_of(lines, keyword)
    if keyword in ("support", "correcting"):
        at += 1  # the block's first row
    lines[at] = damage(lines[at])
    _assert_rejected_at(tmp_path / "model.txt", lines, at)


@pytest.mark.parametrize("keyword", ["kernel", "correcting_kernel"])
def test_unsupported_kernel_family_rejected(tmp_path, svmplus_model_lines, keyword):
    lines = list(svmplus_model_lines)
    at = _line_of(lines, keyword)
    assert keyword != "kernel" or at + 1 == 3
    lines[at] = _damage_field(lines[at], 1, "poly")
    _assert_rejected_at(tmp_path / "model.txt", lines, at)


def _row_indices(line):
    return [int(token.partition(":")[0]) for token in line.split(" ")[1:]]


def _with_indices(line, indices):
    coefficient, *pairs = line.split(" ")
    return " ".join(
        [coefficient]
        + [f"{j}:{pair.partition(':')[2]}" for j, pair in zip(indices, pairs)]
    )


# damage -> the row's new indices, given its indices and the block's d
INDEX_DAMAGE = {
    "index past the last column": lambda idx, dim: idx[:-1] + [dim],
    "negative index": lambda idx, dim: [-1] + idx[1:],
    "repeated index": lambda idx, dim: [idx[0], idx[0]] + idx[2:],
    "decreasing indices": lambda idx, dim: [idx[1], idx[0]] + idx[2:],
}
BAD_SPARSE_BLOCKS = [
    *((block, damage) for block in ("support", "correcting") for damage in INDEX_DAMAGE),
    ("support", "unknown layout"),
]


@pytest.mark.parametrize("block, damage", BAD_SPARSE_BLOCKS)
def test_bad_sparse_block_rejected(tmp_path, sparse_svmplus_model_lines, block, damage):
    lines = list(sparse_svmplus_model_lines)
    at = _line_of(lines, block)
    if damage == "unknown layout":
        lines[at] = _damage_field(lines[at], 3, "sparsish")
    else:
        dim = int(lines[at].split(" ")[2])
        at += 2  # the block's second row
        indices = _row_indices(lines[at])
        assert len(indices) >= 2
        lines[at] = _with_indices(lines[at], INDEX_DAMAGE[damage](indices, dim))
    _assert_rejected_at(tmp_path / "model.txt", lines, at)


def test_non_ascii_correcting_row_names_its_line(tmp_path, svmplus_model_lines):
    lines = [line.encode("ascii") for line in svmplus_model_lines]
    at = len(lines) - 2  # a correcting row near the end of the file
    lines[at] += b"\xe9"
    path = tmp_path / "model.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DataFormatError, match=rf"model\.txt:{at + 1}: non-ASCII byte 0xe9"):
        load_model(path)


def test_non_ascii_calibration_byte_names_its_line(tmp_path):
    # far past the first 8 KB, where a text-mode decoder reads ahead
    scores = [b"0.123456789"] * 1000
    lines = [b"lupicp-calibration v1", b"class -1 1000", *scores, b"class +1 1000", *scores]
    assert len(lines) == 2003
    lines[1500] = b"0.12345678\xe9"
    path = tmp_path / "cal.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DataFormatError, match=r"cal\.txt:1501: non-ASCII byte 0xe9"):
        load_calibration(path)


@st.composite
def sparse_support(draw):
    """A random CSR support matrix with sorted, in-range row indices."""
    dim = draw(st.integers(1, 8))
    rows = draw(st.lists(st.sets(st.integers(0, dim - 1), max_size=dim),
                         min_size=1, max_size=6))
    indices = [j for row in rows for j in sorted(row)]
    data = [draw(st.floats(-1e3, 1e3)) for _ in indices]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return sp.csr_matrix((data, indices, indptr), shape=(len(rows), dim))


def _written_pairs(line):
    return [(int(j), float(v)) for j, _, v in
            (token.partition(":") for token in line.split(" ")[1:])]


@settings(max_examples=200, deadline=None)
@given(support=sparse_support(), data=st.data())
def test_damaged_sparse_index_fails_on_its_line_or_loads_as_written(
    tmp_path_factory, support, data
):
    n, dim = support.shape
    filled = [i for i in range(n) if support.indptr[i + 1] > support.indptr[i]]
    assume(filled)
    row = data.draw(st.sampled_from(filled))
    position = data.draw(st.integers(support.indptr[row], support.indptr[row + 1] - 1))
    support.indices[position] = data.draw(st.integers(-2, dim + 1))
    path = tmp_path_factory.getbasetemp() / "damaged-index.txt"
    save_model(path, DecisionModel(support_vectors=support, weights=np.ones(n),
                                   bias=0.0, kernel=KernelSpec(0.5)))
    lines = path.read_text().splitlines()
    first = _line_of(lines, "support") + 1
    written = [_written_pairs(line) for line in lines[first:]]
    damaged = [j for j, _ in written[row]]
    if not (all(0 <= j < dim for j in damaged) and damaged == sorted(set(damaged))):
        _assert_rejected_at(path, lines, first + row)
        return
    loaded = load_model(path).support_vectors
    for i, pairs in enumerate(written):
        span = slice(loaded.indptr[i], loaded.indptr[i + 1])
        assert list(zip(loaded.indices[span].tolist(), loaded.data[span].tolist())) == pairs


@pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
def test_non_finite_calibration_score_rejected(tmp_path, score):
    path = tmp_path / "cal.txt"
    path.write_text(f"lupicp-calibration v1\nclass -1 2\n0.5\n{score}\nclass +1 0\n")
    with pytest.raises(DataFormatError, match=f"{re.escape(str(path))}:4:"):
        load_calibration(path)
