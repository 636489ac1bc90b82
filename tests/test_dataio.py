import logging
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lupicp.dataio import (
    DataFormatError,
    area_downscale,
    assemble_triplet,
    load_feature_file,
    load_labels,
    load_mnist_5v8,
    read_idx_images,
    read_idx_labels,
    write_feature_file,
    write_idx_images,
    write_idx_labels,
    write_labels,
)
from oracles import load_dense_csv_lines


def synthetic_mnist(tmp_path, digits, n_per=6, seed=0):
    """Write a small IDX pair with the requested digit labels."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(digits, n_per)
    images = rng.integers(0, 256, size=(labels.shape[0], 28, 28), dtype=np.uint8)
    img_path = tmp_path / "images-idx3-ubyte"
    lab_path = tmp_path / "labels-idx1-ubyte"
    write_idx_images(img_path, images)
    write_idx_labels(lab_path, labels)
    return img_path, lab_path, images, labels


def test_idx_round_trip(tmp_path):
    img_path, lab_path, images, labels = synthetic_mnist(tmp_path, [1, 5, 8])
    assert np.array_equal(read_idx_images(img_path), images)
    assert np.array_equal(read_idx_labels(lab_path), labels)


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"\x00\x00\x00\x00" + b"\x00" * 12)
    with pytest.raises(DataFormatError):
        read_idx_images(path)
    with pytest.raises(DataFormatError):
        read_idx_labels(path)


def test_idx_truncated(tmp_path):
    img_path, _, _, _ = synthetic_mnist(tmp_path, [5, 8])
    data = img_path.read_bytes()
    (tmp_path / "cut").write_bytes(data[: len(data) // 2])
    with pytest.raises(DataFormatError):
        read_idx_images(tmp_path / "cut")


def test_mnist_5v8_filtering_and_dimensions(tmp_path):
    img_path, lab_path, _, labels = synthetic_mnist(tmp_path, [0, 5, 8, 3, 9])
    data = load_mnist_5v8(img_path, lab_path)
    expected = int(np.sum(np.isin(labels, [5, 8])))
    assert data.n == expected
    assert data.X.shape == (expected, 64)
    assert data.Xstar.shape == (expected, 784)
    assert set(np.unique(data.y)) == {-1, 1}
    assert np.all((data.Xstar >= 0.0) & (data.Xstar <= 1.0))


def test_mnist_label_mapping_and_cap(tmp_path):
    img_path, lab_path, _, labels = synthetic_mnist(tmp_path, [5, 8], n_per=8)
    data = load_mnist_5v8(img_path, lab_path, limit=10)
    assert data.n == 10
    kept = labels[np.isin(labels, [5, 8])][:10]  # first occurrences in file order
    assert np.array_equal(data.y, np.where(kept == 8, 1, -1))


def test_mnist_missing_digit(tmp_path):
    img_path, lab_path, _, _ = synthetic_mnist(tmp_path, [5, 3])
    with pytest.raises(ValueError):
        load_mnist_5v8(img_path, lab_path)


def test_downscale_preserves_constant_images():
    images = np.full((3, 28, 28), 0.625)
    out = area_downscale(images)
    assert out.shape == (3, 8, 8)
    assert np.max(np.abs(out - 0.625)) < 1e-12


def test_downscale_preserves_mean():
    rng = np.random.default_rng(1)
    images = rng.random((5, 28, 28))
    out = area_downscale(images)
    assert np.max(np.abs(out.mean(axis=(1, 2)) - images.mean(axis=(1, 2)))) < 1e-6


def test_dense_csv_basic(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    X = load_feature_file(path, "dense-csv")
    assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])


def test_dense_csv_header_flag(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(DataFormatError):
        load_feature_file(path, "dense-csv")
    X = load_feature_file(path, "dense-csv", skip_header=True)
    assert X.shape == (1, 2)


def test_dense_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DataFormatError, match="m.csv:2"):
        load_feature_file(path, "dense-csv")
    path.write_text("1.0,2.0\n3.0,zap\n")
    with pytest.raises(DataFormatError, match="m.csv:2"):
        load_feature_file(path, "dense-csv")


def _outcome(load, *args, **kwargs):
    """What ``load`` returns, or the message of its DataFormatError."""
    try:
        return load(*args, **kwargs)
    except DataFormatError as exc:
        return str(exc)


def _assert_parses_like_line_loop(path, skip_header):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(load_feature_file, path, "dense-csv", skip_header=skip_header)
    assert [str(w.message) for w in caught] == []
    expected = _outcome(load_dense_csv_lines, path, skip_header)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)


CSV_ALPHABET = "0123456789+-.eE,_\"#; \t\r\nnaifty"
CSV_FIELD = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1_0", "-Infinity", "NaN", ".5", "5.", " 2 ", "\t3"]),
    st.text(CSV_ALPHABET, max_size=5),
)
CSV_ROWS = st.integers(1, 3).flatmap(
    lambda width: st.lists(
        st.one_of(
            st.lists(CSV_FIELD, min_size=width, max_size=width).map(",".join),
            st.sampled_from(["", " ", "\t \t", "1,2", "a,b"]),
        ),
        max_size=6,
    )
)
CSV_TEXT = st.one_of(
    st.text(CSV_ALPHABET, max_size=40),
    st.tuples(CSV_ROWS, st.sampled_from(["\n", "\r\n", "\r"]), st.booleans()).map(
        lambda t: t[1].join(t[0]) + (t[1] if t[2] else "")
    ),
)


@settings(max_examples=300, deadline=None)
@given(text=CSV_TEXT, skip_header=st.booleans())
def test_dense_csv_parses_like_the_line_loop(tmp_path_factory, text, skip_header):
    path = tmp_path_factory.getbasetemp() / "parse-equivalence.csv"
    path.write_bytes(text.encode("ascii"))
    _assert_parses_like_line_loop(path, skip_header)


@pytest.mark.parametrize("text", [
    "", "\n\n\n", "\r\n \r\n", "1,2\n  \t \n3,4\n", "   \n", "1_0,2\n\n3,4\n",
    "a,b\n", "a,b\n\n", "1,2\n3\n",
])
@pytest.mark.parametrize("skip_header", [False, True])
def test_dense_csv_edge_cases_parse_like_the_line_loop(tmp_path, text, skip_header):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("ascii"))
    _assert_parses_like_line_loop(path, skip_header)


def test_non_ascii_byte_names_its_line(tmp_path):
    # far past the first 8 KB, where a text-mode decoder reads ahead
    lines = [b"0.125,0.25"] * 1500
    lines[1199] = b"0.125,0.2\xe9"
    path = tmp_path / "m.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DataFormatError, match=r"m\.csv:1200: non-ASCII byte 0xe9"):
        load_feature_file(path)


def test_sparse_expansion(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("#dim 11\n3:1.5 10:2.0\n")
    X = load_feature_file(path, "sparse-index-value")
    assert X.shape == (1, 11)
    dense = X.toarray()[0]
    assert dense[3] == 1.5 and dense[10] == 2.0
    assert np.sum(dense == 0.0) == 9


def test_sparse_format_errors(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("3:1.5\n")
    with pytest.raises(DataFormatError, match=":1"):
        load_feature_file(path, "sparse-index-value")
    path.write_text("#dim 5\n3:1.5 2:1.0\n")
    with pytest.raises(DataFormatError, match="strictly increasing"):
        load_feature_file(path, "sparse-index-value")
    path.write_text("#dim 5\n7:1.5\n")
    with pytest.raises(DataFormatError, match="outside"):
        load_feature_file(path, "sparse-index-value")
    path.write_text("#dim 5\nnope\n")
    with pytest.raises(DataFormatError, match=":2"):
        load_feature_file(path, "sparse-index-value")


def test_dense_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    X = rng.standard_normal((7, 5)) * 1e3
    path = tmp_path / "dense.csv"
    write_feature_file(path, X, "dense-csv")
    assert np.max(np.abs(load_feature_file(path, "dense-csv") - X)) <= 1e-12


def test_sparse_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    X = sp.random(9, 50, density=0.1, random_state=4, format="csr")
    path = tmp_path / "sparse.txt"
    write_feature_file(path, X, "sparse-index-value")
    loaded = load_feature_file(path, "sparse-index-value")
    assert loaded.shape == X.shape
    assert (loaded != X).nnz == 0  # exact


def test_labels_basic(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("-1\n1\n1\n")
    assert np.array_equal(load_labels(path), [-1, 1, 1])


def test_labels_zero_one_mapping(tmp_path, caplog):
    path = tmp_path / "y.txt"
    path.write_text("0\n1\n")
    with caplog.at_level(logging.INFO, logger="lupicp.dataio"):
        y = load_labels(path)
    assert np.array_equal(y, [-1, 1])
    assert any("mapping" in record.message for record in caplog.records)


def test_labels_reject_other_values(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("-1\n2\n")
    with pytest.raises(DataFormatError, match=":2"):
        load_labels(path)
    path.write_text("-1\n0\n1\n")
    with pytest.raises(DataFormatError):
        load_labels(path)


def test_labels_round_trip(tmp_path):
    path = tmp_path / "y.txt"
    y = np.array([-1, 1, -1, -1, 1])
    write_labels(path, y)
    assert np.array_equal(load_labels(path), y)


def test_triplet_row_count_enforced():
    X = np.zeros((3, 2))
    Xstar = np.zeros((3, 4))
    with pytest.raises(ValueError):
        assemble_triplet(X, Xstar, np.array([-1, 1]))
    with pytest.raises(ValueError):
        assemble_triplet(X, np.zeros((2, 4)), np.array([-1, 1, 1]))
    data = assemble_triplet(X, Xstar, np.array([-1, 1, 1]))
    assert data.n == 3
