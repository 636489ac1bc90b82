"""Dataset ingestion.

Three file families are understood:

* MNIST IDX image/label files (big-endian, magics 2051 / 2049), filtered
  to digits 5 and 8: the raw 784-pixel vector scaled to [0, 1] becomes
  the privileged matrix X*, and an area-averaged 8x8 downscale becomes
  the standard matrix X.
* dense CSV feature files (comma-separated reals, no header by default);
* sparse feature files: a ``#dim N`` preamble, then one row per line of
  0-based, strictly increasing ``index:value`` pairs.

Labels are one integer per line in {-1, +1}; files using {0, 1} are
mapped 0 -> -1 with a logged notice.
"""

from __future__ import annotations

import logging
import struct
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "TripletDataset",
    "DataFormatError",
    "load_mnist_5v8",
    "read_idx_images",
    "read_idx_labels",
    "write_idx_images",
    "write_idx_labels",
    "area_downscale",
    "FEATURE_FORMATS",
    "load_feature_file",
    "write_feature_file",
    "load_labels",
    "write_labels",
]

logger = logging.getLogger(__name__)

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049
MNIST_LIMIT = 4000
DIGIT_LABELS = {5: -1, 8: 1}


class DataFormatError(Exception):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, message: str, path=None, line: int | None = None):
        location = str(path) if path is not None else "<input>"
        if line is not None:
            location = f"{location}:{line}"
        super().__init__(f"{location}: {message}")
        self.path = path
        self.line = line


@dataclass
class TripletDataset:
    """Aligned (X, X*, y) rows with -1/+1 labels of both classes."""

    X: object
    Xstar: object
    y: np.ndarray

    def __post_init__(self):
        n = self.X.shape[0]
        if self.Xstar.shape[0] != n or self.y.shape[0] != n:
            raise ValueError(
                f"row counts disagree: X={n}, X*={self.Xstar.shape[0]}, "
                f"y={self.y.shape[0]}"
            )
        values = set(np.unique(self.y).tolist())
        if not values <= {-1, 1}:
            raise ValueError(f"labels must be -1/+1, got {sorted(values)}")
        if len(values) < 2:
            raise ValueError("dataset contains a single class")

    @property
    def n(self) -> int:
        return self.X.shape[0]


def _read_exact(handle, count, path, what):
    data = handle.read(count)
    if len(data) != count:
        raise DataFormatError(
            f"truncated file: expected {count} bytes for {what}, got {len(data)}",
            path=path,
        )
    return data


def read_idx_images(path) -> np.ndarray:
    """(n, rows, cols) uint8 array from an IDX image file."""
    with open(path, "rb") as fh:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, path, "header"))
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(
                f"bad image magic {magic} (expected {IDX_IMAGE_MAGIC})", path=path
            )
        pixels = _read_exact(fh, n * rows * cols, path, f"{n} images")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(n, rows, cols)


def read_idx_labels(path) -> np.ndarray:
    """(n,) uint8 label array from an IDX label file."""
    with open(path, "rb") as fh:
        magic, n = struct.unpack(">II", _read_exact(fh, 8, path, "header"))
        if magic != IDX_LABEL_MAGIC:
            raise DataFormatError(
                f"bad label magic {magic} (expected {IDX_LABEL_MAGIC})", path=path
            )
        raw = _read_exact(fh, n, path, f"{n} labels")
    return np.frombuffer(raw, dtype=np.uint8)


def write_idx_images(path, images: np.ndarray) -> None:
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


def _overlap_weights(size_in: int, size_out: int) -> np.ndarray:
    """Row-stochastic (size_out, size_in) area-average weights."""
    block = size_in / size_out
    W = np.zeros((size_out, size_in))
    for r in range(size_out):
        lo, hi = block * r, block * (r + 1)
        for k in range(int(np.floor(lo)), min(size_in, int(np.ceil(hi)))):
            W[r, k] = max(0.0, min(hi, k + 1) - max(lo, k)) / block
    return W


def area_downscale(images: np.ndarray, size_out: int = 8) -> np.ndarray:
    """Area-weighted mean over fractional blocks; preserves the image mean."""
    n, rows, cols = images.shape
    Wr = _overlap_weights(rows, size_out)
    Wc = _overlap_weights(cols, size_out)
    return np.matmul(np.matmul(Wr, images), Wc.T)


def load_mnist_5v8(images_path, labels_path, limit: int = MNIST_LIMIT) -> TripletDataset:
    """5-vs-8 triplets: X is the 8x8 downscale, X* the raw 784 pixels.

    Digits are mapped 5 -> -1 and 8 -> +1; at most ``limit`` (at least 1)
    examples are kept, first occurrences in file order.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    images = read_idx_images(images_path)
    digits = read_idx_labels(labels_path)
    if images.shape[0] != digits.shape[0]:
        raise DataFormatError(
            f"image count {images.shape[0]} != label count {digits.shape[0]}",
            path=images_path,
        )
    mask = np.isin(digits, list(DIGIT_LABELS))
    keep = np.flatnonzero(mask)[:limit]
    for digit in DIGIT_LABELS:
        if not np.any(digits[keep] == digit):
            raise ValueError(f"digit {digit} missing from {labels_path}")
    scaled = images[keep].astype(float) / 255.0
    xstar = scaled.reshape(keep.shape[0], -1)
    x = area_downscale(scaled).reshape(keep.shape[0], -1)
    y = np.array([DIGIT_LABELS[int(d)] for d in digits[keep]])
    return TripletDataset(X=x, Xstar=xstar, y=y)


FEATURE_FORMATS = ("dense-csv", "sparse-index-value")


def load_feature_file(path, format: str = "dense-csv"):
    """Feature matrix from a dense CSV or sparse index:value file."""
    if format == "dense-csv":
        return _load_dense_csv(path)
    if format == "sparse-index-value":
        return _load_sparse(path)
    raise ValueError(f"unknown feature format {format!r}")


def _load_dense_csv(path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty result is left to the line reader, which names it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            X = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, encoding="ascii")
        if X.shape[0]:
            return X
    except ValueError:  # UnicodeDecodeError too
        pass
    # numpy rejects some input the line reader accepts (blank or
    # whitespace-only lines, digits grouped by "_"), and its errors name
    # no line; the line reader gives the same array or the located error
    return _read_dense_csv_lines(path)


def _read_dense_csv_lines(path) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in _numbered_lines(path):
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


def _numbered_lines(path):
    """(1-based number, text) of each line of an ASCII file.

    Lines end at LF, CRLF or CR, as in text mode.  The file is read in
    binary and decoded a line at a time, so a non-ASCII byte is reported
    on its own line rather than where a text-mode decoder meets it.
    """
    with open(path, "rb") as fh:
        lineno = 0
        for chunk in fh:
            for raw in chunk.splitlines():
                lineno += 1
                try:
                    text = raw.decode("ascii")
                except UnicodeDecodeError as exc:
                    raise DataFormatError(
                        f"non-ASCII byte 0x{raw[exc.start]:02x} at column {exc.start + 1}",
                        path=path, line=lineno,
                    ) from None
                yield lineno, text


class _LineCursor:
    """:func:`_numbered_lines` one at a time, for record formats; errors name
    the line last read, or at the end of the file the line after it."""

    def __init__(self, path):
        self.path = path
        self.line = 0
        self._lines = _numbered_lines(path)

    def next(self, what: str) -> str:
        for self.line, text in self._lines:
            return text
        self.line += 1
        raise self.error(f"file ends where the {what} should be")

    def error(self, message: str) -> DataFormatError:
        return DataFormatError(message, path=self.path, line=self.line)

    def close(self) -> None:
        self._lines.close()


def _parse_pairs(tokens, dim, indices, data, path, lineno) -> None:
    """Append the ``index:value`` tokens of one sparse row to ``indices``
    and ``data``; indices must be strictly increasing and in [0, dim)."""
    previous = -1
    for token in tokens:
        head, sep, tail = token.partition(":")
        if not sep:
            raise DataFormatError(
                f"expected index:value, got {token!r}", path=path, line=lineno
            )
        try:
            index, value = int(head), float(tail)
        except ValueError as exc:
            raise DataFormatError(
                f"bad index:value pair {token!r}: {exc}",
                path=path, line=lineno,
            ) from exc
        if index < 0 or index >= dim:
            raise DataFormatError(
                f"index {index} outside [0, {dim})", path=path, line=lineno
            )
        if index <= previous:
            raise DataFormatError(
                f"indices must be strictly increasing, got {index} "
                f"after {previous}",
                path=path, line=lineno,
            )
        previous = index
        indices.append(index)
        data.append(value)


def _load_sparse(path) -> sp.csr_matrix:
    data, indices, indptr = [], [], [0]
    dim = None
    for lineno, line in _numbered_lines(path):
        line = line.strip()
        if lineno == 1:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "#dim":
                raise DataFormatError(
                    "first line must be '#dim N'", path=path, line=lineno
                )
            try:
                dim = int(parts[1])
            except ValueError as exc:
                raise DataFormatError(
                    f"bad dimension: {exc}", path=path, line=lineno
                ) from exc
            if dim <= 0:
                raise DataFormatError(
                    "dimension must be positive", path=path, line=lineno
                )
            continue
        _parse_pairs(line.split(), dim, indices, data, path, lineno)
        indptr.append(len(data))
    if dim is None:
        raise DataFormatError("empty file", path=path)
    n_rows = len(indptr) - 1
    return sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int64), np.asarray(indptr)),
        shape=(n_rows, dim),
    )


def _format_pairs(X, i) -> str:
    """Row ``i`` of CSR matrix ``X`` as space-separated ``index:value`` pairs."""
    row = slice(X.indptr[i], X.indptr[i + 1])
    return " ".join(f"{int(j)}:{float(v)!r}" for j, v in zip(X.indices[row], X.data[row]))


def write_feature_file(path, X, format: str = "dense-csv") -> None:
    """Writer matching :func:`load_feature_file`; round-trips exactly."""
    if format == "dense-csv":
        X = np.asarray(X)
        with open(path, "w", encoding="ascii") as fh:
            for row in X:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
    elif format == "sparse-index-value":
        X = sp.csr_matrix(X)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"#dim {X.shape[1]}\n")
            for i in range(X.shape[0]):
                fh.write(_format_pairs(X, i))
                fh.write("\n")
    else:
        raise ValueError(f"unknown feature format {format!r}")


def load_labels(path) -> np.ndarray:
    """Labels, one integer per line; {0, 1} files are mapped 0 -> -1."""
    values = []
    for lineno, line in _numbered_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            value = int(line)
        except ValueError as exc:
            raise DataFormatError(
                f"bad label {line!r}: {exc}", path=path, line=lineno
            ) from exc
        if value not in (-1, 0, 1):
            raise DataFormatError(
                f"label must be one of -1, 0, 1; got {value}",
                path=path, line=lineno,
            )
        values.append(value)
    if not values:
        raise DataFormatError("no labels", path=path)
    y = np.asarray(values)
    if np.any(y == 0):
        if np.any(y == -1):
            raise DataFormatError("labels mix 0 and -1", path=path)
        logger.info("%s: mapping {0, 1} labels to {-1, +1}", path)
        y = np.where(y == 0, -1, 1)
    return y


def write_labels(path, y) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for v in np.asarray(y):
            fh.write(f"{int(v)}\n")
