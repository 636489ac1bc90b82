"""Flat structured-text serialization for trained models and
calibration tables.

The record is line oriented: scalar fields first, then a ``support``
block of one row per support vector (leading coefficient, then the
feature values, dense or as index:value pairs).  SVM+ models append the
correcting block: its kernel, gamma_plus, bias_star, and one row per
training example carrying the delta coefficient and the privileged
features.  Floats are written with repr() and so round-trip exactly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .conformal import CalibrationTable
from .kernels import KernelSpec
from .svm import DecisionModel
from .svmplus import SvmPlusModel

__all__ = [
    "save_model",
    "load_model",
    "save_calibration",
    "load_calibration",
]

MODEL_HEADER = "lupicp-model v1"
CALIBRATION_HEADER = "lupicp-calibration v1"


class ModelFormatError(Exception):
    """Malformed model or calibration file; the message names path:line."""


class _Lines:
    """The lines of an open file, counted so that errors name path:line."""

    def __init__(self, path, fh):
        self.path = path
        self.number = 0
        self._fh = fh

    def next(self, what: str) -> str:
        self.number += 1
        line = self._fh.readline()
        if not line:
            raise self.error(f"file ends where the {what} should be")
        return line.rstrip("\n")

    def error(self, message: str) -> ModelFormatError:
        return ModelFormatError(f"{self.path}:{self.number}: {message}")


def _parse(path, parser):
    """Run ``parser`` over the file's lines; a value that does not parse
    (a non-numeric field, an invalid kernel) names its line too."""
    with open(path, "r", encoding="ascii") as fh:
        lines = _Lines(path, fh)
        try:
            return parser(lines)
        except (ValueError, OverflowError) as exc:  # ValueError covers UnicodeDecodeError
            raise lines.error(str(exc)) from None


def _write_rows(fh, coefficients, vectors):
    dense = not sp.issparse(vectors)
    for i, coef in enumerate(coefficients):
        if dense:
            values = " ".join(repr(float(v)) for v in np.asarray(vectors[i]).ravel())
        else:
            start, stop = vectors.indptr[i], vectors.indptr[i + 1]
            values = " ".join(
                f"{int(j)}:{repr(float(v))}"
                for j, v in zip(vectors.indices[start:stop], vectors.data[start:stop])
            )
        fh.write(f"{repr(float(coef))} {values}\n".rstrip(" \n") + "\n")


def _read_rows(lines, count, dim, layout, what):
    coefficients = np.empty(count)
    if layout == "dense":
        vectors = np.empty((count, dim))
    else:
        data, indices, indptr = [], [], [0]
    for i in range(count):
        fields = lines.next(f"{what} row").split()
        if not fields:
            raise lines.error(f"blank {what} row")
        coefficients[i] = float(fields[0])
        if layout == "dense":
            if len(fields) - 1 != dim:
                raise lines.error(
                    f"{what} row {i}: expected {dim} values, got {len(fields) - 1}"
                )
            vectors[i] = [float(v) for v in fields[1:]]
        else:
            for token in fields[1:]:
                j, _, v = token.partition(":")
                indices.append(int(j))
                data.append(float(v))
            indptr.append(len(data))
    if layout != "dense":
        vectors = sp.csr_matrix(
            (np.asarray(data), np.asarray(indices, dtype=np.int64),
             np.asarray(indptr)),
            shape=(count, dim),
        )
    return coefficients, vectors


def _block_header(vectors):
    layout = "sparse" if sp.issparse(vectors) else "dense"
    return vectors.shape[0], vectors.shape[1], layout


def save_model(path, model) -> None:
    """Serialize a :class:`DecisionModel` or :class:`SvmPlusModel`."""
    if not isinstance(model, DecisionModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    plus = isinstance(model, SvmPlusModel)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{MODEL_HEADER}\n")
        fh.write(f"type {'svmplus' if plus else 'svm'}\n")
        fh.write(f"kernel {model.kernel.family} {repr(model.kernel.gamma)}\n")
        fh.write(f"bias {repr(model.bias)}\n")
        n, d, layout = _block_header(model.support_vectors)
        fh.write(f"support {n} {d} {layout}\n")
        _write_rows(fh, model.weights, model.support_vectors)
        if plus:
            ck = model.correcting_kernel
            fh.write(f"correcting_kernel {ck.family} {repr(ck.gamma)}\n")
            fh.write(f"gamma_plus {repr(float(model.gamma_plus))}\n")
            fh.write(f"bias_star {repr(float(model.bias_star))}\n")
            n, d, layout = _block_header(model.correcting_vectors)
            fh.write(f"correcting {n} {d} {layout}\n")
            _write_rows(fh, model.deltas, model.correcting_vectors)


def _expect(lines, keyword, count=1):
    """The ``count`` values of the next line, which must start with ``keyword``."""
    fields = lines.next(f"{keyword!r} line").split()
    if len(fields) != count + 1 or fields[0] != keyword:
        raise lines.error(
            f"expected {keyword!r} and {count} value(s), got {' '.join(fields)!r}"
        )
    return fields[1:]


def _expect_header(lines, header):
    line = lines.next("header")
    if line != header:
        raise lines.error(f"bad header {line!r}")


def load_model(path):
    """Inverse of :func:`save_model`."""
    return _parse(path, _parse_model)


def _parse_model(lines):
    _expect_header(lines, MODEL_HEADER)
    (kind,) = _expect(lines, "type")
    if kind not in ("svm", "svmplus"):
        raise lines.error(f"unknown model type {kind!r}")
    family, gamma = _expect(lines, "kernel", 2)
    kernel = KernelSpec(gamma=float(gamma), family=family)
    bias = float(_expect(lines, "bias")[0])
    n, d, layout = _expect(lines, "support", 3)
    weights, support = _read_rows(lines, int(n), int(d), layout, "support")
    fields = dict(support_vectors=support, weights=weights, bias=bias, kernel=kernel)
    if kind == "svm":
        return DecisionModel(**fields)
    family, gamma = _expect(lines, "correcting_kernel", 2)
    correcting_kernel = KernelSpec(gamma=float(gamma), family=family)
    gamma_plus = float(_expect(lines, "gamma_plus")[0])
    bias_star = float(_expect(lines, "bias_star")[0])
    n, d, layout = _expect(lines, "correcting", 3)
    deltas, vectors = _read_rows(lines, int(n), int(d), layout, "correcting")
    return SvmPlusModel(
        **fields,
        deltas=deltas,
        bias_star=bias_star,
        correcting_kernel=correcting_kernel,
        correcting_vectors=vectors,
        gamma_plus=gamma_plus,
    )


def save_calibration(path, table: CalibrationTable) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{CALIBRATION_HEADER}\n")
        for label in (-1, 1):
            scores = table.scores_by_class[label]
            fh.write(f"class {label:+d} {scores.shape[0]}\n")
            for s in scores:
                fh.write(f"{repr(float(s))}\n")


def load_calibration(path) -> CalibrationTable:
    return _parse(path, _parse_calibration)


def _parse_calibration(lines) -> CalibrationTable:
    _expect_header(lines, CALIBRATION_HEADER)
    scores = {}
    for expected in (-1, 1):
        label_str, count = _expect(lines, "class", 2)
        label, count = int(label_str), int(count)
        if label != expected or count < 0:
            raise lines.error(f"expected class {expected} and a count, got {label} {count}")
        scores[label] = np.array(
            [float(lines.next("calibration score")) for _ in range(count)]
        )
    return CalibrationTable(scores_by_class=scores)
