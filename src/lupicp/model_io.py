"""Flat structured-text serialization for trained models and
calibration tables.

The record is line oriented: scalar fields first, then a ``support``
block of one row per support vector (leading coefficient, then the
feature values, dense or as index:value pairs).  SVM+ models append the
correcting block: its kernel, gamma_plus, bias_star, and one row per
training example carrying the delta coefficient and the privileged
features.  Floats are written with repr() and so round-trip exactly; a
value that reads as nan or infinite is a format error.

This module owns only that record layout: lines and index:value rows go
through :mod:`lupicp.dataio`, under the rules of sparse feature files,
and every format error is a ``DataFormatError`` naming path:line.
"""

from __future__ import annotations

import numpy as np

from .conformal import CalibrationTable
from .dataio import _format_pairs, _LineCursor, _parse_pairs
from .decision import DecisionModel, SvmPlusModel
from .kernels import KernelSpec

__all__ = [
    "save_model",
    "load_model",
    "save_calibration",
    "load_calibration",
]

MODEL_HEADER = "lupicp-model v1"
CALIBRATION_HEADER = "lupicp-calibration v1"


def _finite(lines, text: str) -> float:
    """``text`` as a float, which must be finite."""
    value = float(text)
    if not np.isfinite(value):
        raise lines.error(f"non-finite value {text!r}")
    return value


def _parse(path, header, parser):
    """Check the ``header`` line, then run ``parser`` over the lines after
    it; a value that does not parse (a non-numeric field, an invalid
    kernel) names its line too."""
    lines = _LineCursor(path)
    try:
        line = lines.next("header")
        if line != header:
            raise lines.error(f"bad header {line!r}")
        return parser(lines)
    except (ValueError, OverflowError) as exc:
        raise lines.error(str(exc)) from None
    finally:
        lines.close()


def _write_block(fh, keyword, coefficients, vectors):
    sparse = not isinstance(vectors, np.ndarray)
    if sparse:
        import scipy.sparse as sp

        vectors = sp.csr_matrix(vectors)  # rows of a CSC or COO matrix too
    n, d = vectors.shape
    fh.write(f"{keyword} {n} {d} {'sparse' if sparse else 'dense'}\n")
    for i, coef in enumerate(coefficients):
        if sparse:
            values = _format_pairs(vectors, i)
        else:
            values = " ".join(repr(float(v)) for v in np.asarray(vectors[i]).ravel())
        fh.write(f"{repr(float(coef))} {values}\n".rstrip(" \n") + "\n")


def _read_block(lines, keyword):
    """The coefficients and vectors of the block that starts at the
    ``keyword n d layout`` line."""
    count, dim, layout = _expect(lines, keyword, 3)
    count, dim = int(count), int(dim)
    if count < 0 or dim < 1 or layout not in ("dense", "sparse"):
        raise lines.error(f"expected {keyword!r} n >= 0, d >= 1 and a layout "
                          f"dense or sparse, got {count} {dim} {layout!r}")
    coefficients, data, indices, indptr = [], [], [], [0]
    for i in range(count):
        fields = lines.next(f"{keyword} row").split()
        if not fields:
            raise lines.error(f"blank {keyword} row")
        coefficients.append(_finite(lines, fields[0]))
        if layout == "dense":
            if len(fields) - 1 != dim:
                raise lines.error(
                    f"{keyword} row {i}: expected {dim} values, got {len(fields) - 1}"
                )
            values = [float(v) for v in fields[1:]]
            data.extend(values)
        else:
            _parse_pairs(fields[1:], dim, indices, data, lines.path, lines.line)
            values = data[indptr[-1]:]
            indptr.append(len(data))
        if not np.all(np.isfinite(values)):
            raise lines.error(f"non-finite value in {keyword} row {i}")
    if layout == "dense":
        vectors = np.array(data, dtype=float).reshape(count, dim)
    else:
        import scipy.sparse as sp

        vectors = sp.csr_matrix(
            (np.asarray(data), np.asarray(indices, dtype=np.int64),
             np.asarray(indptr)),
            shape=(count, dim),
        )
    return np.array(coefficients, dtype=float), vectors


def save_model(path, model) -> None:
    """Serialize a :class:`DecisionModel` or :class:`SvmPlusModel`."""
    if not isinstance(model, DecisionModel):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    plus = isinstance(model, SvmPlusModel)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{MODEL_HEADER}\n")
        fh.write(f"type {'svmplus' if plus else 'svm'}\n")
        fh.write(f"kernel rbf {repr(model.kernel.gamma)}\n")
        fh.write(f"bias {repr(model.bias)}\n")
        _write_block(fh, "support", model.weights, model.support_vectors)
        if plus:
            fh.write(f"correcting_kernel rbf {repr(model.correcting_kernel.gamma)}\n")
            fh.write(f"gamma_plus {repr(float(model.gamma_plus))}\n")
            fh.write(f"bias_star {repr(float(model.bias_star))}\n")
            _write_block(fh, "correcting", model.deltas, model.correcting_vectors)


def _expect(lines, keyword, count=1):
    """The ``count`` values of the next line, which must start with ``keyword``."""
    fields = lines.next(f"{keyword!r} line").split()
    if len(fields) != count + 1 or fields[0] != keyword:
        raise lines.error(
            f"expected {keyword!r} and {count} value(s), got {' '.join(fields)!r}"
        )
    return fields[1:]


def _read_kernel(lines, keyword) -> KernelSpec:
    family, gamma = _expect(lines, keyword, 2)
    if family != "rbf":
        raise lines.error(f"unsupported kernel family {family!r}")
    return KernelSpec(float(gamma))


def load_model(path):
    """Inverse of :func:`save_model`."""
    return _parse(path, MODEL_HEADER, _parse_model)


def _parse_model(lines):
    (kind,) = _expect(lines, "type")
    if kind not in ("svm", "svmplus"):
        raise lines.error(f"unknown model type {kind!r}")
    kernel = _read_kernel(lines, "kernel")
    bias = _finite(lines, _expect(lines, "bias")[0])
    weights, support = _read_block(lines, "support")
    fields = dict(support_vectors=support, weights=weights, bias=bias, kernel=kernel)
    if kind == "svm":
        return DecisionModel(**fields)
    correcting_kernel = _read_kernel(lines, "correcting_kernel")
    gamma_plus = _finite(lines, _expect(lines, "gamma_plus")[0])
    bias_star = _finite(lines, _expect(lines, "bias_star")[0])
    deltas, vectors = _read_block(lines, "correcting")
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
    return _parse(path, CALIBRATION_HEADER, _parse_calibration)


def _parse_calibration(lines) -> CalibrationTable:
    scores = {}
    for expected in (-1, 1):
        label_str, count = _expect(lines, "class", 2)
        label, count = int(label_str), int(count)
        if label != expected or count < 0:
            raise lines.error(f"expected class {expected} and a count, got {label} {count}")
        scores[label] = np.array(
            [_finite(lines, lines.next("calibration score")) for _ in range(count)]
        )
    return CalibrationTable(scores_by_class=scores)
