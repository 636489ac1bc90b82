"""Output checks for the benchmark workloads.

Each check recomputes what the program printed, with the benchmark's own
parsers and numpy code, or tests a property the method must have.  A
failed check raises :class:`CheckFailed`.  Nothing here imports ``lupicp``.
"""

from __future__ import annotations

import math

import numpy as np

LABELS = (-1, 1)
SIGMAS = 4.0  # width of every statistical bound below
TIE_TOL = 1e-9  # scores this close (relative) may fall on either side of a calibration score


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# --- file formats --------------------------------------------------------

def _read_block(lines, i, what):
    """A ``<what> n d layout`` header and its n rows: (coefficients, rows, next)."""
    head = lines[i].split()
    require(head[0] == what, f"expected a {what!r} block, got {lines[i]!r}")
    n, d, layout = int(head[1]), int(head[2]), head[3]
    coefficients = np.empty(n)
    rows = np.zeros((n, d))
    for r in range(n):
        fields = lines[i + 1 + r].split()
        coefficients[r] = float(fields[0])
        if layout == "dense":
            rows[r] = [float(v) for v in fields[1:]]
        else:
            for token in fields[1:]:
                j, _, v = token.partition(":")
                rows[r, int(j)] = float(v)
    return coefficients, rows, i + 1 + n


def read_model(path) -> dict:
    """The fields of a ``lupicp-model v1`` file that the checks use."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    require(lines[0] == "lupicp-model v1", f"{path}: bad header {lines[0]!r}")
    scalars = {}
    i = 1
    while not lines[i].startswith("support "):
        key, *values = lines[i].split()
        scalars[key] = values
        i += 1
    weights, support, i = _read_block(lines, i, "support")
    model = {
        "type": scalars["type"][0],
        "gamma": float(scalars["kernel"][1]),
        "bias": float(scalars["bias"][0]),
        "weights": weights,
        "support": support,
    }
    if model["type"] == "svmplus":
        while not lines[i].startswith("correcting "):
            key, *values = lines[i].split()
            scalars[key] = values
            i += 1
        deltas, _, _ = _read_block(lines, i, "correcting")
        model["gamma_plus"] = float(scalars["gamma_plus"][0])
        model["deltas"] = deltas
    return model


def read_calibration(path) -> dict:
    """Calibration scores per class, in file order."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    require(lines[0] == "lupicp-calibration v1", f"{path}: bad header {lines[0]!r}")
    scores, i = {}, 1
    for label in LABELS:
        key, label_text, count = lines[i].split()
        require(key == "class" and int(label_text) == label,
                f"{path}: expected class {label}, got {lines[i]!r}")
        count = int(count)
        scores[label] = np.array([float(v) for v in lines[i + 1:i + 1 + count]])
        i += 1 + count
    return scores


def read_predictions(path):
    """(p_minus, p_plus, regions) from ``lupicp predict`` output."""
    with open(path, encoding="ascii") as fh:
        rows = [line.split("\t") for line in fh.read().splitlines()]
    require(all(len(r) == 3 for r in rows), f"{path}: a line has not 3 fields")
    p = np.array([[float(r[0]), float(r[1])] for r in rows]).reshape(-1, 2)
    return p[:, 0], p[:, 1], [r[2] for r in rows]


# --- recomputation -------------------------------------------------------

def decision_values(model, X, chunk=8192) -> np.ndarray:
    """f(x) = sum_i w_i exp(-gamma ||x - sv_i||^2) + b, in row chunks."""
    sv, w = model["support"], model["weights"]
    sv_norms = np.einsum("ij,ij->i", sv, sv)
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], chunk):
        block = X[start:start + chunk]
        d = np.einsum("ij,ij->i", block, block)[:, None] + sv_norms[None, :] - 2.0 * block @ sv.T
        out[start:start + chunk] = np.exp(-model["gamma"] * np.maximum(d, 0.0)) @ w
    return out + model["bias"]


def largest_remainder_take(counts: dict, fraction: float) -> dict:
    """Rows per class that a stratified split hands its first part."""
    total = int(round(fraction * sum(counts.values())))
    take = {c: int(math.floor(fraction * n)) for c, n in counts.items()}
    order = sorted(counts, key=lambda c: (-(fraction * counts[c] - take[c]), c))
    for c in order[: total - sum(take.values())]:
        take[c] += 1
    return take


def split_sizes(counts: dict, train_fraction: float, proper_fraction: float):
    """Per-class (train, test, proper, calibration) sizes of the protocol's splits."""
    train = largest_remainder_take(counts, train_fraction)
    proper = largest_remainder_take(train, proper_fraction)
    return {c: (train[c], counts[c] - train[c], proper[c], train[c] - proper[c])
            for c in counts}


# --- workload checks -----------------------------------------------------

def _format_region(labels):
    return ",".join(f"{lab:+d}" for lab in labels)


def check_predictions(path, model, calibration, X, y, epsilon):
    """Every printed p-value and region agrees with a recomputation, and each
    class's miscoverage on these exchangeable rows stays under its bound."""
    p_minus, p_plus, regions = read_predictions(path)
    require(p_minus.shape[0] == X.shape[0],
            f"{p_minus.shape[0]} output lines for {X.shape[0]} input rows")
    values = decision_values(model, X)
    printed = {-1: p_minus, 1: p_plus}
    for label in LABELS:
        cal = np.sort(calibration[label])
        n = cal.shape[0]
        scores = label * values
        counts = np.searchsorted(cal, scores, side="right")  # scores at or below
        expected = (counts + 1) / (n + 1)
        off = np.abs(printed[label] - expected) > 5e-7 + 1e-12
        if np.any(off):
            printed_counts = np.rint(printed[label][off] * (n + 1)).astype(int) - 1
            s = scores[off]
            nearest = np.minimum(
                np.abs(s - cal[np.clip(counts[off] - 1, 0, n - 1)]),
                np.abs(s - cal[np.clip(counts[off], 0, n - 1)]),
            )
            tie = (np.abs(printed_counts - counts[off]) == 1) & (
                nearest <= TIE_TOL * (1.0 + np.abs(s)))
            bad = np.flatnonzero(off)[~tie]
            require(bad.size == 0,
                    f"{bad.size} p-values for label {label:+d} disagree with the "
                    f"recomputation, first at row {bad[:1].tolist()}")
    for i, region in enumerate(regions):
        labels = [lab for lab in LABELS if printed[lab][i] > epsilon]
        require(region == _format_region(labels),
                f"row {i}: region {region!r} does not match its p-values")
    for label in LABELS:
        truth = y == label
        in_region = np.array([f"{label:+d}" in regions[i].split(",")
                              for i in np.flatnonzero(truth)])
        miss = 1.0 - float(np.mean(in_region))
        n = calibration[label].shape[0]
        spread = math.sqrt(epsilon * (1.0 - epsilon))
        bound = epsilon + SIGMAS * spread * (1.0 / math.sqrt(n + 2)
                                             + 1.0 / math.sqrt(truth.sum()))
        require(miss <= bound,
                f"class {label:+d}: miscoverage {miss:.4f} above {bound:.4f} "
                f"at epsilon {epsilon}")


def check_svmplus_fit(model, calibration, X, y, C, calibration_sizes):
    """Both SVM+ dual equalities hold on the saved coefficients, and each
    calibration score is y f(x) of a distinct row of its class."""
    require(model["type"] == "svmplus", f"model type {model['type']!r}, not svmplus")
    n = model["deltas"].shape[0]
    tol = 1e-8 * n * C
    total = float(np.sum(model["weights"]))
    require(abs(total) <= tol, f"sum of alpha_i y_i is {total:.3e}, above {tol:.1e}")
    total = float(np.sum(model["deltas"]))
    require(abs(total) <= tol, f"sum of deltas is {total:.3e}, above {tol:.1e}")
    margins = y * decision_values(model, X)
    for label in LABELS:
        scores = calibration[label]
        require(scores.shape[0] == calibration_sizes[label],
                f"class {label:+d}: {scores.shape[0]} calibration scores, "
                f"the split holds {calibration_sizes[label]}")
        rows = np.flatnonzero(y == label)
        order = np.argsort(margins[rows])
        candidates = margins[rows][order]
        at = np.clip(np.searchsorted(candidates, scores), 1, candidates.shape[0] - 1)
        left_closer = np.abs(scores - candidates[at - 1]) <= np.abs(scores - candidates[at])
        nearest = np.where(left_closer, at - 1, at)
        gap = np.abs(scores - candidates[nearest])
        worst = int(np.argmax(gap))
        require(gap[worst] <= TIE_TOL * (1.0 + abs(scores[worst])),
                f"class {label:+d}: calibration score {scores[worst]!r} is no "
                f"row's y f(x) (nearest off by {gap[worst]:.3e})")
        require(np.unique(nearest).shape[0] == nearest.shape[0],
                f"class {label:+d}: two calibration scores match one row")


def check_study(report, config, sizes, bayes):
    """Accuracies lie between chance and the Bayes accuracy, validity
    deviations under a bound set by the split sizes, and each selected
    parameter in its grid."""
    test = {c: s[1] for c, s in sizes.items()}
    cal = {c: s[3] for c, s in sizes.items()}
    m = sum(test.values())
    require(report["counts"] == {"total": sum(sum(s[:2]) for s in sizes.values()),
                                 "train": sum(s[0] for s in sizes.values()),
                                 "test": m},
            f"counts {report['counts']} disagree with the split sizes")
    grid = np.asarray(config["epsilon_grid"])
    spread = float(np.mean(np.sqrt(grid * (1.0 - grid))))
    validity_bound = SIGMAS * spread * math.sqrt(
        1.0 / min(test.values()) + 1.0 / (min(cal.values()) + 2)) + 1.0 / min(test.values())
    for key, best in bayes.items():
        reps = report["per_model"][key]["per_repetition"]
        require(len(reps) == config["repetitions"],
                f"{key}: {len(reps)} repetitions reported")
        low = 0.5 + SIGMAS * math.sqrt(0.25 / m)
        high = best + SIGMAS * math.sqrt(best * (1.0 - best) / m) + 1.0 / m
        for r, rep in enumerate(reps):
            require(low < rep["accuracy"] < high,
                    f"{key} repetition {r}: accuracy {rep['accuracy']:.4f} "
                    f"outside ({low:.4f}, {high:.4f})")
            require(rep["validity_deviation"] <= validity_bound,
                    f"{key} repetition {r}: validity deviation "
                    f"{rep['validity_deviation']:.4f} above {validity_bound:.4f}")
    grids = config["grids"]
    selected = report["selected_parameters"]
    for key, width in (("svm_x", "gamma"), ("svm_xstar", "gamma"),
                       ("svmplus", "gamma_plus")):
        require(selected[key]["C"] in grids[key]["C"],
                f"{key}: selected C {selected[key]['C']} not in its grid")
        require(selected[key][width] in grids[key][width],
                f"{key}: selected {width} {selected[key][width]} not in its grid")
    require(selected["svmplus"]["gamma1"] == selected["svm_x"]["gamma"]
            and selected["svmplus"]["gamma2"] == selected["svm_xstar"]["gamma"],
            "SVM+ kernel widths are not the ones steps 1 and 2 selected")
