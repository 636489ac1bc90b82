"""Per-layer metrics from the spans ``tracer.py`` records.

A span's self time is its duration minus the durations of its direct
children; calls never overlap, so children cover disjoint intervals.
"""

from __future__ import annotations

from collections import defaultdict

SELF_TIMES = {
    "qp.solve_s": ("qp.solve_qp",),
    "qp.cho_factor_s": ("qp.cho_factor",),
    "qp.cho_solve_s": ("qp.cho_solve",),
    "selection.grid_search_svm_s": ("selection.grid_search_svm",),
    "selection.grid_search_svmplus_s": ("selection.grid_search_svmplus",),
    "svm.train_s": ("svm.svm_train",),
    "svmplus.train_s": ("svmplus.svmplus_train",),
    "kernels.squared_distances_s": ("kernels.squared_distances",),
    "kernels.rbf_s": ("kernels.rbf_from_squared_distances",),
    "kernels.gram_matrix_s": ("kernels.gram_matrix",),
    "conformal.calibrate_s": ("conformal.calibrate",),
    "conformal.pvalues_s": ("conformal.pairs_from_decision_values",),
    "conformal.regions_s": ("conformal.predict_region",),
    "conformal.metrics_s": ("conformal.metrics",),
    "dataio.load_s": ("dataio.load",),
    "model_io.save_s": ("model_io.save",),
    "model_io.load_s": ("model_io.load",),
    "cli.self_s": ("cli.main",),
}

CALLS = {
    "qp.solves": "qp.solve_qp",
    "qp.cho_factor_calls": "qp.cho_factor",
    "svm.train_calls": "svm.svm_train",
    "svmplus.train_calls": "svmplus.svmplus_train",
    "svmplus.bias_warnings": "svmplus.bias_warning",
    "kernels.distance_calls": "kernels.squared_distances",
}

GRID_SEARCHES = ("selection.grid_search_svm", "selection.grid_search_svmplus")
FITS = ("svm.svm_train", "svmplus.svmplus_train")


def per_layer_metrics(spans) -> dict:
    """Every span-derived per-layer metric; layers never called read 0."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += (end - start) - children[i]
        calls[name] += 1

    metrics = {metric: sum(self_s[n] for n in names) for metric, names in SELF_TIMES.items()}
    metrics.update({metric: calls[name] for metric, name in CALLS.items()})

    def attrs(name):
        return [(s[3], s[4] or {}) for s in spans if s[0] == name]

    solves = [a for _, a in attrs("qp.solve_qp")]
    metrics["qp.iterations"] = sum(a.get("iterations", 0) for a in solves)
    metrics["qp.nonconverged"] = sum(a.get("outcome") in ("accepted", "failed") for a in solves)
    metrics["qp.accepted_loose"] = sum(a.get("outcome") == "accepted" for a in solves)
    metrics["qp.cholesky_gflop"] = sum(a["n"] ** 3 / 3.0 for _, a in attrs("qp.cho_factor")) / 1e9

    cells = {}
    for fit in FITS:
        for parent, a in attrs(fit):
            if parent >= 0 and spans[parent][0] in GRID_SEARCHES:
                key = (parent, a["C"], a["gamma"])
                cells[key] = cells.get(key, False) or a["failed"]
    metrics["selection.cells"] = len(cells)
    metrics["selection.cells_failed"] = sum(cells.values())
    metrics["selection.fold_fits"] = sum(
        1 for fit in FITS for parent, _ in attrs(fit)
        if parent >= 0 and spans[parent][0] in GRID_SEARCHES)

    distances = [a for _, a in attrs("kernels.squared_distances")]
    metrics["kernels.distance_entries"] = sum(a.get("entries", 0) for a in distances)
    metrics["conformal.rows"] = sum(
        a.get("rows", 0) for _, a in attrs("conformal.pairs_from_decision_values"))
    loads = [a for _, a in attrs("dataio.load")]
    metrics["dataio.rows_read"] = sum(a.get("rows", 0) for a in loads)
    metrics["dataio.bytes_read"] = sum(a.get("bytes", 0) for a in loads)
    return metrics
