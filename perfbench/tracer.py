"""Run one ``lupicp`` command with spans recorded around each layer's calls.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json <lupicp arguments>

The program is not changed: each traced function is replaced by a timing
wrapper in every ``lupicp`` module that looks it up by name (for example
``lupicp.svm.solve_qp`` and ``lupicp.cli.load_feature_file``).  Spans stay
in memory and are written to SPANS.json when the command returns, as a
list of ``[name, start, end, parent, attributes]``; ``parent`` is the
index of the enclosing span, or -1.  The exit code is the command's.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def call(self, name, fn, args, kwargs, describe=None):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        result = error = None
        record[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            record[2] = perf_counter()
            self._stack.pop()
            if describe is not None:
                record[4] = describe(args, kwargs, result, error)

    def event(self, name):
        """A zero-length span, for something that happens at one instant."""
        now = perf_counter()
        self.spans.append([name, now, now, self._stack[-1] if self._stack else -1, None])

    def wrap(self, fn, name, describe=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, describe)

        traced.__wrapped__ = fn
        return traced


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _patch_lookups(original, replacement):
    """Point every ``lupicp`` module-level name bound to ``original`` at
    ``replacement``; return how many names were rebound."""
    count = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("lupicp"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


def install(tracer: Tracer) -> None:
    import scipy.linalg

    import lupicp.cli  # noqa: F401 - loads every module the command can reach
    from lupicp import conformal, dataio, kernels, model_io, selection, svm, svmplus
    from lupicp.qp import QpNonConvergenceError

    def solve(args, kwargs, result, exc):
        if isinstance(exc, QpNonConvergenceError):
            accepted = exc.best.kkt_residual <= svm.ACCEPT_RESIDUAL
            return {"iterations": exc.best.iterations,
                    "outcome": "accepted" if accepted else "failed"}
        if result is None:
            return {"iterations": 0, "outcome": "error"}
        return {"iterations": result.iterations, "outcome": "converged"}

    def factor(args, kwargs, result, exc):
        return {"n": int(_arg(args, kwargs, 0, "a").shape[0])}

    def distances(args, kwargs, result, exc):
        return {"entries": int(_arg(args, kwargs, 0, "A").shape[0])
                * int(_arg(args, kwargs, 1, "B").shape[0])}

    def fit(position, gamma_of):
        def describe(args, kwargs, result, exc):
            cfg = _arg(args, kwargs, position, "cfg")
            return {"C": cfg.C, "gamma": gamma_of(cfg), "failed": exc is not None}
        return describe

    def loaded(args, kwargs, result, exc):
        if result is None:
            return None
        path = _arg(args, kwargs, 0, "path")
        return {"rows": int(result.shape[0]), "bytes": os.path.getsize(path)}

    def scored(args, kwargs, result, exc):
        return {"rows": int(len(_arg(args, kwargs, 1, "values")))}

    targets = [
        (svm.solve_qp, "qp.solve_qp", solve),
        (selection.grid_search_svm, "selection.grid_search_svm", None),
        (selection.grid_search_svmplus, "selection.grid_search_svmplus", None),
        (svm.svm_train, "svm.svm_train", fit(2, lambda cfg: cfg.kernel.gamma)),
        (svmplus.svmplus_train, "svmplus.svmplus_train",
         fit(3, lambda cfg: cfg.gamma_plus)),
        (kernels.squared_distances, "kernels.squared_distances", distances),
        (kernels.rbf_from_squared_distances, "kernels.rbf_from_squared_distances", None),
        (kernels.gram_matrix, "kernels.gram_matrix", None),
        (conformal.calibrate, "conformal.calibrate", None),
        (conformal.pairs_from_decision_values, "conformal.pairs_from_decision_values",
         scored),
        (conformal.predict_region, "conformal.predict_region", None),
        (conformal.accuracy, "conformal.metrics", None),
        (conformal.validity_deviation, "conformal.metrics", None),
        (conformal.observed_fuzziness, "conformal.metrics", None),
        (dataio.load_feature_file, "dataio.load", loaded),
        (dataio.load_labels, "dataio.load", loaded),
        (model_io.save_model, "model_io.save", None),
        (model_io.save_calibration, "model_io.save", None),
        (model_io.load_model, "model_io.load", None),
        (model_io.load_calibration, "model_io.load", None),
    ]
    for fn, name, describe in targets:
        if not _patch_lookups(fn, tracer.wrap(fn, name, describe)):
            raise RuntimeError(f"no lupicp module looks up {name}")

    # qp.py reaches the factorization through the scipy.linalg module
    scipy.linalg.cho_factor = tracer.wrap(scipy.linalg.cho_factor, "qp.cho_factor", factor)
    scipy.linalg.cho_solve = tracer.wrap(scipy.linalg.cho_solve, "qp.cho_solve")

    # svmplus.py reports bias disagreements through warnings.warn
    warn = warnings.warn

    def counting_warn(message, category=None, stacklevel=1, **kwargs):
        if category is svmplus.BiasRecoveryWarning:
            tracer.event("svmplus.bias_warning")
        return warn(message, category, stacklevel + 1, **kwargs)

    warnings.warn = counting_warn


def main(argv) -> int:
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import lupicp.cli

    try:
        code = tracer.call("cli.main", lupicp.cli.main, (command,), {})
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
