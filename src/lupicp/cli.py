"""Command-line driver.

Exit codes: 0 success, 1 usage error, 2 data/format error,
3 numerical/convergence error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .conformal import calibrate, pairs_from_decision_values, predict_region
from .dataio import (FEATURE_FORMATS, MNIST_LIMIT, DataFormatError, line_blocks, load_feature_file,
                     read_dense_csv_range, write_feature_file, write_labels)
from .model_io import load_calibration, load_model, save_calibration, save_model
from .workers import available_cpus, map_parts
from . import decision

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

DATA_ERRORS = (DataFormatError, FileNotFoundError, IsADirectoryError)
# (module, class) of each numerical error.  The training modules load only
# in the commands that train, so predict imports none of them; an error of
# a module that is not loaded cannot have been raised.
NUMERICAL_ERRORS = (("lupicp.qp", "QpError"), ("lupicp.svm", "TrainingError"),
                    ("lupicp.selection", "SearchError"),
                    ("lupicp.experiment", "ExperimentError"))


def _numerical_errors() -> tuple:
    """The numerical error classes of the loaded modules."""
    return tuple(getattr(sys.modules[module], name)
                 for module, name in NUMERICAL_ERRORS if module in sys.modules)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _epsilon(text: str) -> float:
    """A significance level: a real in (0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lupicp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tune", parents=[], help="run the three-step tuning protocol")
    p.add_argument("--config", required=True, help="experiment config (JSON)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="write selected parameters as JSON")

    p = sub.add_parser("train", help="fit one named model and serialize it")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, choices=["svm-x", "svm-xstar", "svm-plus"])
    p.add_argument("--cost", type=float, required=True, help="cost parameter C")
    p.add_argument("--gamma", type=float, help="kernel width (svm-x / svm-xstar)")
    p.add_argument("--gamma-plus", type=float, help="correcting weight (svm-plus)")
    p.add_argument("--gamma1", type=float, help="decision kernel width (svm-plus)")
    p.add_argument("--gamma2", type=float, help="correcting kernel width (svm-plus)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--calibration-out", help="calibration table output path")

    p = sub.add_parser("predict", help="emit p-value pairs and regions")
    p.add_argument("--model", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--input", required=True, help="feature file to score")
    p.add_argument("--format", default="dense-csv", choices=FEATURE_FORMATS)
    p.add_argument("--epsilon", type=_epsilon, default=0.05,
                   help="significance level, in (0, 1)")
    p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("experiment", help="run the full study protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--reps", type=int, help="override the repetition count")
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("mnist-prepare", help="materialize 5-vs-8 triplet files")
    p.add_argument("--images", required=True, help="IDX image file")
    p.add_argument("--labels", required=True, help="IDX label file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--limit", type=int, default=MNIST_LIMIT)
    return parser


def _experiment():
    """:mod:`lupicp.experiment`, and with it the training stack and
    ``scipy.linalg``, for the commands that train.  ``scipy.sparse`` loads
    first, as when every command imported it at start-up: in the other
    order the benchmark's sparse-X* train (``fit_sparse``) kept 23 MB more
    once the SVM+ dual's temporaries were freed, and peaked at 228.7 MB
    instead of 217.7 MB."""
    import scipy.sparse  # noqa: F401

    from . import experiment

    return experiment


def _load_config(args):
    """The config file with the --seed and --reps overrides, validated as
    the file's own values are."""
    overrides = {
        field: getattr(args, flag)
        for field, flag in (("seed", "seed"), ("repetitions", "reps"))
        if getattr(args, flag, None) is not None
    }
    return dataclasses.replace(_experiment().load_config(args.config), **overrides)


def cmd_tune(args) -> int:
    cfg = _load_config(args)
    text = json.dumps(_experiment().tune_for_config(cfg, cfg.dataset.load()), indent=2,
                      sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


# --model choice -> (experiment model key, its parameter flags, usage text)
TRAIN_MODELS = {
    "svm-x": ("svm_x", ("gamma",), "svm-x / svm-xstar"),
    "svm-xstar": ("svm_xstar", ("gamma",), "svm-x / svm-xstar"),
    "svm-plus": ("svmplus", ("gamma_plus", "gamma1", "gamma2"), "svm-plus"),
}


def cmd_train(args) -> int:
    key, names, needed_by = TRAIN_MODELS[args.model]
    for name in names:
        if getattr(args, name) is None:
            _usage_error(f"--{name.replace('_', '-')} is required for {needed_by}")
    params = {"C": args.cost, **{name: getattr(args, name) for name in names}}
    cfg = _load_config(args)
    data = cfg.dataset.load()
    experiment = _experiment()
    _, _, proper, cal = experiment.split_rows(cfg, data.y)
    model = experiment.fit_model(key, params, data.X[proper], data.Xstar[proper],
                                 data.y[proper])
    save_model(args.out, model)
    print(f"model written to {args.out}")
    if args.calibration_out:
        cal_features = experiment.decision_features(key, data.X, data.Xstar)[cal]
        table = calibrate(model, cal_features, data.y[cal])
        save_calibration(args.calibration_out, table)
        print(f"calibration table written to {args.calibration_out}")
    return EXIT_OK


def _usage_error(message):
    print(f"lupicp: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


# region text indexed by (-1 in region) + 2 * (+1 in region)
REGION_TEXT = ("", "-1", "+1", "-1,+1")


# The predict path as the library binds it.  A tuple: rebinding every
# module global bound to one of these functions leaves its entries alone.
_LIBRARY_PREDICT_PATH = (load_feature_file, pairs_from_decision_values,
                         predict_region, decision.gram_matrix)


def cmd_predict(args) -> int:
    model = load_model(args.model)
    table = load_calibration(args.calibration)

    def predict_text(X) -> str:
        pvalues = pairs_from_decision_values(table, model.decision_values(X))
        regions = predict_region(pvalues, args.epsilon)
        codes = (regions[:, 0] + 2 * regions[:, 1]).tolist()
        return "\n".join(
            f"{p_minus:.6f}\t{p_plus:.6f}\t{REGION_TEXT[code]}"
            for (p_minus, p_plus), code in zip(pvalues.tolist(), codes)
        )

    texts = _pooled_predict(args.input, args.format, model, predict_text)
    if texts is None:
        X = load_feature_file(args.input, args.format)
        width = model.support_vectors.shape[1]
        if X.shape[1] != width:
            raise DataFormatError(f"{X.shape[1]} features per row, but the model "
                                  f"was trained on {width}", path=args.input)
        texts = [predict_text(X)]
    text = "\n".join(texts)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_OK


def _pooled_predict(path, format, model, predict_text):
    """``predict_text`` of each ``decision_values`` row block of a dense CSV
    file, in file order, run by one forked worker per available CPU; each
    worker parses and scores its blocks, dealt round-robin, and sends back
    only their text.  None, which keeps predict in this process, for a file
    of at most one block or not in dense CSV, on one CPU or without fork,
    when a predict-path lookup (``load_feature_file``,
    ``pairs_from_decision_values`` or ``predict_region`` in this module,
    ``gram_matrix`` in :mod:`lupicp.decision`) has been replaced, and when a block
    does not parse to its line count of rows of the model's width (a blank
    line, say, or a malformed row), whose error the in-process read names."""
    lookups = (load_feature_file, pairs_from_decision_values, predict_region,
               decision.gram_matrix)
    cpus = available_cpus()
    if (format != "dense-csv" or cpus == 1
            or any(now is not own for now, own in zip(lookups, _LIBRARY_PREDICT_PATH))):
        return None
    try:
        blocks = line_blocks(path, model.block_rows)
    except OSError:  # the in-process read reports it
        return None
    workers = min(cpus, len(blocks))
    if workers <= 1:
        return None
    width = model.support_vectors.shape[1]

    def run_part(part):
        texts = []
        for start, stop, rows in blocks[part::workers]:
            try:
                X = read_dense_csv_range(path, start, stop)
            except ValueError:
                return None
            if X.shape != (rows, width):
                return None
            texts.append(predict_text(X))
        return texts

    parts = map_parts(run_part, workers)
    if any(part is None for part in parts):
        return None
    return [parts[block % workers][block // workers] for block in range(len(blocks))]


def cmd_experiment(args) -> int:
    report = _experiment().run_experiment(_load_config(args))
    print(report.summary_table())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"report written to {args.out}")
    return EXIT_OK


def cmd_mnist_prepare(args) -> int:
    from .dataio import load_mnist_5v8

    data = load_mnist_5v8(args.images, args.labels, limit=args.limit)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_feature_file(out / "x.csv", data.X, "dense-csv")
    write_feature_file(out / "xstar.csv", data.Xstar, "dense-csv")
    write_labels(out / "labels.txt", data.y)
    print(f"wrote {data.n} examples to {out}/(x.csv, xstar.csv, labels.txt)")
    return EXIT_OK


COMMANDS = {
    "tune": cmd_tune,
    "train": cmd_train,
    "predict": cmd_predict,
    "experiment": cmd_experiment,
    "mnist-prepare": cmd_mnist_prepare,
}


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except DATA_ERRORS as exc:
        print(f"lupicp: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _numerical_errors() as exc:
        print(f"lupicp: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"lupicp: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
