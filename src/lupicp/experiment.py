"""End-to-end experiment driver.

One run performs, in order: a fixed stratified 80/20 train/test split;
one 70/30 proper-training/calibration split used only for tuning; the
three-step hyperparameter search; then N repetitions that re-split the
training set 70/30, train all three models (SVM on X, SVM on X*, SVM+)
on the proper part, calibrate on the held-out part, and score the fixed
test set for accuracy, validity deviation and observed fuzziness.
Averages over repetitions are reported alongside per-repetition values.

Everything is driven by integer seeds, so re-running a configuration
reproduces every non-timing report field byte for byte.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .conformal import (
    accuracy,
    calibrate,
    default_epsilon_grid,
    observed_fuzziness,
    pairs_from_decision_values,
    validity_deviation,
)
from .dataio import (
    FEATURE_FORMATS,
    MNIST_LIMIT,
    DataFormatError,
    TripletDataset,
    load_feature_file,
    load_labels,
    load_mnist_5v8,
)
from .kernels import KernelSpec
from .selection import (
    GridSpec,
    default_svm_grid,
    default_svmplus_grid,
    stratified_split,
    tune_three_step,
)
from .qp import TOL, QpError
from .svm import SvmConfig, TrainingError, sign_labels, svm_train
from .svmplus import SvmPlusConfig, svmplus_train

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "ExperimentError",
    "run_experiment",
    "fit_model",
    "decision_features",
    "split_rows",
    "tune_for_config",
    "load_config",
]

logger = logging.getLogger(__name__)

MODEL_KEYS = ("svm_x", "svm_xstar", "svmplus")
MODEL_TITLES = {
    "svm_x": "SVM on X",
    "svm_xstar": "SVM on X*",
    "svmplus": "SVM+ on X with X* as PI",
}
# the study's stratified splits: train/test, then proper/calibration
TRAIN_FRACTION = 0.8
PROPER_FRACTION = 0.7


class ExperimentError(Exception):
    """More than half of the repetitions failed."""


@dataclass
class DatasetConfig:
    """Where the triplets come from.

    ``kind`` is either ``mnist-idx`` (fields: images, labels, limit) or
    ``triplet-files`` (fields: x/xstar paths + formats, labels path).
    """

    kind: str
    images: str | None = None
    labels: str | None = None
    limit: int = MNIST_LIMIT
    x_path: str | None = None
    x_format: str = "dense-csv"
    xstar_path: str | None = None
    xstar_format: str = "dense-csv"
    labels_path: str | None = None

    def load(self) -> TripletDataset:
        if self.kind == "mnist-idx":
            return load_mnist_5v8(self.images, self.labels, limit=self.limit)
        if self.kind == "triplet-files":
            X = load_feature_file(self.x_path, self.x_format)
            Xstar = load_feature_file(self.xstar_path, self.xstar_format)
            y = load_labels(self.labels_path)
            return TripletDataset(X=X, Xstar=Xstar, y=y)
        raise ValueError(f"unknown dataset kind {self.kind!r}")

    def echo(self) -> dict:
        """The ``dataset`` section of a config file that loads this back."""
        if self.kind == "mnist-idx":
            return {"kind": self.kind, "images": self.images, "labels": self.labels,
                    "limit": self.limit}
        return {"kind": self.kind,
                "x": {"path": self.x_path, "format": self.x_format},
                "xstar": {"path": self.xstar_path, "format": self.xstar_format},
                "labels": self.labels_path}


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig
    seed: int = 7
    repetitions: int = 10
    cv_folds: int = 5
    grid_svm_x: GridSpec = field(default_factory=default_svm_grid)
    grid_svm_xstar: GridSpec = field(default_factory=default_svm_grid)
    grid_svmplus: GridSpec = field(default_factory=default_svmplus_grid)
    epsilon_grid: tuple = field(
        default_factory=lambda: tuple(float(e) for e in default_epsilon_grid())
    )

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be at least 2")
        if not self.epsilon_grid:
            raise ValueError("epsilon_grid must not be empty")
        for e in self.epsilon_grid:
            if not (0.0 < e < 1.0):
                raise ValueError(f"epsilon_grid values must lie in (0, 1), got {e}")

    def echo(self) -> dict:
        """The settings the run used, in the shape :func:`load_config` reads."""
        return {
            "dataset": self.dataset.echo(),
            "seed": self.seed,
            "repetitions": self.repetitions,
            "cv_folds": self.cv_folds,
            "grids": {key: _grid_dict(getattr(self, f"grid_{key}"), width)
                      for key, (_, width) in _GRIDS.items()},
            "epsilon_grid": list(self.epsilon_grid),
        }


# the protocol's fixed numbers, which a config cannot set
PROTOCOL = {"train_fraction": TRAIN_FRACTION, "proper_fraction": PROPER_FRACTION,
            "qp_tol": TOL}


def _grid_dict(grid: GridSpec, width: str) -> dict:
    return {"C": list(grid.C_values), width: list(grid.gamma_values)}


def _grid_from_dict(raw, fallback: GridSpec, width: str, path, name: str) -> GridSpec:
    """A grid from its config entry: ``C`` and the width key ``width``
    (``gamma``, or ``gamma_plus`` for SVM+), each defaulting to ``fallback``."""
    if raw is None:
        return fallback
    _require(isinstance(raw, dict), path, name, "an object", raw)
    _known(raw, ("C", width), path, f"{name}.")
    given = {key: _numbers(raw[key], path, f"{name}.{key}")
             for key in ("C", width) if key in raw}
    return GridSpec(C_values=given.get("C", fallback.C_values),
                    gamma_values=given.get(width, fallback.gamma_values))


def _require(ok: bool, path, name: str, kind: str, value) -> None:
    """A config field of the wrong shape or type names the file and the field."""
    if not ok:
        raise DataFormatError(f"'{name}' must be {kind}, got {json.dumps(value)}", path)


def _known(section: dict, keys, path, prefix: str) -> None:
    """A key outside ``keys`` names the file and the key's path,
    ``prefix`` followed by the key."""
    for key in section:
        if key not in keys:
            raise DataFormatError(f"unknown key '{prefix}{key}'", path)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value, path, name: str) -> tuple:
    _require(isinstance(value, list) and all(map(_is_number, value)), path, name,
             "a list of numbers", value)
    return tuple(float(v) for v in value)


def _integer(value, path, name: str) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), path, name,
             "an integer", value)
    return value


# top-level integer config keys; absent keys keep the ExperimentConfig defaults
_INTEGER_KEYS = ("seed", "repetitions", "cv_folds")
_TOP_KEYS = ("dataset", *_INTEGER_KEYS, "grids", "epsilon_grid")
# each grid's config key, default and width key
_GRIDS = {"svm_x": (default_svm_grid, "gamma"), "svm_xstar": (default_svm_grid, "gamma"),
          "svmplus": (default_svmplus_grid, "gamma_plus")}

# the dataset section's keys for each kind
_DATASET_KEYS = {"mnist-idx": ("kind", "images", "labels", "limit"),
                 "triplet-files": ("kind", "x", "xstar", "labels")}
# the DatasetConfig paths each dataset kind needs, by their config-file names
_DATASET_PATHS = {
    "mnist-idx": {"images": "images", "labels": "labels"},
    "triplet-files": {"x_path": "x.path", "xstar_path": "xstar.path",
                      "labels_path": "labels"},
}


def load_config(path) -> ExperimentConfig:
    """Experiment configuration from a JSON file (missing keys default).

    A file that is not a JSON object, an unknown key, a missing
    ``dataset.kind``, or a field of the wrong shape or type, is a
    ``DataFormatError`` that names the file and the field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DataFormatError(f"not a JSON config: {exc}", path) from exc
    if not isinstance(raw, dict):
        raise DataFormatError("config must be a JSON object", path)
    _known(raw, _TOP_KEYS, path, "")
    ds = raw.get("dataset", {})
    _require(isinstance(ds, dict), path, "dataset", "an object", ds)
    if "kind" not in ds:
        raise DataFormatError("config needs 'dataset.kind'", path)
    kind = ds["kind"]
    _require(isinstance(kind, str), path, "dataset.kind", "a string", kind)
    if kind not in _DATASET_KEYS:
        raise ValueError(f"{path}: unknown dataset kind {kind!r}")
    _known(ds, _DATASET_KEYS[kind], path, "dataset.")
    if kind == "mnist-idx":
        fields = {"images": ds.get("images"), "labels": ds.get("labels")}
        if "limit" in ds:
            fields["limit"] = _integer(ds["limit"], path, "dataset.limit")
    else:
        fields = {"labels_path": ds.get("labels")}
        for space in ("x", "xstar"):
            part = ds.get(space)
            part = part if isinstance(part, dict) else {}
            _known(part, ("path", "format"), path, f"dataset.{space}.")
            fields[f"{space}_path"] = part.get("path")
            if "format" in part:
                fmt = part["format"]
                _require(isinstance(fmt, str), path, f"dataset.{space}.format",
                         "a string", fmt)
                if fmt not in FEATURE_FORMATS:
                    raise ValueError(f"{path}: unknown feature format {fmt!r} "
                                     f"in 'dataset.{space}.format'")
                fields[f"{space}_format"] = fmt
    for name, config_name in _DATASET_PATHS[kind].items():
        if not isinstance(fields[name], str):
            raise DataFormatError(f"dataset section needs a path '{config_name}'", path)
    settings = {key: _integer(raw[key], path, key) for key in _INTEGER_KEYS if key in raw}
    if "epsilon_grid" in raw:
        settings["epsilon_grid"] = _numbers(raw["epsilon_grid"], path, "epsilon_grid")
    grids = raw.get("grids", {})
    _require(isinstance(grids, dict), path, "grids", "an object", grids)
    _known(grids, _GRIDS, path, "grids.")
    for key, (default, width) in _GRIDS.items():
        settings[f"grid_{key}"] = _grid_from_dict(grids.get(key), default(), width, path,
                                                  f"grids.{key}")
    return ExperimentConfig(dataset=DatasetConfig(kind=kind, **fields), **settings)


@dataclass
class ExperimentReport:
    config: dict
    protocol: dict
    selected_parameters: dict
    per_model: dict
    counts: dict
    timings: dict
    failed_repetitions: list

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def summary_table(self) -> str:
        lines = [
            f"{'model':<28} {'accuracy':>10} {'validity':>10} {'fuzziness':>10}",
        ]
        for key in MODEL_KEYS:
            avg = self.per_model[key]["averages"]
            lines.append(
                f"{MODEL_TITLES[key]:<28} {avg['accuracy']:>10.6f} "
                f"{avg['validity_deviation']:>10.6f} "
                f"{avg['observed_fuzziness']:>10.6f}"
            )
        return "\n".join(lines)


def _split_seeds(cfg: ExperimentConfig) -> list:
    # one stream per split keeps repetitions independent yet reproducible:
    # [train/test, proper/calibration and tuning folds, repetition 0, ...]
    state = np.random.SeedSequence(cfg.seed).generate_state(2 + cfg.repetitions)
    return [int(s) for s in state]


def split_rows(cfg: ExperimentConfig, y):
    """The run's fixed splits as absolute row indices.

    Returns (train, test, proper, calibration): the stratified train/test
    split, then the proper-training/calibration split of the training
    rows, on which tuning cross-validates and ``lupicp train`` fits and
    calibrates.
    """
    seeds = _split_seeds(cfg)
    outer = stratified_split(y, TRAIN_FRACTION, seed=seeds[0])
    inner = stratified_split(y[outer.first], PROPER_FRACTION, seed=seeds[1])
    train = outer.first
    return train, outer.second, train[inner.first], train[inner.second]


def tune_for_config(cfg: ExperimentConfig, data: TripletDataset) -> dict:
    """Three-step tuning on the proper-training rows; the selected
    parameters of each model with their mean CV accuracy."""
    _, _, proper, _ = split_rows(cfg, data.y)
    selected = tune_three_step(
        data.X[proper], data.Xstar[proper], data.y[proper],
        cfg.grid_svm_x, cfg.grid_svm_xstar, cfg.grid_svmplus,
        k=cfg.cv_folds, seed=_split_seeds(cfg)[1],
    )
    x, xstar, plus = (selected[key] for key in MODEL_KEYS)
    logger.info(
        "selected parameters: svm_x=(C=%g, gamma=%g) svm_xstar=(C=%g, gamma=%g) "
        "svmplus=(C=%g, gamma_plus=%g)",
        x["C"], x["gamma"], xstar["C"], xstar["gamma"], plus["C"], plus["gamma_plus"],
    )
    return selected


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the full protocol and aggregate the report."""
    t_start = time.perf_counter()
    data = cfg.dataset.load()

    t_tune = time.perf_counter()
    selected = tune_for_config(cfg, data)
    tuning_seconds = time.perf_counter() - t_tune

    train, test, _, _ = split_rows(cfg, data.y)
    assert np.intersect1d(train, test).size == 0

    per_rep = {key: [] for key in MODEL_KEYS}
    rep_seconds = []
    failed = []
    for rep, split_seed in enumerate(_split_seeds(cfg)[2:]):
        t_rep = time.perf_counter()
        try:
            metrics = _one_repetition(cfg, selected, data, train, test, split_seed)
        except (TrainingError, QpError) as exc:  # repetition isolation
            logger.warning("repetition %d failed: %s", rep, exc)
            failed.append({"repetition": rep, "error": str(exc)})
            continue
        for key in MODEL_KEYS:
            per_rep[key].append(metrics[key])
        rep_seconds.append(time.perf_counter() - t_rep)

    if len(failed) > cfg.repetitions / 2:
        raise ExperimentError(
            f"{len(failed)} of {cfg.repetitions} repetitions failed"
        )

    per_model = {}
    for key in MODEL_KEYS:
        reps = per_rep[key]
        per_model[key] = {
            "per_repetition": reps,
            "averages": {
                metric: float(np.mean([r[metric] for r in reps]))
                for metric in ("accuracy", "validity_deviation", "observed_fuzziness")
            },
        }

    report = ExperimentReport(
        config=cfg.echo(),
        protocol=dict(PROTOCOL),
        selected_parameters=selected,
        per_model=per_model,
        counts={
            "total": int(data.n),
            "train": int(train.shape[0]),
            "test": int(test.shape[0]),
        },
        timings={
            "tuning_seconds": tuning_seconds,
            "repetition_seconds": rep_seconds,
            "total_seconds": time.perf_counter() - t_start,
        },
        failed_repetitions=failed,
    )
    return report


def fit_model(key, params, X, Xstar, y):
    """Train the model that ``key`` (one of MODEL_KEYS) names on the
    training rows (X, X*, y), with ``params`` shaped like that model's
    ``selected_parameters`` entry."""
    if key == "svmplus":
        cfg = SvmPlusConfig(
            C=params["C"],
            gamma_plus=params["gamma_plus"],
            decision_kernel=KernelSpec(gamma=params["gamma1"]),
            correcting_kernel=KernelSpec(gamma=params["gamma2"]),
        )
        return svmplus_train(X, Xstar, y, cfg)
    cfg = SvmConfig(C=params["C"], kernel=KernelSpec(gamma=params["gamma"]))
    return svm_train(decision_features(key, X, Xstar), y, cfg)


def decision_features(key, X, Xstar):
    """The feature space the model ``key`` decides on: X* for SVM on X*,
    X for the others (SVM+ sees X* only in training)."""
    return Xstar if key == "svm_xstar" else X


def _one_repetition(cfg, selected, data, train, test, split_seed):
    """Re-split the training rows ``train`` (absolute row indices of
    ``data``), fit every model on the proper part, calibrate on the rest
    and score the fixed ``test`` rows."""
    inner = stratified_split(data.y[train], PROPER_FRACTION, seed=split_seed)
    proper, cal = train[inner.first], train[inner.second]
    # the external test set must never leak into training or calibration
    assert np.intersect1d(proper, test).size == 0
    assert np.intersect1d(cal, test).size == 0
    assert np.intersect1d(proper, cal).size == 0

    X_p, Xs_p, y_p = data.X[proper], data.Xstar[proper], data.y[proper]
    models = {
        key: fit_model(key, selected[key], X_p, Xs_p, y_p) for key in MODEL_KEYS
    }
    eps_grid = np.asarray(cfg.epsilon_grid)
    y_c, y_test = data.y[cal], data.y[test]
    metrics = {}
    for key, model in models.items():
        features = decision_features(key, data.X, data.Xstar)
        table = calibrate(model, features[cal], y_c)
        test_values = model.decision_values(features[test])
        pvalues = pairs_from_decision_values(table, test_values)
        metrics[key] = {
            "accuracy": accuracy(sign_labels(test_values), y_test),
            "validity_deviation": validity_deviation(pvalues, y_test, eps_grid).pooled,
            "observed_fuzziness": observed_fuzziness(pvalues, y_test),
        }
    return metrics
