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
from dataclasses import dataclass, field

import numpy as np

from .conformal import (
    accuracy,
    calibrate,
    default_epsilon_grid,
    observed_fuzziness,
    pairs_from_decision_values,
    validity_deviation,
)
from .dataio import TripletDataset, assemble_triplet, load_feature_file, load_labels, load_mnist_5v8
from .kernels import KernelSpec
from .selection import (
    GridSpec,
    SplitPlan,
    default_svm_grid,
    default_svmplus_grid,
    stratified_split,
    tune_three_step,
)
from .svm import SvmConfig, svm_train
from .svmplus import SvmPlusConfig, svmplus_train

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "ExperimentError",
    "run_experiment",
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
    limit: int = 4000
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
            return assemble_triplet(X, Xstar, y, provenance=str(self.labels_path))
        raise ValueError(f"unknown dataset kind {self.kind!r}")

    def paths(self):
        if self.kind == "mnist-idx":
            return [self.images, self.labels]
        return [self.x_path, self.xstar_path, self.labels_path]


@dataclass
class ExperimentConfig:
    dataset: DatasetConfig
    seed: int = 7
    repetitions: int = 10
    train_fraction: float = 0.8
    proper_fraction: float = 0.7
    cv_folds: int = 5
    grid_svm_x: GridSpec = field(default_factory=default_svm_grid)
    grid_svm_xstar: GridSpec = field(default_factory=default_svm_grid)
    grid_svmplus: GridSpec = field(default_factory=default_svmplus_grid)
    epsilon_grid: tuple = field(
        default_factory=lambda: tuple(float(e) for e in default_epsilon_grid())
    )
    qp_tol: float = 1e-8

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError("train_fraction must lie in (0, 1)")
        if not (0.0 < self.proper_fraction < 1.0):
            raise ValueError("proper_fraction must lie in (0, 1)")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be at least 2")

    def echo(self) -> dict:
        return {
            "dataset": {k: v for k, v in vars(self.dataset).items() if v is not None},
            "seed": self.seed,
            "repetitions": self.repetitions,
            "train_fraction": self.train_fraction,
            "proper_fraction": self.proper_fraction,
            "cv_folds": self.cv_folds,
            "grids": {
                "svm_x": _grid_dict(self.grid_svm_x),
                "svm_xstar": _grid_dict(self.grid_svm_xstar),
                "svmplus": _grid_dict(self.grid_svmplus),
            },
            "epsilon_grid": list(self.epsilon_grid),
            "qp_tol": self.qp_tol,
        }


def _grid_dict(grid: GridSpec) -> dict:
    return {"C": list(grid.C_values), "gamma": list(grid.gamma_values)}


def _grid_from_dict(raw: dict, fallback: GridSpec) -> GridSpec:
    if raw is None:
        return fallback
    return GridSpec(
        C_values=raw.get("C", fallback.C_values),
        gamma_values=raw.get("gamma", raw.get("gamma_plus", fallback.gamma_values)),
    )


def load_config(path) -> ExperimentConfig:
    """Experiment configuration from a JSON file (missing keys default)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    ds = raw.get("dataset")
    if not isinstance(ds, dict) or "kind" not in ds:
        raise ValueError(f"{path}: config needs a dataset section with a 'kind'")
    if ds["kind"] == "mnist-idx":
        dataset = DatasetConfig(
            kind="mnist-idx",
            images=ds.get("images"),
            labels=ds.get("labels"),
            limit=int(ds.get("limit", 4000)),
        )
    elif ds["kind"] == "triplet-files":
        dataset = DatasetConfig(
            kind="triplet-files",
            x_path=ds.get("x", {}).get("path"),
            x_format=ds.get("x", {}).get("format", "dense-csv"),
            xstar_path=ds.get("xstar", {}).get("path"),
            xstar_format=ds.get("xstar", {}).get("format", "dense-csv"),
            labels_path=ds.get("labels"),
        )
    else:
        raise ValueError(f"{path}: unknown dataset kind {ds['kind']!r}")
    grids = raw.get("grids", {})
    return ExperimentConfig(
        dataset=dataset,
        seed=int(raw.get("seed", 7)),
        repetitions=int(raw.get("repetitions", 10)),
        train_fraction=float(raw.get("train_fraction", 0.8)),
        proper_fraction=float(raw.get("proper_fraction", 0.7)),
        cv_folds=int(raw.get("cv_folds", 5)),
        grid_svm_x=_grid_from_dict(grids.get("svm_x"), default_svm_grid()),
        grid_svm_xstar=_grid_from_dict(grids.get("svm_xstar"), default_svm_grid()),
        grid_svmplus=_grid_from_dict(grids.get("svmplus"), default_svmplus_grid()),
        epsilon_grid=tuple(
            float(e) for e in raw.get("epsilon_grid", default_epsilon_grid())
        ),
        qp_tol=float(raw.get("qp_tol", 1e-8)),
    )


@dataclass
class ExperimentReport:
    config: dict
    selected_parameters: dict
    per_model: dict
    counts: dict
    timings: dict
    failed_repetitions: list

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "selected_parameters": self.selected_parameters,
            "per_model": self.per_model,
            "counts": self.counts,
            "timings": self.timings,
            "failed_repetitions": self.failed_repetitions,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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
    outer = stratified_split(y, cfg.train_fraction, seed=seeds[0])
    inner = stratified_split(y[outer.first], cfg.proper_fraction, seed=seeds[1])
    train = outer.first
    return train, outer.second, train[inner.first], train[inner.second]


def tune_for_config(cfg: ExperimentConfig, data: TripletDataset) -> dict:
    """Three-step tuning on the proper-training rows; the selected
    parameters of each model with their mean CV accuracy."""
    _, _, proper, _ = split_rows(cfg, data.y)
    tuned = tune_three_step(
        data.X[proper], data.Xstar[proper], data.y[proper],
        cfg.grid_svm_x, cfg.grid_svm_xstar, cfg.grid_svmplus,
        k=cfg.cv_folds, seed=_split_seeds(cfg)[1], tol=cfg.qp_tol,
    )
    logger.info(
        "selected parameters: svm_x=(C=%g, gamma=%g) svm_xstar=(C=%g, gamma=%g) "
        "svmplus=(C=%g, gamma_plus=%g)",
        tuned.svm_x.C, tuned.svm_x.gamma, tuned.svm_xstar.C, tuned.svm_xstar.gamma,
        tuned.svmplus.C, tuned.svmplus.gamma,
    )
    return {
        "svm_x": {"C": tuned.svm_x.C, "gamma": tuned.svm_x.gamma,
                  "cv_accuracy": tuned.svm_x.mean_accuracy},
        "svm_xstar": {"C": tuned.svm_xstar.C, "gamma": tuned.svm_xstar.gamma,
                      "cv_accuracy": tuned.svm_xstar.mean_accuracy},
        "svmplus": {"C": tuned.svmplus.C, "gamma_plus": tuned.svmplus.gamma,
                    "gamma1": tuned.svm_x.gamma, "gamma2": tuned.svm_xstar.gamma,
                    "cv_accuracy": tuned.svmplus.mean_accuracy},
    }


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the full protocol and aggregate the report."""
    t_start = time.perf_counter()
    data = cfg.dataset.load()

    t_tune = time.perf_counter()
    selected = tune_for_config(cfg, data)
    tuning_seconds = time.perf_counter() - t_tune

    train_idx, test_idx, _, _ = split_rows(cfg, data.y)
    assert np.intersect1d(train_idx, test_idx).size == 0
    X_test, Xstar_test, y_test = data.X[test_idx], data.Xstar[test_idx], data.y[test_idx]
    X_train, Xstar_train, y_train = (
        data.X[train_idx], data.Xstar[train_idx], data.y[train_idx],
    )

    per_rep = {key: [] for key in MODEL_KEYS}
    rep_seconds = []
    failed = []
    for rep, split_seed in enumerate(_split_seeds(cfg)[2:]):
        t_rep = time.perf_counter()
        try:
            metrics = _one_repetition(
                cfg, selected, X_train, Xstar_train, y_train,
                X_test, Xstar_test, y_test,
                split_seed=split_seed, test_idx=test_idx, train_idx=train_idx,
            )
        except Exception as exc:  # noqa: BLE001 - repetition isolation
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
        selected_parameters=selected,
        per_model=per_model,
        counts={
            "total": int(data.n),
            "train": int(train_idx.shape[0]),
            "test": int(test_idx.shape[0]),
        },
        timings={
            "tuning_seconds": tuning_seconds,
            "repetition_seconds": rep_seconds,
            "total_seconds": time.perf_counter() - t_start,
        },
        failed_repetitions=failed,
    )
    return report


def _one_repetition(cfg, selected, X_train, Xstar_train, y_train,
                    X_test, Xstar_test, y_test, split_seed, test_idx, train_idx):
    inner: SplitPlan = stratified_split(y_train, cfg.proper_fraction, seed=split_seed)
    proper, cal = inner.first, inner.second
    # the external test set must never leak into training or calibration
    assert np.intersect1d(train_idx[proper], test_idx).size == 0
    assert np.intersect1d(train_idx[cal], test_idx).size == 0
    assert np.intersect1d(proper, cal).size == 0

    X_p, Xs_p, y_p = X_train[proper], Xstar_train[proper], y_train[proper]
    X_c, Xs_c, y_c = X_train[cal], Xstar_train[cal], y_train[cal]

    p_x, p_xstar, p_plus = (selected[key] for key in MODEL_KEYS)
    svm_x = svm_train(
        X_p, y_p,
        SvmConfig(C=p_x["C"], kernel=KernelSpec(gamma=p_x["gamma"])),
        tol=cfg.qp_tol,
    )
    svm_xstar = svm_train(
        Xs_p, y_p,
        SvmConfig(C=p_xstar["C"], kernel=KernelSpec(gamma=p_xstar["gamma"])),
        tol=cfg.qp_tol,
    )
    svmplus = svmplus_train(
        X_p, Xs_p, y_p,
        SvmPlusConfig(
            C=p_plus["C"],
            gamma_plus=p_plus["gamma_plus"],
            decision_kernel=KernelSpec(gamma=p_plus["gamma1"]),
            correcting_kernel=KernelSpec(gamma=p_plus["gamma2"]),
        ),
        tol=cfg.qp_tol,
    )

    eps_grid = np.asarray(cfg.epsilon_grid)
    metrics = {}
    evaluations = (
        ("svm_x", svm_x, X_c, X_test),
        ("svm_xstar", svm_xstar, Xs_c, Xstar_test),
        ("svmplus", svmplus, X_c, X_test),
    )
    for key, model, cal_features, test_features in evaluations:
        table = calibrate(model, cal_features, y_c)
        test_values = model.decision_values(test_features)
        pvalues = pairs_from_decision_values(table, test_values)
        predictions = np.where(test_values >= 0.0, 1, -1)
        metrics[key] = {
            "accuracy": accuracy(predictions, y_test),
            "validity_deviation": validity_deviation(pvalues, y_test, eps_grid).pooled,
            "observed_fuzziness": observed_fuzziness(pvalues, y_test),
        }
    return metrics
