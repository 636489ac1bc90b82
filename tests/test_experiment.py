import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from lupicp.experiment import (
    MODEL_KEYS,
    PROPER_FRACTION,
    TRAIN_FRACTION,
    ExperimentConfig,
    DatasetConfig,
    decision_features,
    fit_model,
    load_config,
    run_experiment,
    split_rows,
)
from lupicp.selection import (
    GridSpec,
    default_svm_grid,
    default_svmplus_grid,
    tune_three_step,
)
from conftest import write_experiment_config


def small_config(paths, **overrides):
    return ExperimentConfig(
        dataset=DatasetConfig(
            kind="triplet-files",
            x_path=str(paths["x"]),
            xstar_path=str(paths["xstar"]),
            labels_path=str(paths["labels"]),
        ),
        seed=5,
        repetitions=overrides.pop("repetitions", 2),
        cv_folds=2,
        grid_svm_x=GridSpec((1.0,), (0.5,)),
        grid_svm_xstar=GridSpec((1.0,), (0.2,)),
        grid_svmplus=GridSpec((1.0,), (0.1,)),
        **overrides,
    )


def strip_timings(report_dict):
    out = dict(report_dict)
    out.pop("timings")
    return out


def test_single_repetition_averages_equal_values(triplet_files):
    cfg = small_config(triplet_files, repetitions=1)
    report = run_experiment(cfg)
    for key in ("svm_x", "svm_xstar", "svmplus"):
        reps = report.per_model[key]["per_repetition"]
        assert len(reps) == 1
        for metric, value in report.per_model[key]["averages"].items():
            assert value == reps[0][metric]


def test_averages_are_exact_means(triplet_files):
    cfg = small_config(triplet_files, repetitions=3)
    report = run_experiment(cfg)
    for key in ("svm_x", "svm_xstar", "svmplus"):
        reps = report.per_model[key]["per_repetition"]
        assert len(reps) == 3
        for metric, value in report.per_model[key]["averages"].items():
            assert value == pytest.approx(
                np.mean([r[metric] for r in reps]), abs=1e-12
            )


def test_deterministic_reports(triplet_files):
    cfg1 = small_config(triplet_files)
    cfg2 = small_config(triplet_files)
    r1 = run_experiment(cfg1)
    r2 = run_experiment(cfg2)
    assert json.dumps(strip_timings(asdict(r1)), sort_keys=True) == json.dumps(
        strip_timings(asdict(r2)), sort_keys=True
    )


def test_counts_and_selected_parameters(triplet_files):
    cfg = small_config(triplet_files)
    report = run_experiment(cfg)
    assert report.counts["total"] == 60
    assert report.counts["train"] == 48
    assert report.counts["test"] == 12
    assert report.selected_parameters["svm_x"] == {
        "C": 1.0, "gamma": 0.5,
        "cv_accuracy": report.selected_parameters["svm_x"]["cv_accuracy"],
    }
    assert report.selected_parameters["svmplus"]["gamma1"] == 0.5
    assert report.selected_parameters["svmplus"]["gamma2"] == 0.2


def test_summary_table_mentions_all_models(triplet_files):
    report = run_experiment(small_config(triplet_files, repetitions=1))
    table = report.summary_table()
    for title in ("SVM on X", "SVM on X*", "SVM+"):
        assert title in table


def test_config_json_round_trip(tmp_path, triplet_files):
    path = write_experiment_config(tmp_path, triplet_files, seed=9, repetitions=4)
    cfg = load_config(path)
    assert cfg.seed == 9
    assert cfg.repetitions == 4
    assert cfg.grid_svm_x.C_values == (1.0,)
    assert cfg.grid_svmplus.gamma_values == (0.1,)
    assert len(cfg.epsilon_grid) == 99


def test_config_defaults_applied(tmp_path, triplet_files):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({
        "dataset": {
            "kind": "triplet-files",
            "x": {"path": str(triplet_files["x"])},
            "xstar": {"path": str(triplet_files["xstar"])},
            "labels": str(triplet_files["labels"]),
        },
    }))
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.repetitions == 10
    assert TRAIN_FRACTION == 0.8
    assert PROPER_FRACTION == 0.7
    assert cfg.cv_folds == 5
    assert cfg.grid_svm_x.C_values == (0.1, 1.0, 10.0, 100.0, 1000.0)


def test_readme_config_example_loads(tmp_path):
    # the documented keys are the accepted ones, and the grids it shows the
    # defaults
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration file", 1)[1]
    path = tmp_path / "config.json"
    path.write_text(section.split("```json\n", 1)[1].split("```", 1)[0], encoding="utf-8")
    cfg = load_config(path)
    assert cfg.dataset.xstar_format == "sparse-index-value"
    assert cfg.grid_svm_x == cfg.grid_svm_xstar == default_svm_grid()
    assert cfg.grid_svmplus == default_svmplus_grid()


def test_config_validation():
    ds = DatasetConfig(kind="triplet-files")
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=ds, repetitions=0)
    with pytest.raises(ValueError):
        ExperimentConfig(dataset=ds, cv_folds=1)
    with pytest.raises(ValueError, match="epsilon_grid must not be empty"):
        ExperimentConfig(dataset=ds, epsilon_grid=())
    for bad in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"epsilon_grid values must lie in \(0, 1\)"):
            ExperimentConfig(dataset=ds, epsilon_grid=(0.05, bad))


def test_tuning_returns_the_selected_parameters_shape(triplet_files):
    # one shape: what tuning returns is what the report holds and what
    # fit_model takes
    import lupicp.experiment as experiment

    cfg = small_config(triplet_files, repetitions=1)
    data = cfg.dataset.load()
    _, _, proper, _ = split_rows(cfg, data.y)
    X, Xstar, y = data.X[proper], data.Xstar[proper], data.y[proper]
    tuned = tune_three_step(X, Xstar, y, cfg.grid_svm_x, cfg.grid_svm_xstar,
                            cfg.grid_svmplus, k=cfg.cv_folds,
                            seed=experiment._split_seeds(cfg)[1])
    assert tuned == run_experiment(cfg).selected_parameters
    for key in MODEL_KEYS:
        model = fit_model(key, tuned[key], X, Xstar, y)
        assert model.decision_values(decision_features(key, X, Xstar)).shape == y.shape


def test_failed_repetition_is_isolated(triplet_files, monkeypatch):
    import lupicp.experiment as experiment
    from lupicp.svm import TrainingError

    real_train = experiment.svm_train
    calls = {"count": 0}

    def flaky(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == 3:  # second repetition's first model
            raise TrainingError("injected failure")
        return real_train(*args, **kwargs)

    monkeypatch.setattr(experiment, "svm_train", flaky)
    report = run_experiment(small_config(triplet_files, repetitions=3))
    assert [f["repetition"] for f in report.failed_repetitions] == [1]
    assert len(report.per_model["svm_x"]["per_repetition"]) == 2


def test_mostly_failed_repetitions_abort(triplet_files, monkeypatch):
    import lupicp.experiment as experiment
    from lupicp.experiment import ExperimentError
    from lupicp.svm import TrainingError

    def always_fails(*args, **kwargs):
        raise TrainingError("injected failure")

    monkeypatch.setattr(experiment, "svm_train", always_fails)
    with pytest.raises(ExperimentError):
        run_experiment(small_config(triplet_files, repetitions=2))


def test_repetition_defect_is_not_a_failed_repetition(triplet_files, monkeypatch):
    # only training failures are isolated per repetition; any other error
    # is a defect and stops the run
    import lupicp.experiment as experiment

    def broken(*args, **kwargs):
        raise ValueError("injected defect")

    monkeypatch.setattr(experiment, "svm_train", broken)
    with pytest.raises(ValueError, match="injected defect"):
        run_experiment(small_config(triplet_files))


@pytest.mark.parametrize("dataset", [
    DatasetConfig(kind="triplet-files", x_path="x.csv", xstar_path="xstar.txt",
                  xstar_format="sparse-index-value", labels_path="labels.txt"),
    DatasetConfig(kind="mnist-idx", images="images.idx", labels="labels.idx", limit=500),
], ids=["triplet-files", "mnist-idx"])
def test_echoed_config_loads_back(tmp_path, dataset):
    cfg = ExperimentConfig(dataset=dataset, seed=3, repetitions=2, cv_folds=4,
                           grid_svm_x=GridSpec((1.0, 10.0), (0.5,)),
                           grid_svmplus=GridSpec((0.5,), (0.01, 0.1)),
                           epsilon_grid=(0.05, 0.1))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.echo()), encoding="utf-8")
    assert load_config(path) == cfg


def test_report_config_loads_back(tmp_path, triplet_files):
    cfg = small_config(triplet_files, repetitions=1)
    report = json.loads(run_experiment(cfg).to_json())
    path = tmp_path / "config.json"
    path.write_text(json.dumps(report["config"]), encoding="utf-8")
    assert load_config(path) == cfg
    assert report["protocol"] == {"train_fraction": TRAIN_FRACTION,
                                  "proper_fraction": PROPER_FRACTION, "qp_tol": 1e-8}
