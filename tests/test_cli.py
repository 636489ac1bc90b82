import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import lupicp
from lupicp.cli import main
from lupicp.dataio import load_feature_file, write_feature_file
from conftest import triplet_blobs, write_experiment_config
from oracles import write_idx_images, write_idx_labels


@pytest.fixture
def config_path(tmp_path, triplet_files):
    return write_experiment_config(tmp_path, triplet_files)


def test_usage_error_exit_code(capsys):
    assert main(["experiment"]) == 1  # missing --config
    assert main(["no-such-command"]) == 1


def test_experiment_missing_dataset_path(tmp_path, triplet_files, capsys):
    cfg = write_experiment_config(tmp_path, triplet_files)
    raw = json.loads(cfg.read_text())
    raw["dataset"]["x"]["path"] = str(tmp_path / "absent.csv")
    cfg.write_text(json.dumps(raw))
    assert main(["experiment", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "absent.csv" in err


def _config_commands(tmp_path, config):
    """The commands that read an experiment config, as argument lists."""
    return [
        ["tune", "--config", str(config)],
        ["train", "--config", str(config), "--model", "svm-x", "--cost", "1.0",
         "--gamma", "0.5", "--out", str(tmp_path / "model.txt")],
        ["experiment", "--config", str(config)],
    ]


def _mnist_without_images(ds):
    del ds["x"], ds["xstar"]
    ds["kind"] = "mnist-idx"


@pytest.mark.parametrize("edit, field", [
    (lambda ds: ds["x"].pop("path"), "x.path"),
    (lambda ds: ds.update(x="x.csv"), "x.path"),
    (lambda ds: ds["xstar"].pop("path"), "xstar.path"),
    (lambda ds: ds.pop("labels"), "labels"),
    (_mnist_without_images, "images"),
], ids=["no x.path", "x not a section", "no xstar.path", "no labels", "no images"])
def test_missing_dataset_path_is_a_data_error(tmp_path, triplet_files, capsys,
                                              edit, field):
    config = write_experiment_config(tmp_path, triplet_files)
    raw = json.loads(config.read_text())
    edit(raw["dataset"])
    config.write_text(json.dumps(raw))
    for argv in _config_commands(tmp_path, config):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"lupicp: data error: {config}: dataset section needs a path '{field}'" in err
    assert not (tmp_path / "model.txt").exists()


def _set(**fields):
    return lambda raw: {**raw, **fields}


def _set_grid(key, grid):
    return lambda raw: {**raw, "grids": {**raw["grids"], key: grid}}


def _set_dataset(**fields):
    return lambda raw: {**raw, "dataset": {**raw["dataset"], **fields}}


@pytest.mark.parametrize("edit, named", [
    (lambda raw: [1], "config must be a JSON object"),
    (lambda raw: "{not json", "not a JSON config"),
    (_set(grids=[1]), "'grids' must be an object, got [1]"),
    (_set_grid("svm_x", [1, 2]), "'grids.svm_x' must be an object, got [1, 2]"),
    (_set_grid("svm_x", {"C": 5, "gamma": [0.5]}),
     "'grids.svm_x.C' must be a list of numbers, got 5"),
    (_set_grid("svmplus", {"C": [1.0], "gamma_plus": ["a"]}),
     "'grids.svmplus.gamma_plus' must be a list of numbers, got [\"a\"]"),
    (_set(seed=None), "'seed' must be an integer, got null"),
    (_set(seed=1.5), "'seed' must be an integer, got 1.5"),
    (_set(repetitions=True), "'repetitions' must be an integer, got true"),
    (_set(cv_folds="5"), "'cv_folds' must be an integer, got \"5\""),
    (_set(train_fraction=None), "unknown key 'train_fraction'"),
    (_set(epsilon_grid=0.1), "'epsilon_grid' must be a list of numbers, got 0.1"),
    (_set(dataset=[1]), "'dataset' must be an object, got [1]"),
    (_set_dataset(kind=["x"]), "'dataset.kind' must be a string, got [\"x\"]"),
    (_set_dataset(x={"path": "x.csv", "format": 5}),
     "'dataset.x.format' must be a string, got 5"),
    (_set_dataset(xstar={"path": "xstar.csv", "format": None}),
     "'dataset.xstar.format' must be a string, got null"),
    (lambda raw: {key: value for key, value in raw.items() if key != "dataset"},
     "config needs 'dataset.kind'"),
    (lambda raw: {**raw, "dataset": {k: v for k, v in raw["dataset"].items()
                                     if k != "kind"}},
     "config needs 'dataset.kind'"),
], ids=["top-level list", "not JSON", "grids list", "grid list", "C scalar",
        "gamma_plus text", "seed null", "seed 1.5", "repetitions true", "cv_folds text",
        "train_fraction null", "epsilon_grid scalar", "dataset list", "kind list",
        "x.format number", "xstar.format null", "no dataset", "no kind"])
def test_malformed_config_is_a_data_error(tmp_path, triplet_files, capsys, edit, named):
    config = write_experiment_config(tmp_path, triplet_files)
    raw = edit(json.loads(config.read_text()))
    config.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    for argv in _config_commands(tmp_path, config):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"lupicp: data error: {config}: {named}" in err
        assert "Traceback" not in err
    assert not (tmp_path / "model.txt").exists()


@pytest.mark.parametrize("edit, code, named", [
    (_set_dataset(x={"path": "absent-x.csv", "format": "csv"}), 1,
     "unknown feature format 'csv' in 'dataset.x.format'"),
    (_set_dataset(xstar={"path": "absent-xstar.csv", "format": "sparse"}), 1,
     "unknown feature format 'sparse' in 'dataset.xstar.format'"),
    (_set(qp_tol=0), 2, "unknown key 'qp_tol'"),
    (_set(train_fraction=0.8), 2, "unknown key 'train_fraction'"),
    (_set(proper_fraction=0.7), 2, "unknown key 'proper_fraction'"),
    (_set(repetitons=1), 2, "unknown key 'repetitons'"),
    (_set_grid("svm_x", {"C": [1.0], "gama": [0.5]}), 2,
     "unknown key 'grids.svm_x.gama'"),
    (_set_grid("svm_x", {"C": [1.0], "gamma_plus": [0.5]}), 2,
     "unknown key 'grids.svm_x.gamma_plus'"),
    (_set_grid("svmplus", {"gamma": [0.1], "gamma_plus": [0.1]}), 2,
     "unknown key 'grids.svmplus.gamma'"),
    (_set_grid("svm_y", {"C": [1.0]}), 2, "unknown key 'grids.svm_y'"),
    (_set_dataset(xstar={"path": "absent-xstar.csv", "fromat": "dense-csv"}), 2,
     "unknown key 'dataset.xstar.fromat'"),
    (_set_dataset(limit=10), 2, "unknown key 'dataset.limit'"),
], ids=["x.format name", "xstar.format name", "qp_tol 0", "train_fraction 0.8",
        "proper_fraction 0.7", "repetitons", "svm_x gama", "svm_x gamma_plus",
        "svmplus gamma", "svm_y grid", "xstar fromat", "triplet-files limit"])
def test_bad_config_value_stops_before_any_read(tmp_path, triplet_files, capsys, edit,
                                                code, named):
    # every dataset path names no file: a data read would exit 2 with
    # another message
    absent = {key: tmp_path / f"absent-{key}" for key in triplet_files}
    config = write_experiment_config(tmp_path, absent)
    config.write_text(json.dumps(edit(json.loads(config.read_text()))))
    for argv in _config_commands(tmp_path, config):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert f"{config}: {named}" in err
        assert "Traceback" not in err
    assert not (tmp_path / "model.txt").exists()


@pytest.mark.parametrize("file_seed, flags, seed", [
    (5, ["--seed", "-3"], -3),  # the override is checked like the file's value
    (-1, [], -1),
])
def test_negative_seed_is_named(tmp_path, triplet_files, capsys, file_seed, flags, seed):
    config = write_experiment_config(tmp_path, triplet_files, seed=file_seed)
    for argv in _config_commands(tmp_path, config):
        assert main(argv + flags) == 1
        err = capsys.readouterr().err
        assert f"lupicp: error: seed must be a non-negative integer, got {seed}" in err
        assert "selected parameters" not in err


@pytest.mark.parametrize("epsilon_grid", [[0.05, 1.5], []])
def test_bad_epsilon_grid_stops_before_any_fit(tmp_path, triplet_files, capsys,
                                               monkeypatch, epsilon_grid):
    import lupicp.experiment as experiment
    import lupicp.selection as selection

    fits = []
    real = selection.svm_train

    def recording(*args, **kwargs):
        fits.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(selection, "svm_train", recording)
    monkeypatch.setattr(experiment, "svm_train", recording)
    config = write_experiment_config(tmp_path, triplet_files, epsilon_grid=epsilon_grid)
    assert main(["experiment", "--config", str(config)]) == 1
    assert "lupicp: error: epsilon_grid" in capsys.readouterr().err
    assert fits == []


def test_experiment_end_to_end(tmp_path, config_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "experiment", "--config", str(config_path), "--reps", "1",
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report["per_model"]) == {"svm_x", "svm_xstar", "svmplus"}
    stdout = capsys.readouterr().out
    assert "SVM on X*" in stdout


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_experiment_rejects_reps_below_one(tmp_path, config_path, capsys, reps):
    # the override is validated like the config value, before any tuning
    out = tmp_path / "report.json"
    code = main(["experiment", "--config", str(config_path), "--reps", reps,
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "lupicp: error: repetitions must be at least 1" in err
    assert "selected parameters" not in err
    assert not out.exists()


def test_tune_prints_selected_cells(tmp_path, config_path, capsys):
    out = tmp_path / "params.json"
    assert main(["tune", "--config", str(config_path), "--out", str(out)]) == 0
    selected = json.loads(out.read_text())
    assert selected["svm_x"] == {
        "C": 1.0, "gamma": 0.5, "cv_accuracy": selected["svm_x"]["cv_accuracy"],
    }
    assert selected["svmplus"]["gamma1"] == 0.5


def test_tune_selects_what_experiment_selects(tmp_path, capsys):
    # both commands cross-validate on the same proper rows and folds
    from lupicp.dataio import write_labels

    X, Xstar, y = triplet_blobs(60, seed=4, separation=1.0)
    paths = {
        "x": tmp_path / "x.csv", "xstar": tmp_path / "xs.csv",
        "labels": tmp_path / "y.txt",
    }
    write_feature_file(paths["x"], X)
    write_feature_file(paths["xstar"], Xstar)
    write_labels(paths["labels"], y)
    grids = {
        "svm_x": {"C": [0.1, 1.0, 10.0], "gamma": [0.01, 0.1, 1.0]},
        "svm_xstar": {"C": [1.0], "gamma": [0.2]},
        "svmplus": {"C": [1.0], "gamma_plus": [0.1]},
    }
    cfg = write_experiment_config(tmp_path, paths, grids=grids, cv_folds=3, repetitions=1)
    params, report = tmp_path / "params.json", tmp_path / "report.json"
    assert main(["tune", "--config", str(cfg), "--out", str(params)]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(report)]) == 0
    selected = json.loads(params.read_text())
    assert selected == json.loads(report.read_text())["selected_parameters"]


def test_tune_separable_data_reports_full_accuracy(tmp_path, capsys):
    # well-separated blobs: the selected cell must reach CV accuracy 1.0
    from lupicp.dataio import write_labels
    from conftest import triplet_blobs

    X, Xstar, y = triplet_blobs(40, seed=3, separation=8.0, star_separation=8.0)
    paths = {
        "x": tmp_path / "x.csv", "xstar": tmp_path / "xs.csv",
        "labels": tmp_path / "y.txt",
    }
    write_feature_file(paths["x"], X)
    write_feature_file(paths["xstar"], Xstar)
    write_labels(paths["labels"], y)
    grids = {
        "svm_x": {"C": [1.0, 10.0], "gamma": [0.01, 0.1]},
        "svm_xstar": {"C": [1.0], "gamma": [0.01, 0.1]},
        "svmplus": {"C": [1.0], "gamma_plus": [0.1]},
    }
    cfg = write_experiment_config(tmp_path, paths, grids=grids)
    assert main(["tune", "--config", str(cfg)]) == 0
    selected = json.loads(capsys.readouterr().out)
    assert selected["svm_x"]["cv_accuracy"] == 1.0


def test_train_and_predict_round_trip(tmp_path, config_path, triplet_files, capsys):
    model_path = tmp_path / "model.txt"
    cal_path = tmp_path / "cal.txt"
    code = main([
        "train", "--config", str(config_path), "--model", "svm-x",
        "--cost", "1.0", "--gamma", "0.5",
        "--out", str(model_path), "--calibration-out", str(cal_path),
    ])
    assert code == 0
    assert model_path.exists() and cal_path.exists()

    out_path = tmp_path / "pred.tsv"
    code = main([
        "predict", "--model", str(model_path), "--calibration", str(cal_path),
        "--input", str(triplet_files["x"]), "--epsilon", "0.05",
        "--out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 60  # one region per input line
    for line in lines:
        p_minus, p_plus, region = line.split("\t")
        assert 0.0 < float(p_minus) <= 1.0
        assert 0.0 < float(p_plus) <= 1.0
        assert region in ("", "-1", "+1", "-1,+1")


def test_train_svmplus_roundtrip(tmp_path, config_path, capsys):
    model_path = tmp_path / "plus.txt"
    code = main([
        "train", "--config", str(config_path), "--model", "svm-plus",
        "--cost", "1.0", "--gamma-plus", "0.1", "--gamma1", "0.5", "--gamma2", "0.2",
        "--out", str(model_path),
    ])
    assert code == 0
    from lupicp.model_io import load_model
    from lupicp.decision import SvmPlusModel

    assert isinstance(load_model(model_path), SvmPlusModel)


@pytest.mark.parametrize("model, flags, key, params", [
    ("svm-x", ["--gamma", "0.5"], "svm_x", {"C": 1.0, "gamma": 0.5}),
    ("svm-xstar", ["--gamma", "0.2"], "svm_xstar", {"C": 1.0, "gamma": 0.2}),
    ("svm-plus", ["--gamma-plus", "0.1", "--gamma1", "0.5", "--gamma2", "0.2"],
     "svmplus", {"C": 1.0, "gamma_plus": 0.1, "gamma1": 0.5, "gamma2": 0.2}),
])
def test_train_writes_what_fit_model_gives(tmp_path, config_path, capsys,
                                           model, flags, key, params):
    from lupicp.conformal import calibrate
    from lupicp.experiment import fit_model, load_config, split_rows
    from lupicp.model_io import save_calibration, save_model

    out, cal_out = tmp_path / "model.txt", tmp_path / "cal.txt"
    assert main([
        "train", "--config", str(config_path), "--model", model, "--cost", "1.0",
        *flags, "--out", str(out), "--calibration-out", str(cal_out),
    ]) == 0
    cfg = load_config(config_path)
    data = cfg.dataset.load()
    _, _, proper, cal = split_rows(cfg, data.y)
    expected = fit_model(key, params, data.X[proper], data.Xstar[proper],
                         data.y[proper])
    save_model(tmp_path / "expected-model.txt", expected)
    # SVM on X* decides, and so calibrates, on the privileged rows
    features = data.Xstar if model == "svm-xstar" else data.X
    save_calibration(tmp_path / "expected-cal.txt",
                     calibrate(expected, features[cal], data.y[cal]))
    assert out.read_bytes() == (tmp_path / "expected-model.txt").read_bytes()
    assert cal_out.read_bytes() == (tmp_path / "expected-cal.txt").read_bytes()


def test_train_requires_model_parameters(tmp_path, config_path, capsys):
    for model, flags, missing in [
        ("svm-plus", [], "--gamma-plus is required for svm-plus"),
        ("svm-plus", ["--gamma-plus", "0.1", "--gamma1", "0.5"],
         "--gamma2 is required for svm-plus"),
        ("svm-x", [], "--gamma is required for svm-x / svm-xstar"),
        ("svm-xstar", ["--gamma-plus", "0.1"], "--gamma is required for svm-x / svm-xstar"),
    ]:
        code = main([
            "train", "--config", str(config_path), "--model", model,
            "--cost", "1.0", *flags, "--out", str(tmp_path / "m.txt"),
        ])
        assert code == 1
        assert missing in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()


def test_predict_rejects_garbage_model(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    code = main([
        "predict", "--model", str(bad), "--calibration", str(bad),
        "--input", str(bad),
    ])
    assert code == 2


def _replace_line(lines, index, text):
    return lines[:index] + [text] + lines[index + 1:]


# (file to damage, how, 1-based line the error must name); a model file
# is header, type, kernel, bias, "support n d layout", then support rows;
# a calibration file is header, "class -1 n", then n scores
MALFORMED = {
    "truncated calibration": ("calibration", lambda lines: lines[:4], 5),
    "non-numeric model value": (
        "model", lambda lines: _replace_line(lines, 5, "abc " + lines[5].split(" ", 1)[1]), 6,
    ),
    "non-numeric calibration value": (
        "calibration", lambda lines: _replace_line(lines, 2, "abc"), 3,
    ),
    "blank calibration line": ("calibration", lambda lines: _replace_line(lines, 2, ""), 3),
    "blank support row": ("model", lambda lines: _replace_line(lines, 5, ""), 6),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_predict_rejects_malformed_model_and_calibration(
        tmp_path, config_path, triplet_files, capsys, case):
    files = {"model": tmp_path / "model.txt", "calibration": tmp_path / "cal.txt"}
    assert main([
        "train", "--config", str(config_path), "--model", "svm-x",
        "--cost", "1.0", "--gamma", "0.5",
        "--out", str(files["model"]), "--calibration-out", str(files["calibration"]),
    ]) == 0
    which, damage, line = MALFORMED[case]
    lines = files[which].read_text().splitlines()
    files[which].write_text("\n".join(damage(lines)) + "\n")
    capsys.readouterr()
    code = main([
        "predict", "--model", str(files["model"]),
        "--calibration", str(files["calibration"]), "--input", str(triplet_files["x"]),
    ])
    assert code == 2
    assert f"{files[which]}:{line}:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def svmplus_files(tmp_path_factory):
    """Input rows, and the model and calibration files of an SVM+ train."""
    from lupicp.dataio import write_labels

    work = tmp_path_factory.mktemp("svmplus")
    X, Xstar, y = triplet_blobs(40, seed=11)
    paths = {"x": work / "x.csv", "xstar": work / "xs.csv", "labels": work / "y.txt"}
    write_feature_file(paths["x"], X)
    write_feature_file(paths["xstar"], Xstar)
    write_labels(paths["labels"], y)
    files = {"input": paths["x"], "model": work / "model.txt",
             "calibration": work / "cal.txt"}
    assert main([
        "train", "--config", str(write_experiment_config(work, paths)),
        "--model", "svm-plus", "--cost", "1.0", "--gamma-plus", "0.1",
        "--gamma1", "0.5", "--gamma2", "0.2",
        "--out", str(files["model"]), "--calibration-out", str(files["calibration"]),
    ]) == 0
    return files


@settings(max_examples=50, deadline=None)
@given(which=st.sampled_from(["model", "calibration"]), truncate=st.booleans(),
       data=st.data())
def test_predict_exits_cleanly_on_damaged_files(svmplus_files, which, truncate, data):
    # any truncation or one-byte replacement either still parses or is a
    # data error (exit 2), never an exception out of main
    original = svmplus_files[which].read_bytes()
    at = data.draw(st.integers(0, len(original) - 1), label="position")
    if truncate:
        damaged = original[:at]
    else:
        byte = data.draw(st.integers(0, 255), label="byte")
        damaged = original[:at] + bytes([byte]) + original[at + 1:]
    files = dict(svmplus_files)
    files[which] = svmplus_files[which].with_name(f"damaged-{which}.txt")
    files[which].write_bytes(damaged)
    code = main([
        "predict", "--model", str(files["model"]),
        "--calibration", str(files["calibration"]), "--input", str(files["input"]),
        "--out", str(files["input"].with_name("pred.tsv")),
    ])
    assert code in (0, 2)


# file -> (1-based line to damage, field to set, its new text)
NON_FINITE = {
    "inf in a support row": ("model", 6, 1, "inf"),
    "nan calibration score": ("calibration", 3, 0, "nan"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_predict_rejects_non_finite_values(svmplus_files, capsys, case):
    which, line, field, text = NON_FINITE[case]
    lines = svmplus_files[which].read_text().splitlines()
    fields = lines[line - 1].split(" ")
    fields[field] = text
    lines[line - 1] = " ".join(fields)
    files = dict(svmplus_files)
    files[which] = svmplus_files[which].with_name(f"non-finite-{which}.txt")
    files[which].write_text("\n".join(lines) + "\n")
    out = files["input"].with_name("non-finite-pred.tsv")
    capsys.readouterr()
    code = main([
        "predict", "--model", str(files["model"]),
        "--calibration", str(files["calibration"]), "--input", str(files["input"]),
        "--out", str(out),
    ])
    assert code == 2
    assert f"{files[which]}:{line}: non-finite value" in capsys.readouterr().err
    assert not out.exists()


def _put_non_ascii(path, line):
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:3] + b"\xe9" + lines[line - 1][3:]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("kind", ["dense-csv", "sparse-index-value", "labels"])
def test_non_ascii_byte_is_a_data_error(tmp_path, triplet_files, config_path,
                                        svmplus_files, capsys, kind):
    if kind == "labels":
        target = triplet_files["labels"]
        argv = ["train", "--config", str(config_path), "--model", "svm-x",
                "--cost", "1.0", "--gamma", "0.5", "--out", str(tmp_path / "m.txt")]
    else:
        target = tmp_path / "rows.txt"
        X = load_feature_file(svmplus_files["input"])
        write_feature_file(target, X if kind == "dense-csv" else sp.csr_matrix(X), kind)
        argv = ["predict", "--model", str(svmplus_files["model"]),
                "--calibration", str(svmplus_files["calibration"]),
                "--input", str(target), "--format", kind]
    _put_non_ascii(target, 25)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"{target}:25: non-ASCII byte 0xe9" in capsys.readouterr().err


def test_mnist_prepare(tmp_path, capsys):
    rng = np.random.default_rng(0)
    labels = np.array([5, 8, 5, 8, 2, 5, 8, 5], dtype=np.uint8)
    images = rng.integers(0, 256, size=(8, 28, 28), dtype=np.uint8)
    write_idx_images(tmp_path / "img", images)
    write_idx_labels(tmp_path / "lab", labels)
    out_dir = tmp_path / "out"
    code = main([
        "mnist-prepare", "--images", str(tmp_path / "img"),
        "--labels", str(tmp_path / "lab"), "--out-dir", str(out_dir),
    ])
    assert code == 0
    from lupicp.dataio import load_feature_file, load_labels

    X = load_feature_file(out_dir / "x.csv")
    Xstar = load_feature_file(out_dir / "xstar.csv")
    y = load_labels(out_dir / "labels.txt")
    assert X.shape == (7, 64)
    assert Xstar.shape == (7, 784)
    assert np.array_equal(y, np.where(labels[labels != 2] == 8, 1, -1))


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_mnist_limit_below_one_is_a_usage_error(tmp_path, capsys, limit):
    labels = np.array([5, 8, 5, 8], dtype=np.uint8)
    write_idx_images(tmp_path / "img", np.zeros((4, 28, 28), dtype=np.uint8))
    write_idx_labels(tmp_path / "lab", labels)
    out_dir = tmp_path / "out"
    code = main([
        "mnist-prepare", "--images", str(tmp_path / "img"),
        "--labels", str(tmp_path / "lab"), "--out-dir", str(out_dir),
        "--limit", limit,
    ])
    assert code == 1
    assert f"limit must be at least 1, got {limit}" in capsys.readouterr().err
    assert not out_dir.exists()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": {
        "kind": "mnist-idx", "images": str(tmp_path / "img"),
        "labels": str(tmp_path / "lab"), "limit": int(limit),
    }}))
    assert main(["experiment", "--config", str(config)]) == 1
    assert f"limit must be at least 1, got {limit}" in capsys.readouterr().err


def test_mnist_prepare_missing_file(tmp_path, capsys):
    code = main([
        "mnist-prepare", "--images", str(tmp_path / "nope"),
        "--labels", str(tmp_path / "nope2"), "--out-dir", str(tmp_path),
    ])
    assert code == 2


@pytest.mark.parametrize("epsilon", ["1.5", "0", "1", "-0.1", "nan", "abc"])
def test_bad_epsilon_stops_before_any_read(tmp_path, capsys, epsilon):
    # every file is missing: a read would make this a data error (exit 2)
    absent = str(tmp_path / "absent.txt")
    code = main(["predict", "--model", absent, "--calibration", absent,
                 "--input", absent, "--epsilon", epsilon])
    assert code == 1
    assert "argument --epsilon" in capsys.readouterr().err


PREDICT_BLOCK_ROWS = 7  # rows per decision_values block in the pooled tests


def _predict_rows(n, seed, dim=2):
    """``n`` input rows of the svmplus_files width, or of ``dim`` columns,
    as dense CSV lines."""
    X, _, _ = triplet_blobs(n, seed=seed, dim=dim)
    return [",".join(repr(float(v)) for v in row) for row in X]


def _sparse_text(n, seed, dim=2):
    """The same kind of rows as a sparse feature file."""
    X = sp.csr_matrix(triplet_blobs(n, seed=seed, dim=dim)[0])
    rows = [" ".join(f"{j}:{v!r}" for j, v in zip(row.indices.tolist(), row.data.tolist()))
            for row in X]
    return f"#dim {X.shape[1]}\n" + "\n".join(rows) + "\n"


# input name -> (file text, format, rows); the dense inputs cut into
# blocks of PREDICT_BLOCK_ROWS rows
POOLED_INPUTS = {
    "partial last block": ("\n".join(_predict_rows(38, 21)) + "\n", "dense-csv", 38),
    "two blocks": ("\n".join(_predict_rows(10, 22)) + "\n", "dense-csv", 10),
    "blank line": ("\n".join(_predict_rows(9, 23) + [""] + _predict_rows(11, 24))
                   + "\n", "dense-csv", 20),
    "whitespace-only line": ("\n".join(_predict_rows(16, 25) + ["   "] + _predict_rows(4, 26))
                             + "\n", "dense-csv", 20),
    "CRLF, no final newline": ("\r\n".join(_predict_rows(30, 27)), "dense-csv", 30),
    "sparse": (_sparse_text(38, 28), "sparse-index-value", 38),
}


@pytest.fixture
def pooled_predict(svmplus_files, monkeypatch, capsys):
    """Run predict on ``text`` with ``cpus`` available CPUs and blocks of
    PREDICT_BLOCK_ROWS rows; returns (exit code, output bytes, stderr, how
    often this process read the input whole through load_feature_file)."""
    import os

    import lupicp.dataio as dataio
    import lupicp.decision as decision
    from lupicp.model_io import load_model

    model = load_model(svmplus_files["model"])
    monkeypatch.setattr(decision, "BLOCK_ENTRIES", PREDICT_BLOCK_ROWS * model.n_support)
    reads = []
    for loader in ("_load_dense_csv", "_load_sparse"):
        def counted(path, real=getattr(dataio, loader)):
            reads.append(path)
            return real(path)

        monkeypatch.setattr(dataio, loader, counted)
    work = svmplus_files["input"].parent

    def run(text, fmt, cpus, stdout=False):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        path = work / "rows.txt"
        path.write_bytes(text.encode("latin-1"))  # "\xe9" is the byte 0xe9
        # one block, as when the patch above misses, would stay in process
        assert len(dataio.line_blocks(path, model.block_rows)) > 1
        out = work / "rows-pred.tsv"
        out.unlink(missing_ok=True)
        argv = ["predict", "--model", str(svmplus_files["model"]),
                "--calibration", str(svmplus_files["calibration"]),
                "--input", str(path), "--format", fmt, "--epsilon", "0.3"]
        reads.clear()
        capsys.readouterr()
        code = main(argv if stdout else argv + ["--out", str(out)])
        captured = capsys.readouterr()
        if stdout:
            output = captured.out.encode()
        else:
            output = out.read_bytes() if out.exists() else None
        return code, output, captured.err, len(reads)

    return run


@pytest.mark.parametrize("name", sorted(POOLED_INPUTS) + ["stdout"])
def test_pooled_predict_writes_the_in_process_bytes(pooled_predict, name):
    import multiprocessing

    text, fmt, rows = POOLED_INPUTS.get(name, POOLED_INPUTS["partial last block"])
    runs = [pooled_predict(text, fmt, cpus, stdout=name == "stdout") for cpus in (1, 2, 3)]
    code, output, err, _ = runs[0]
    assert code == 0 and output.count(b"\n") == rows
    assert [run[:3] for run in runs[1:]] == [(code, output, err)] * 2
    # on one CPU, and for a sparse input or one numpy does not parse in
    # blocks, this process reads the input whole; else the workers read it
    pooled = fmt == "dense-csv" and name not in ("blank line", "whitespace-only line")
    assert [run[3] for run in runs] == [1] + [0 if pooled else 1] * 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("damage, message", [
    (",abc", "non-numeric field"),
    (",\xe9", "non-ASCII byte 0xe9"),
], ids=["non-numeric", "non-ASCII"])
def test_malformed_row_in_a_worker_block_is_named(pooled_predict, damage, message):
    import multiprocessing

    rows = _predict_rows(38, 29)
    rows[36] = rows[36].replace(",", damage, 1)  # line 37, in the last block
    text = "\n".join(rows) + "\n"
    runs = [pooled_predict(text, "dense-csv", cpus) for cpus in (1, 2)]
    assert runs[0][:3] == runs[1][:3]
    code, output, err, _ = runs[0]
    assert code == 2 and output is None
    assert f"rows.txt:37: {message}" in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("module, name", [
    ("lupicp.cli", "load_feature_file"),
    ("lupicp.cli", "pairs_from_decision_values"),
    ("lupicp.cli", "predict_region"),
    ("lupicp.decision", "gram_matrix"),
])
def test_replaced_predict_lookup_keeps_predict_in_process(pooled_predict, monkeypatch,
                                                          module, name):
    import importlib

    target = importlib.import_module(module)
    real = getattr(target, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(target, name, counted)
    text, fmt, _ = POOLED_INPUTS["partial last block"]
    code, output, _, reads = pooled_predict(text, fmt, 2)
    assert code == 0 and output.count(b"\n") == 38
    assert reads == 1 and calls  # this process read and scored every row


@pytest.mark.parametrize("fmt", ["dense-csv", "sparse-index-value"])
def test_input_of_another_width_is_a_data_error(pooled_predict, fmt):
    import multiprocessing

    if fmt == "dense-csv":
        text = "\n".join(_predict_rows(38, 30, dim=3)) + "\n"
    else:
        text = _sparse_text(38, 30, dim=3)
    for cpus in (1, 2):
        code, output, err, _ = pooled_predict(text, fmt, cpus)
        assert code == 2 and output is None
        assert "rows.txt: 3 features per row, but the model was trained on 2" in err
    assert multiprocessing.active_children() == []


# the modules that only training loads
TRAINING_MODULES = {"lupicp.qp", "lupicp.svm", "lupicp.svmplus", "lupicp.selection",
                    "lupicp.experiment"}

# [exit code, in-process dense reads, loaded modules] of `lupicp predict`
# (none for no arguments) run on CPUS CPUs with BLOCK_ENTRIES entries per block
FRESH_PREDICT = """
import json, os, sys
import lupicp.cli, lupicp.dataio, lupicp.decision

cpus, block_entries, argv = json.loads(sys.argv[1])
os.sched_getaffinity = lambda pid: set(range(cpus))
lupicp.decision.BLOCK_ENTRIES = block_entries
reads = []
real = lupicp.dataio._load_dense_csv
lupicp.dataio._load_dense_csv = lambda path: reads.append(path) or real(path)
code = lupicp.cli.main(argv) if argv else None
print(json.dumps([code, len(reads), sorted(sys.modules)]))
"""

# [exit code, whether selection looks up the wrapper, [scipy.linalg loaded,
# workers] at each map_parts call] of `lupicp` run with ARGV on two CPUs
FRESH_TUNE = """
import json, os, sys
import lupicp.cli, lupicp.workers

os.sched_getaffinity = lambda pid: {0, 1}
calls = []
real = lupicp.workers.map_parts

def recording(run_part, workers):
    calls.append(["scipy.linalg" in sys.modules, workers])
    return real(run_part, workers)

lupicp.workers.map_parts = recording
code = lupicp.cli.main(json.loads(sys.argv[1]))
import lupicp.selection
print(json.dumps([code, lupicp.selection.map_parts is recording, calls]))
"""


def _fresh(script, arg):
    """The last stdout line, as JSON, of ``script`` run with the JSON of
    ``arg`` in an interpreter that has imported nothing of lupicp."""
    src = str(Path(lupicp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(arg)], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def _heavy(modules):
    return sorted(name for name in modules
                  if name.split(".")[0] == "scipy" or name in TRAINING_MODULES)


def test_cli_import_loads_no_scipy_and_no_training_module():
    code, _, modules = _fresh(FRESH_PREDICT, [1, 0, []])
    assert code is None and "lupicp.cli" in modules
    assert _heavy(modules) == []


@pytest.mark.parametrize("fmt, cpus, reads", [
    ("dense-csv", 1, 1),
    ("dense-csv", 2, 0),
    ("sparse-index-value", 2, 0),
], ids=["dense, one CPU", "dense, pooled", "sparse"])
def test_predict_loads_no_training_module(svmplus_files, tmp_path, fmt, cpus, reads):
    from lupicp.model_io import load_model

    path = tmp_path / "rows.txt"
    if fmt == "dense-csv":
        path.write_text("\n".join(_predict_rows(38, 31)) + "\n")
    else:
        path.write_text(_sparse_text(38, 31))
    out = tmp_path / "pred.tsv"
    block_entries = PREDICT_BLOCK_ROWS * load_model(svmplus_files["model"]).n_support
    code, read_count, modules = _fresh(FRESH_PREDICT, [cpus, block_entries, [
        "predict", "--model", str(svmplus_files["model"]),
        "--calibration", str(svmplus_files["calibration"]),
        "--input", str(path), "--format", fmt, "--out", str(out)]])
    assert (code, read_count) == (0, reads)
    assert out.read_text().count("\n") == 38
    if fmt == "dense-csv":
        assert _heavy(modules) == []
    else:  # the sparse read loads scipy.sparse, and nothing of training
        assert "scipy.sparse" in modules and TRAINING_MODULES.isdisjoint(modules)


def test_tune_loads_scipy_linalg_before_any_worker_forks(tmp_path, triplet_files):
    # forked after scipy.linalg loads, the workers inherit it; each would
    # import it anew if qp loaded it only on the first solve
    grids = {"svm_x": {"C": [1.0, 10.0], "gamma": [0.5]},
             "svm_xstar": {"C": [1.0, 10.0], "gamma": [0.2]},
             "svmplus": {"C": [1.0, 10.0], "gamma_plus": [0.1]}}
    config = write_experiment_config(tmp_path, triplet_files, grids=grids)
    code, wrapped, calls = _fresh(FRESH_TUNE, ["tune", "--config", str(config)])
    assert code == 0 and wrapped
    # one call per search, each pooled: wrapping map_parts keeps the pool
    assert calls == [[True, 2]] * 3
