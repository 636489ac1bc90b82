import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lupicp.cli import main
from lupicp.dataio import (
    load_feature_file,
    write_feature_file,
    write_idx_images,
    write_idx_labels,
)
from conftest import triplet_blobs, write_experiment_config


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


@pytest.mark.parametrize("edit, field", [
    (lambda ds: ds["x"].pop("path"), "x.path"),
    (lambda ds: ds.update(x="x.csv"), "x.path"),
    (lambda ds: ds["xstar"].pop("path"), "xstar.path"),
    (lambda ds: ds.pop("labels"), "labels"),
    (lambda ds: ds.update(kind="mnist-idx"), "images"),
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
    (_set(train_fraction=None), "'train_fraction' must be a number, got null"),
    (_set(epsilon_grid=0.1), "'epsilon_grid' must be a list of numbers, got 0.1"),
    (_set(dataset=[1]), "'dataset' must be an object, got [1]"),
    (_set_dataset(kind=["x"]), "'dataset.kind' must be a string, got [\"x\"]"),
    (_set_dataset(x={"path": "x.csv", "format": 5}),
     "'dataset.x.format' must be a string, got 5"),
    (_set_dataset(xstar={"path": "xstar.csv", "format": None}),
     "'dataset.xstar.format' must be a string, got null"),
], ids=["top-level list", "not JSON", "grids list", "grid list", "C scalar",
        "gamma_plus text", "seed null", "seed 1.5", "repetitions true", "cv_folds text",
        "train_fraction null", "epsilon_grid scalar", "dataset list", "kind list",
        "x.format number", "xstar.format null"])
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


@pytest.mark.parametrize("edit, named", [
    (_set_dataset(x={"path": "absent-x.csv", "format": "csv"}),
     "unknown feature format 'csv' in 'dataset.x.format'"),
    (_set_dataset(xstar={"path": "absent-xstar.csv", "format": "sparse"}),
     "unknown feature format 'sparse' in 'dataset.xstar.format'"),
    (_set(qp_tol=0), "qp_tol must be a finite positive number, got 0.0"),
    (_set(qp_tol=-1), "qp_tol must be a finite positive number, got -1.0"),
    (_set(qp_tol=float("inf")), "qp_tol must be a finite positive number, got inf"),
    (_set(qp_tol=float("nan")), "qp_tol must be a finite positive number, got nan"),
], ids=["x.format name", "xstar.format name", "qp_tol 0", "qp_tol -1", "qp_tol inf",
        "qp_tol nan"])
def test_bad_config_value_stops_before_any_read(tmp_path, triplet_files, capsys, edit,
                                                named):
    # every dataset path names no file: a data read would exit 2
    absent = {key: tmp_path / f"absent-{key}" for key in triplet_files}
    config = write_experiment_config(tmp_path, absent)
    config.write_text(json.dumps(edit(json.loads(config.read_text()))))
    for argv in _config_commands(tmp_path, config):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert named in err
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
    from lupicp.svmplus import SvmPlusModel

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
                         data.y[proper], cfg.qp_tol)
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
