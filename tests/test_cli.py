import json

import numpy as np
import pytest

from lupicp.cli import main
from lupicp.dataio import write_feature_file, write_idx_images, write_idx_labels
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


def test_train_requires_model_parameters(tmp_path, config_path, capsys):
    code = main([
        "train", "--config", str(config_path), "--model", "svm-plus",
        "--cost", "1.0", "--out", str(tmp_path / "m.txt"),
    ])
    assert code == 1


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


def test_mnist_prepare_missing_file(tmp_path, capsys):
    code = main([
        "mnist-prepare", "--images", str(tmp_path / "nope"),
        "--labels", str(tmp_path / "nope2"), "--out-dir", str(tmp_path),
    ])
    assert code == 2
