"""The benchmark tracer's cell counts on a small ``lupicp tune`` run.

The tracer counts grid cells from the fits it sees under each grid
search, so these counts hold only while every fold fit runs in the
process, under its search, by the module-global trainer names.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import write_experiment_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from layers import per_layer_metrics  # noqa: E402

GRIDS = {
    "svm_x": {"C": [1.0, 10.0, 1.0], "gamma": [0.5, 0.1]},
    "svm_xstar": {"C": [1.0], "gamma": [0.2, 0.4]},
    "svmplus": {"C": [0.5, 1.0], "gamma_plus": [0.01, 0.1, 0.01]},
}


def test_traced_tune_counts_each_distinct_cell_once_per_fold(tmp_path, triplet_files):
    k = 3
    config = write_experiment_config(tmp_path, triplet_files, cv_folds=k, grids=GRIDS)
    spans = tmp_path / "spans.json"
    src = str(PERFBENCH.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), str(spans), "tune",
                    "--config", str(config)],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    metrics = per_layer_metrics(json.loads(spans.read_text()))
    cells = 2 * 2 + 1 * 2 + 2 * 2  # distinct (C, gamma) pairs of the three grids
    assert metrics["selection.cells"] == cells
    assert metrics["selection.fold_fits"] == cells * k
    assert metrics["selection.cells_failed"] == 0
