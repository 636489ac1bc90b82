"""Benchmark for the ``lupicp`` command line.

    python3 perfbench/run.py --workload study|fit_sparse|predict_bulk \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the commands run the code under
``src/`` through ``python3 -m lupicp.cli``.  Set-up makes the workload's
inputs from the seed.  The run then repeats whole rounds of the
workload's command until the rounds have taken ``--seconds`` of wall
time, checks every round's outputs, and prints one line per metric and,
last, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates plain and traced rounds (see ``tracer.py``) and reports the
per-layer metrics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy loads, here and in every command
THREAD_ENV = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from layers import per_layer_metrics  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RUN_LIMIT_S = 150.0  # start no round that would end after this

# The study's inputs are fixed: the SVM+ cells that fail on them are kept
# as failed operations, and their share must not move with the seed.
# predict_bulk trains its model on them too, so only the scored rows (and
# not the model's support-vector count) vary with the seed.
STUDY_ROWS = 800
STUDY_DATA_SEED = 20180330
CONFIG_SEED = 7  # the program's own split seed, in every config
STUDY_REPETITIONS = 3
DEFAULT_GRIDS = {
    "svm_x": {"C": [0.1, 1.0, 10.0, 100.0, 1000.0],
              "gamma": [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0]},
    "svm_xstar": {"C": [0.1, 1.0, 10.0, 100.0, 1000.0],
                  "gamma": [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0]},
    "svmplus": {"C": [0.01, 0.1, 1.0, 10.0, 100.0],
                "gamma_plus": [1e-4, 1e-3, 1e-2, 0.1]},
}
EPSILON_GRID = [round(0.01 * k, 2) for k in range(1, 100)]
TRAIN_FRACTION, PROPER_FRACTION = 0.8, 0.7

FIT_ROWS = 2200
FIT_PARAMS = {"cost": 1.0, "gamma_plus": 1.0, "gamma1": 0.05, "gamma2": 0.01}

PREDICT_ROWS = 100_000
PREDICT_PARAMS = {"cost": 1.0, "gamma_plus": 0.1, "gamma1": 1e-3, "gamma2": 1e-3}
EPSILON = 0.05

CELL_FAILED = re.compile(r"grid cell C=\S+ gamma(?:_plus)?=\S+ failed")


def seconds_since_process_start() -> float:
    with open("/proc/self/stat", encoding="ascii") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


class Round(NamedTuple):
    """One finished command."""

    wall_s: float
    peak_rss_mb: float
    code: int
    stderr: str


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)

    def lupicp(self, args, trace_to=None) -> Round:
        """Run one command in its own process, timed from spawn to exit.

        The peak resident memory is that process's own, from ``wait4``."""
        if trace_to is None:
            argv = [sys.executable, "-m", "lupicp.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_to), *args]
        stderr_path = self.work / "stderr.txt"
        with open(stderr_path, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -9:
            raise SystemExit(f"lupicp {args[0]} ran past the time limit")
        return Round(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                     stderr_path.read_text(encoding="utf-8"))


class Workload:
    """Inputs made by ``setup``; ``command`` is one round; ``check`` raises
    CheckFailed on a wrong output and returns the failed operations, which
    ``failed_ops`` counts alone; ``fingerprint`` is what a round wrote."""

    name = ""
    ops_per_round = 1

    def __init__(self, runner: Runner, seed: int):
        self.runner = runner
        self.work = runner.work
        self.rng = np.random.default_rng(seed)

    def failed_ops(self, result: Round) -> int:
        return 0

    def clear_outputs(self):
        for name in self.outputs:
            (self.work / name).unlink(missing_ok=True)


class Study(Workload):
    name = "study"
    outputs = ("report.json",)

    def setup(self):
        y, self.config = write_study_inputs(self.work)
        self.cells = sum(len(g["C"]) * len(g[k]) for g, k in (
            (DEFAULT_GRIDS["svm_x"], "gamma"), (DEFAULT_GRIDS["svm_xstar"], "gamma"),
            (DEFAULT_GRIDS["svmplus"], "gamma_plus")))
        self.ops_per_round = self.cells + STUDY_REPETITIONS
        counts = {c: int(np.sum(y == c)) for c in checks.LABELS}
        self.sizes = checks.split_sizes(counts, TRAIN_FRACTION, PROPER_FRACTION)

    def command(self):
        return ["experiment", "--config", "config.json", "--out", "report.json"]

    def failed_cells(self, result: Round) -> int:
        return sum(1 for line in result.stderr.splitlines() if CELL_FAILED.search(line))

    def failed_ops(self, result: Round) -> int:
        report = json.loads((self.work / "report.json").read_text(encoding="utf-8"))
        return self.failed_cells(result) + len(report["failed_repetitions"])

    def check(self, result: Round) -> int:
        report = json.loads((self.work / "report.json").read_text(encoding="utf-8"))
        checks.check_study(report, self.config, self.sizes, {
            "svm_x": inputs.bayes_accuracy(inputs.X_SEPARATION),
            "svm_xstar": inputs.bayes_accuracy(inputs.XSTAR_SEPARATION),
            "svmplus": inputs.bayes_accuracy(inputs.X_SEPARATION),
        })
        return self.failed_ops(result)

    def fingerprint(self):
        report = json.loads((self.work / "report.json").read_text(encoding="utf-8"))
        report.pop("timings")
        return report


class FitSparse(Workload):
    name = "fit_sparse"
    outputs = ("model.txt", "calibration.txt")

    def setup(self):
        X, bits, y = inputs.drug_triplets(FIT_ROWS, self.rng)
        inputs.write_dense_csv(self.work / "x.csv", X)
        inputs.write_sparse_bits(self.work / "xstar.txt", bits)
        inputs.write_labels(self.work / "labels.txt", y)
        inputs.write_config(self.work / "config.json", "x.csv", "xstar.txt", "labels.txt",
                            "sparse-index-value", CONFIG_SEED, 1)
        self.X, self.y = X, y
        counts = {c: int(np.sum(y == c)) for c in checks.LABELS}
        sizes = checks.split_sizes(counts, TRAIN_FRACTION, PROPER_FRACTION)
        self.calibration_sizes = {c: s[3] for c, s in sizes.items()}

    def command(self):
        return train_command(FIT_PARAMS)

    def check(self, result: Round) -> int:
        checks.check_svmplus_fit(
            checks.read_model(self.work / "model.txt"),
            checks.read_calibration(self.work / "calibration.txt"),
            self.X, self.y, FIT_PARAMS["cost"], self.calibration_sizes)
        return 0

    def fingerprint(self):
        return [(self.work / name).read_bytes() for name in self.outputs]


class PredictBulk(Workload):
    name = "predict_bulk"
    outputs = ("predictions.tsv",)
    ops_per_round = PREDICT_ROWS

    def setup(self):
        write_study_inputs(self.work)
        self.rows, self.truth = inputs.study_rows(PREDICT_ROWS, self.rng)
        inputs.write_dense_csv(self.work / "rows.csv", self.rows)
        trained = self.runner.lupicp(train_command(PREDICT_PARAMS))
        if trained.code != 0:
            raise SystemExit(f"set-up training failed:\n{trained.stderr}")
        self.model = checks.read_model(self.work / "model.txt")
        self.calibration = checks.read_calibration(self.work / "calibration.txt")

    def command(self):
        return ["predict", "--model", "model.txt", "--calibration", "calibration.txt",
                "--input", "rows.csv", "--epsilon", str(EPSILON),
                "--out", "predictions.tsv"]

    def check(self, result: Round) -> int:
        checks.check_predictions(self.work / "predictions.tsv", self.model,
                                 self.calibration, self.rows, self.truth, EPSILON)
        return 0

    def fingerprint(self):
        return (self.work / "predictions.tsv").read_bytes()


def write_study_inputs(work: Path):
    """The study's fixed triplets and config; returns (labels, config)."""
    X, Xstar, y = inputs.study_triplets(STUDY_ROWS, np.random.default_rng(STUDY_DATA_SEED))
    inputs.write_dense_csv(work / "x.csv", X)
    inputs.write_dense_csv(work / "xstar.csv", Xstar)
    inputs.write_labels(work / "labels.txt", y)
    config = inputs.write_config(
        work / "config.json", "x.csv", "xstar.csv", "labels.txt", "dense-csv",
        CONFIG_SEED, STUDY_REPETITIONS, grids=DEFAULT_GRIDS, epsilon_grid=EPSILON_GRID)
    return y, config


def train_command(params):
    return ["train", "--config", "config.json", "--model", "svm-plus",
            "--cost", repr(params["cost"]), "--gamma-plus", repr(params["gamma_plus"]),
            "--gamma1", repr(params["gamma1"]), "--gamma2", repr(params["gamma2"]),
            "--out", "model.txt", "--calibration-out", "calibration.txt"]


WORKLOADS = {w.name: w for w in (Study, FitSparse, PredictBulk)}


def run_rounds(workload: Workload, seconds: float, limit: float, traced: bool):
    """Whole rounds while their command time stays within ``seconds``.

    Another round starts only if it fits in ``seconds`` at the length of the
    last one, so a workload whose round takes more than half of ``seconds``
    makes one round.  Untraced: one command per round.  Traced: a plain command,
    then the same command under the tracer.  The first command's outputs
    are checked in full; every later command, traced or not, must write
    the same outputs.  Returns (plain rounds, traced rounds with their
    per-layer metrics, failed ops).
    """
    runner = workload.runner
    plain, traced_rounds, failed, spent, reference = [], [], 0, 0.0, None
    while True:
        started, spent_before = time.monotonic(), spent
        workload.clear_outputs()
        result = runner.lupicp(workload.command())
        failed += run_checks(workload, result, reference)
        if reference is None and result.code == 0:
            reference = workload.fingerprint()
        plain.append(result)
        spent += result.wall_s
        if traced:
            workload.clear_outputs()
            spans_path = workload.work / "spans.json"
            result = runner.lupicp(workload.command(), trace_to=spans_path)
            failed += run_checks(workload, result, reference)
            if reference is None and result.code == 0:
                reference = workload.fingerprint()
            with open(spans_path, encoding="utf-8") as fh:
                metrics = per_layer_metrics(json.load(fh))
            check_trace(workload, metrics, plain[-1])
            traced_rounds.append((result, metrics))
            spent += result.wall_s
        last = spent - spent_before
        if (spent + last > seconds
                or time.monotonic() + (time.monotonic() - started) > limit):
            return plain, traced_rounds, failed


def run_checks(workload: Workload, result: Round, reference) -> int:
    """The failed operations of one command.  The outputs are checked in
    full until one command has passed (``reference`` is still None); after
    that the program, which is deterministic, must write those same outputs
    again."""
    if result.code != 0:
        print(f"lupicp exited {result.code}:\n{result.stderr[-2000:]}", file=sys.stderr)
        return workload.ops_per_round
    if reference is None:
        return workload.check(result)
    checks.require(workload.fingerprint() == reference,
                   "the command wrote other outputs than the first checked one")
    return workload.failed_ops(result)


def check_trace(workload: Workload, metrics: dict, plain: Round):
    """Totals the tracer counted against totals reached another way."""
    metrics["experiment.tuning_s"] = metrics["experiment.repetitions_s"] = 0.0
    if isinstance(workload, Study):
        checks.require(metrics["selection.cells"] == workload.cells,
                       f"tracer saw {metrics['selection.cells']} grid cells, "
                       f"the config holds {workload.cells}")
        logged = workload.failed_cells(plain)
        checks.require(metrics["selection.cells_failed"] == logged,
                       f"tracer saw {metrics['selection.cells_failed']} failed cells, "
                       f"the untraced run logged {logged}")
        report = json.loads((workload.work / "report.json").read_text(encoding="utf-8"))
        metrics["experiment.tuning_s"] = report["timings"]["tuning_seconds"]
        metrics["experiment.repetitions_s"] = sum(report["timings"]["repetition_seconds"])
    if isinstance(workload, FitSparse):
        checks.require(metrics["qp.solves"] == 1 and metrics["svmplus.train_calls"] == 1,
                       "the fit made other than one SVM+ solve")
    if isinstance(workload, PredictBulk):
        checks.require(metrics["conformal.rows"] == PREDICT_ROWS
                       and metrics["dataio.rows_read"] == PREDICT_ROWS,
                       "the tracer counted other than one pass over the rows")
    model = workload.work / "model.txt"
    metrics["model_io.model_bytes"] = model.stat().st_size if model.exists() else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lupicp" / "cli.py").is_file():
        print(f"no lupicp sources under {SRC}: run from the root of a lupicp checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](Runner(work, started + RUN_LIMIT_S + 20.0),
                                            args.seed)
        workload.setup()
        setup_s = seconds_since_process_start()
        try:
            plain, traced, failed = run_rounds(workload, args.seconds,
                                               started + RUN_LIMIT_S, bool(args.trace))
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = (len(plain) + len(traced)) * workload.ops_per_round
    if args.trace:
        values = {name: statistics.median([m[name] for _, m in traced])
                  for name in traced[0][1]}
        values["trace.overhead_s"] = (min(r.wall_s for r, _ in traced)
                                      - min(r.wall_s for r in plain))
    else:
        # The fastest round: other tenants of a shared host only ever slow a
        # round down, in phases of tens of seconds, so the fastest round
        # moves far less between runs than the median round does.
        command_s = min(r.wall_s for r in plain)
        values = {
            "setup_s": setup_s,
            "command_s": command_s,
            "ops_per_s": workload.ops_per_round / command_s,
            "peak_rss_mb": statistics.median([r.peak_rss_mb for r in plain]),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:<34} {metric['value']:>16.6f} {metric['unit']}")
    print(f"rounds {len(plain) + len(traced)}, operations attempted {attempted}, "
          f"failed {failed}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
