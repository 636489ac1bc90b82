"""Mondrian inductive conformal prediction on top of SVM and SVM+.

SVM+ realizes learning using privileged information: features available
only at training time shape the slack variables through a correcting
function, while prediction uses standard features alone.  The conformal
layer turns either decision function into per-class valid p-values and
prediction regions, and the experiment driver reproduces the full
tune/train/calibrate/evaluate protocol with seeded determinism.
"""

from .conformal import (
    CalibrationTable,
    accuracy,
    calibrate,
    conformity_score,
    mondrian_pvalue,
    mondrian_pvalue_smoothed,
    observed_fuzziness,
    pairs_from_decision_values,
    predict_region,
    validity_deviation,
)
from .dataio import DataFormatError, TripletDataset, load_feature_file, load_labels, load_mnist_5v8
from .experiment import ExperimentConfig, ExperimentReport, run_experiment
from .kernels import KernelSpec, gram_matrix, rbf_eval
from .model_io import load_calibration, load_model, save_calibration, save_model
from .qp import (
    QpInfeasibleError,
    QpNonConvergenceError,
    QpProblem,
    QpSolution,
    kkt_residual,
    solve_qp,
)
from .selection import (
    GridSpec,
    SplitPlan,
    grid_search_svm,
    kfold_indices,
    stratified_split,
    tune_three_step,
)
from .svm import DecisionModel, SvmConfig, TrainingError, svm_train
from .svmplus import SvmPlusConfig, SvmPlusModel, svmplus_train

__version__ = "0.1.0"
