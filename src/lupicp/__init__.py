"""Mondrian inductive conformal prediction on top of SVM and SVM+.

SVM+ realizes learning using privileged information: features available
only at training time shape the slack variables through a correcting
function, while prediction uses standard features alone.  The conformal
layer turns either decision function into per-class valid p-values and
prediction regions, and the experiment driver reproduces the full
tune/train/calibrate/evaluate protocol with seeded determinism.

The package imports none of its modules: import the one you use, as in
``from lupicp.svm import svm_train``.  So ``lupicp predict`` loads only
the scoring layers, and no training module or scipy.
"""

__version__ = "0.1.0"
