"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns arrays; the
writers put them on disk in the formats ``lupicp`` reads.  Nothing here
imports ``lupicp``: the inputs and the output checks stay independent of
the program under test.
"""

from __future__ import annotations

import json
import math

import numpy as np

# The study distribution: two Gaussian classes per view, identity
# covariance, means +-(separation / 2) along the all-ones direction.  The
# Bayes accuracy of such a view is Phi(separation / 2).
X_DIM = 64
XSTAR_DIM = 20
X_SEPARATION = 2.0  # Bayes accuracy 0.8413: overlapping classes
XSTAR_SEPARATION = 5.0  # Bayes accuracy 0.9938: the cleaner privileged view

# Drug-shaped triplets: dense descriptors as X, fingerprint bits as X*.
DESCRIPTOR_DIM = 20
DESCRIPTOR_SEPARATION = 2.0
FINGERPRINT_BITS = 1024
FINGERPRINT_DENSITY = 0.05  # chance that an uninformative bit is set
INFORMATIVE_BITS = 128  # bits whose chance moves with the label
INFORMATIVE_SHIFT = 0.04  # set with chance 0.09 on one class, 0.01 on the other

CSV_DECIMALS = 6


def bayes_accuracy(separation: float) -> float:
    """Phi(separation / 2), the best accuracy any classifier can reach."""
    return 0.5 * (1.0 + math.erf(separation / 2.0 / math.sqrt(2.0)))


def balanced_labels(n: int, rng) -> np.ndarray:
    return np.where(rng.permutation(n) < n // 2, -1, 1)


def _gaussian_view(y, dim, separation, rng):
    shift = (separation / 2.0) / math.sqrt(dim)
    return np.round(rng.standard_normal((y.shape[0], dim)) + y[:, None] * shift,
                    CSV_DECIMALS)


def study_triplets(n: int, rng):
    """(X, X*, y) from the study distribution."""
    y = balanced_labels(n, rng)
    return (_gaussian_view(y, X_DIM, X_SEPARATION, rng),
            _gaussian_view(y, XSTAR_DIM, XSTAR_SEPARATION, rng), y)


def study_rows(n: int, rng):
    """Fresh (X, y) rows from the study distribution, without X*."""
    y = balanced_labels(n, rng)
    return _gaussian_view(y, X_DIM, X_SEPARATION, rng), y


def drug_triplets(n: int, rng):
    """(descriptors, fingerprint bits as a bool matrix, y)."""
    y = balanced_labels(n, rng)
    X = _gaussian_view(y, DESCRIPTOR_DIM, DESCRIPTOR_SEPARATION, rng)
    chance = np.full((n, FINGERPRINT_BITS), FINGERPRINT_DENSITY)
    chance[:, :INFORMATIVE_BITS] += y[:, None] * INFORMATIVE_SHIFT
    bits = rng.random((n, FINGERPRINT_BITS)) < chance
    return X, bits, y


def write_dense_csv(path, X) -> None:
    np.savetxt(path, X, fmt=f"%.{CSV_DECIMALS}f", delimiter=",")


def write_sparse_bits(path, bits) -> None:
    """``#dim N`` then one row of ``index:1`` pairs per example."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"#dim {bits.shape[1]}\n")
        for row in bits:
            fh.write(" ".join(f"{j}:1" for j in np.flatnonzero(row)))
            fh.write("\n")


def write_labels(path, y) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(str(int(v)) for v in y))
        fh.write("\n")


def write_config(path, x_path, xstar_path, labels_path, xstar_format,
                 seed, repetitions, **settings) -> dict:
    """An experiment config over triplet files, plus any further settings."""
    config = {
        "dataset": {
            "kind": "triplet-files",
            "x": {"path": str(x_path), "format": "dense-csv"},
            "xstar": {"path": str(xstar_path), "format": xstar_format},
            "labels": str(labels_path),
        },
        "seed": seed,
        "repetitions": repetitions,
        **settings,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return config
