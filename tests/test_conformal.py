import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lupicp.conformal import (
    CalibrationTable,
    accuracy,
    calibrate,
    default_epsilon_grid,
    observed_fuzziness,
    pairs_from_decision_values,
    predict_region,
    validity_deviation,
)
from lupicp.kernels import KernelSpec
from lupicp.svm import SvmConfig, svm_train
from conftest import two_blobs
from oracles import mondrian_pvalue


class StubModel:
    def __init__(self, value):
        self.value = value

    def decision_values(self, X):
        return np.full(len(X), self.value)


def table(scores):
    return CalibrationTable(scores_by_class={-1: scores, 1: scores})


def p_plus(t, score):
    """p(+1) of one test object whose conformity score under +1 is score."""
    return pairs_from_decision_values(t, [score])[0, 1]


def test_conformity_score_is_signed_margin():
    # calibration scores are y * f(x): f = 0.7 gives +0.7 in class +1
    # and -0.7 in class -1
    y = np.array([1, -1, 1, -1, -1])
    t = calibrate(StubModel(0.7), np.zeros((5, 2)), y)
    assert t.scores_by_class[1].tolist() == [0.7, 0.7]
    assert t.scores_by_class[-1].tolist() == [-0.7, -0.7, -0.7]
    zero = calibrate(StubModel(0.0), np.zeros((5, 2)), y)
    assert zero.scores_by_class[1].tolist() == [0.0, 0.0]
    assert zero.scores_by_class[-1].tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "score,expected",
    [(0.9, 1.0), (0.1, 0.25), (0.5, 0.75)],  # tie at 0.5 counts toward numerator
)
def test_mondrian_pvalue_counting(score, expected):
    t = table([0.2, 0.5, 0.8])
    pvalues = pairs_from_decision_values(t, [score, -score])
    assert pvalues[0, 1] == pytest.approx(expected)  # f = score under +1
    assert pvalues[1, 0] == pytest.approx(expected)  # f = -score under -1
    assert mondrian_pvalue(t, score, 1) == pytest.approx(expected)


def test_vacuous_class_gives_p_one():
    t = CalibrationTable(scores_by_class={1: [0.1, 0.2]})
    assert t.count(-1) == 0
    assert t.count(1) != 0
    assert pairs_from_decision_values(t, [5.0])[0, 0] == 1.0


def test_pvalue_monotone_in_score():
    t = table(np.linspace(-1, 1, 17))
    scores = np.linspace(-2, 2, 41)
    pvalues = pairs_from_decision_values(t, scores)
    # p(+1) rises with f, p(-1) (whose conformity score is -f) falls
    assert np.all(np.diff(pvalues[:, 1]) >= 0)
    assert np.all(np.diff(pvalues[:, 0]) <= 0)


@given(
    cal=st.lists(st.floats(-3, 3), min_size=1, max_size=30),
    score=st.floats(-3, 3),
)
@settings(max_examples=60, deadline=None)
def test_adding_calibration_scores_moves_p(cal, score):
    t0 = CalibrationTable(scores_by_class={1: cal})
    p0 = p_plus(t0, score)
    below = CalibrationTable(scores_by_class={1: cal + [score - 1.0]})
    above = CalibrationTable(scores_by_class={1: cal + [score + 1.0]})
    p_below = p_plus(below, score)
    if p0 < 1.0:
        assert p_below > p0  # climbs toward 1
    else:
        assert p_below == 1.0
    assert p_plus(above, score) < p0


def test_region_membership_rules():
    regions = predict_region(np.array([[0.04, 0.60], [0.40, 0.60], [0.04, 0.03]]), 0.05)
    assert regions.tolist() == [[False, True], [True, True], [False, False]]
    with pytest.raises(ValueError):
        predict_region(np.array([[0.5, 0.5]]), 0.0)


def test_region_nesting():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pv = rng.uniform(size=(1, 2))
        e1, e2 = sorted(rng.uniform(0.01, 0.99, size=2))
        # every label in the e2 region is in the e1 region
        assert np.all(predict_region(pv, e2) <= predict_region(pv, e1))


def test_observed_fuzziness_examples():
    pvalues = np.array([[0.1, 0.9], [0.8, 0.3]])  # columns p(-1), p(+1)
    truth = [1, -1]  # false-label p-values: 0.1 and 0.3
    assert observed_fuzziness(pvalues, truth) == pytest.approx(0.2)
    zero = np.array([[0.0, 1.0], [0.0, 0.5]])
    assert observed_fuzziness(zero, [1, 1]) == 0.0
    ones = np.array([[1.0, 0.2], [1.0, 0.9]])
    assert observed_fuzziness(ones, [1, 1]) == 1.0
    with pytest.raises(ValueError):
        observed_fuzziness([], [])
    with pytest.raises(ValueError):
        observed_fuzziness(pvalues, [1])


def test_validity_deviation_all_p_one():
    grid = default_epsilon_grid()
    pvalues = np.ones((10, 2))
    truth = [-1] * 5 + [1] * 5
    result = validity_deviation(pvalues, truth, grid)
    assert result.per_class[-1] == pytest.approx(0.5)
    assert result.per_class[1] == pytest.approx(0.5)
    assert result.pooled == pytest.approx(0.5)


def test_validity_deviation_uniform_p_values():
    # p-values hitting each grid quantile exactly -> near-zero deviation
    grid = default_epsilon_grid()
    n = 100
    ps = (np.arange(n) + 1) / n
    pvalues = np.column_stack([ps, ps])
    truth = [1] * n
    result = validity_deviation(pvalues, truth, grid)
    assert result.per_class[1] <= 1.0 / (2 * len(grid))
    assert result.per_class[-1] is None  # class absent from the test set
    assert result.pooled == result.per_class[1]


def test_validity_deviation_single_epsilon():
    pvalues = np.array([[0.25, 0.25]] * 2 + [[0.75, 0.75]] * 2)
    result = validity_deviation(pvalues, [1, 1, 1, 1], [0.5])
    assert result.per_class[1] == pytest.approx(0.0)


def test_validity_deviation_reads_the_true_label_column():
    # true-label p-values 0.9 never fall at or below 0.1: err = 0, so the
    # deviation is 0.1 (the false-label column would give err = 1 and 0.9)
    pvalues = np.array([[0.9, 0.05], [0.05, 0.9]])
    result = validity_deviation(pvalues, [-1, 1], [0.1])
    assert result.per_class == {-1: pytest.approx(0.1), 1: pytest.approx(0.1)}


def test_validity_deviation_rejects_bad_grid():
    with pytest.raises(ValueError):
        validity_deviation(np.array([[0.5, 0.5]]), [1], [0.0, 0.5])
    with pytest.raises(ValueError):
        validity_deviation(np.array([[0.5, 0.5]]), [1, -1], [0.5])


def test_accuracy_examples():
    assert accuracy([1, -1, 1], [1, -1, 1]) == 1.0
    assert accuracy([1, -1], [-1, 1]) == 0.0
    assert accuracy([1, 1, -1, -1], [1, 1, -1, 1]) == 0.75
    with pytest.raises(ValueError):
        accuracy([], [])


def test_calibrate_splits_by_class():
    X, y = two_blobs(40, seed=1)
    model = svm_train(X, y, SvmConfig(C=1.0, kernel=KernelSpec(0.5)))
    t = calibrate(model, X, y)
    assert t.count(-1) + t.count(1) == 40
    assert t.count(-1) == int(np.sum(y == -1))
    for label in (-1, 1):
        scores = t.scores_by_class[label]
        assert np.all(np.diff(scores) >= 0)


def test_pairs_from_decision_values_match_scalar_path():
    X, y = two_blobs(30, seed=2)
    model = svm_train(X, y, SvmConfig(C=1.0, kernel=KernelSpec(0.5)))
    t = calibrate(model, X[:20], y[:20])
    values = model.decision_values(X[20:])
    pvalues = pairs_from_decision_values(t, values)
    assert pvalues.shape == (10, 2)
    for (p_minus, p_plus), v in zip(pvalues, values):
        assert p_minus == pytest.approx(mondrian_pvalue(t, -v, -1))
        assert p_plus == pytest.approx(mondrian_pvalue(t, v, 1))


def test_pairs_from_decision_values_vacuous_class_gives_p_one():
    t = CalibrationTable(scores_by_class={1: [0.1, 0.2]})
    pvalues = pairs_from_decision_values(t, [-5.0, 0.15])
    assert pvalues[:, 0].tolist() == [1.0, 1.0]
    assert pvalues[:, 1].tolist() == [1 / 3, 2 / 3]


def test_true_class_pvalues_stochastically_above_uniform():
    # conservative (deterministic) p-values: empirical CDF <= eps + 3 sigma
    rng = np.random.default_rng(7)
    reps, n_cal, n_test = 60, 60, 60
    hits = {0.05: 0, 0.1: 0, 0.2: 0}
    total = 0
    for _ in range(reps):
        cal = rng.standard_normal(n_cal)
        test = rng.standard_normal(n_test)
        t = CalibrationTable(scores_by_class={1: cal, -1: []})
        p = pairs_from_decision_values(t, test)[:, 1]
        for eps in hits:
            hits[eps] += int(np.sum(p <= eps))
        total += n_test
    for eps, count in hits.items():
        sigma = np.sqrt(eps * (1 - eps) / total)
        assert count / total <= eps + 3 * sigma
