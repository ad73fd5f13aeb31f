import itertools
import math

import numpy as np
import pytest

from omma import policy
from omma.confusion import (ProbEstimate, expected_instance_confusion, multiclass,
                            multilabel)
from omma.metrics import parse_metric


def tensor(*rows):
    return np.array(rows, dtype=float).reshape(-1, 2, 2)


def test_cost_coefficients_macro_f1_uniform():
    # per-label gradient at the uniform block, before any macro scaling
    G = tensor([[0.0, -0.5], [-0.5, 1.0]])
    alpha, beta = policy.cost_coefficients(G)
    assert alpha[0] == pytest.approx(2.0)
    assert beta[0] == pytest.approx(0.5)
    assert beta[0] / alpha[0] == pytest.approx(0.25)


def test_cost_coefficients_accuracy_scaled():
    for c in (1.0, 0.01, 7.5):
        G = c * tensor([[1.0, 0.0], [0.0, 1.0]])
        alpha, beta = policy.cost_coefficients(G)
        assert alpha[0] == pytest.approx(2.0 * c)
        assert beta[0] == pytest.approx(c)
        assert beta[0] / alpha[0] == pytest.approx(0.5)


def test_cost_coefficients_zero_gradient():
    alpha, beta = policy.cost_coefficients(np.zeros((3, 2, 2)))
    g = policy.gains(policy.CostCoefficients(alpha, beta), np.full(3, 0.4))
    assert np.all(alpha == 0) and np.all(beta == 0) and np.all(g == 0)


def test_cost_coefficients_shape_check():
    with pytest.raises(ValueError):
        policy.cost_coefficients(np.zeros((2, 2)))


def test_gains_threshold_point():
    coeffs = policy.CostCoefficients(np.array([2.0]), np.array([0.5]))
    assert policy.gains(coeffs, np.array([0.25]))[0] == pytest.approx(0.0)
    assert policy.gains(coeffs, np.array([0.7]))[0] == pytest.approx(0.9)


def test_gains_unlisted_label():
    coeffs = policy.CostCoefficients(np.array([1.0, 1.0]), np.array([0.2, 0.1]))
    est = ProbEstimate(2, [0], [0.5])
    g = policy.gains(coeffs, est)
    assert g[1] == pytest.approx(-0.1)


def test_decide_multilabel_zero_gain_is_positive():
    assert policy.decide_multilabel(np.array([0.2, -0.1, 0.0])) == (0, 2)


def test_decide_multilabel_budget():
    assert policy.decide_multilabel(np.array([0.2, -0.1, 0.0]), budget=1) == (0,)
    assert policy.decide_multilabel(np.array([0.5, 0.5, 0.1]), budget=2) == (0, 1)
    with pytest.raises(ValueError):
        policy.decide_multilabel(np.array([0.1]), budget=2)


def test_decide_multilabel_budget_size_always_k():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = rng.normal(size=8)
        assert len(policy.decide_multilabel(g, budget=3)) == 3


def test_decide_multiclass_identity_gradient():
    pred = policy.decide_multiclass(np.eye(3), np.array([0.2, 0.5, 0.3]))
    assert pred == (1,)


def test_decide_multiclass_hand_dot_product():
    G = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert policy.decide_multiclass(G, np.array([0.9, 0.1])) == (1,)


def test_decide_multiclass_tie_break():
    G = np.ones((3, 3))
    assert policy.decide_multiclass(G, np.array([0.3, 0.3, 0.4])) == (0,)


def test_the_threshold_comparison_differs_from_the_gain_only_at_one_infinity():
    # alpha * eta overflows to +inf, -inf and +inf; the first two meet a beta
    # of the same infinity, where the gain inf - inf is NaN
    coeffs = policy.CostCoefficients(np.array([1e308, -1e308, 1e308]),
                                     np.array([np.inf, -np.inf, 1e308]))
    eta = np.full(3, 10.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert policy.decide_coefficients(coeffs, eta).tolist() == [True, True, True]
        assert policy.decide(policy.gains(coeffs, eta)).tolist() == [False, False, True]


@pytest.mark.parametrize("row", [
    [0.1, 0.2, 0.3],
    [0.7, 0.1, 0.1, 0.1],
    [1e16, 1.0, -1e16],  # a naive sum reads 0.0, fsum 1.0
    [0.0, -0.0],
    [5e-324, 0.25, 1e-310],
    [0.5],
])
def test_a_rows_class_mass_is_a_0d_float64_array_of_the_fsum(row):
    mass = policy.class_mass(np.array(row))
    assert type(mass) is np.ndarray and mass.shape == () and mass.dtype == np.float64
    assert mass.tobytes() == np.float64(math.fsum(row)).tobytes()


def test_decide_sparse_threshold():
    # accuracy-style coefficients: threshold 0.5 on every label
    est = ProbEstimate(10_000, [3, 7], [0.9, 0.4])
    coeffs = policy.CostCoefficients(np.array([2.0, 2.0]), np.array([1.0, 1.0]))
    assert policy.decide_sparse(coeffs, est) == (3,)
    assert policy.decide_sparse(coeffs, est, budget=2) == (3, 7)


def test_decide_sparse_empty_support():
    est = ProbEstimate(100, [], [])
    coeffs = policy.CostCoefficients(np.zeros(0), np.zeros(0))
    assert policy.decide_sparse(coeffs, est) == ()


def test_decide_sparse_budget_exceeds_support():
    est = ProbEstimate(100, [3], [0.9])
    coeffs = policy.CostCoefficients(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        policy.decide_sparse(coeffs, est, budget=2)


def _random_state_gradient(rng, metric, m):
    counts = rng.random((m, 2, 2)) * 5 + 0.05
    return metric.gradient(counts / counts.sum())


def _linearized_objective(task, G, est, yhat):
    return float(np.sum(G * expected_instance_confusion(task, est, yhat)))


@pytest.mark.parametrize("metric_name", ["macro-f1", "macro-gmean", "micro-f1"])
def test_multilabel_bruteforce_equivalence(metric_name):
    """Unbudgeted decisions equal exhaustive argmax over all 2^m subsets."""
    rng = np.random.default_rng(31)
    metric = parse_metric(metric_name)
    m = 6
    task = multilabel(m)
    subsets = [tuple(j for j in range(m) if bits >> j & 1) for bits in range(2**m)]
    for _ in range(40):
        G = _random_state_gradient(rng, metric, m)
        est = ProbEstimate.from_dense(rng.random(m))
        pred = policy.decide_multilabel(policy.gains(policy.cost_coefficients(G), est))
        scores = {s: _linearized_objective(task, G, est, s) for s in subsets}
        best = max(scores.values())
        assert scores[pred] == pytest.approx(best, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_multilabel_budgeted_bruteforce_equivalence(k):
    rng = np.random.default_rng(77 + k)
    metric = parse_metric("macro-f1")
    m = 7
    task = multilabel(m)
    for _ in range(40):
        G = _random_state_gradient(rng, metric, m)
        est = ProbEstimate.from_dense(rng.random(m))
        g = policy.gains(policy.cost_coefficients(G), est)
        pred = policy.decide_multilabel(g, budget=k)
        best = max(_linearized_objective(task, G, est, s)
                   for s in itertools.combinations(range(m), k))
        assert _linearized_objective(task, G, est, pred) == pytest.approx(best, abs=1e-12)


def test_multiclass_bruteforce_equivalence():
    rng = np.random.default_rng(5)
    metric = parse_metric("mc-gmean")
    m = 7
    task = multiclass(m)
    for _ in range(40):
        counts = rng.random((m, m)) * 5 + 0.05
        G = metric.gradient(counts / counts.sum())
        p = rng.random(m)
        est = ProbEstimate.from_dense(p / p.sum())
        pred = policy.decide_multiclass(G, est)
        scores = [_linearized_objective(task, G, est, (c,)) for c in range(m)]
        assert scores[pred[0]] == pytest.approx(max(scores), abs=1e-12)


def test_positive_scaling_invariance():
    rng = np.random.default_rng(13)
    metric = parse_metric("macro-hmean")
    m = 6
    for _ in range(25):
        G = _random_state_gradient(rng, metric, m)
        est = ProbEstimate.from_dense(rng.random(m))
        base = policy.decide_multilabel(policy.gains(policy.cost_coefficients(G), est))
        for c in (0.5, 3.0, 1e4):
            scaled = policy.decide_multilabel(
                policy.gains(policy.cost_coefficients(c * G), est))
            assert scaled == base


def test_f1_threshold_identity():
    """For unit-beta F-measure coefficients, beta/alpha equals half the metric value."""
    rng = np.random.default_rng(99)
    metric = parse_metric("macro-f1")
    for _ in range(1000):
        blocks = rng.random((3, 2, 2)) + 0.01
        blocks /= blocks.sum(axis=(1, 2), keepdims=True)
        G = metric.gradient(blocks)
        alpha, beta = policy.cost_coefficients(G)
        per_label = metric.block_values(blocks)
        assert np.all(np.abs(beta / alpha - per_label / 2.0) < 1e-12)


def test_sparse_agrees_with_dense_completion():
    """With strictly positive off-support betas (interior states of monotone
    metrics), the sparse rule reproduces the dense rule on the zero-filled
    estimate.  Note beta_j = 0 breaks agreement by design: the dense rule then
    predicts the label through the gain-zero-is-positive convention while the
    off-support approximation never does."""
    rng = np.random.default_rng(21)
    m = 40
    for name in ("macro-f1", "macro-gmean", "macro-qmean"):
        metric = parse_metric(name)
        for _ in range(20):
            counts = rng.random((m, 2, 2)) + 0.01
            C = counts / counts.sum()
            G = metric.gradient(C)
            coeffs = policy.cost_coefficients(G)
            support = np.sort(rng.choice(m, size=8, replace=False))
            est = ProbEstimate(m, support, rng.random(8))
            off = np.setdiff1d(np.arange(m), support)
            assert np.all(coeffs.beta[off] > 0)
            dense_pred = policy.decide_multilabel(policy.gains(coeffs, est))
            sparse_pred = policy.decide_sparse(
                policy.CostCoefficients(coeffs.alpha[support], coeffs.beta[support]), est)
            assert dense_pred == sparse_pred
