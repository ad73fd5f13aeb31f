"""Property tests of the decision kernel, the coefficient decision rule of
rows and buffers, its exact tie rule, the accumulation rule, the batch-built
estimate streams, the label-file parse, the run loop's checkpoints, a run's prebuilt
reference pairs, the per-label and per-class
coefficients, the native multiclass kernels, stacked coefficients,
Frank-Wolfe's reuse of vertex confusions, its independence of memory layout
and its lockstep fits of nested prefixes, the refit groups of a run, and a
mixture's draws."""

import dataclasses
import itertools
import os
import re
import tempfile
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omma import algorithms, evaluation, metrics, policy
from omma.algorithms import (ALGORITHMS, LearnerConfig, MixtureClassifier, OfflineFWLearner,
                             UnsupportedMetricError, fw_fit, make_learner)
from omma.confusion import (ProbEstimate, Task, _cells, batch_counts, check_labels,
                            expected_instance_confusion, indicator_row, init_state,
                            top_entries)
from omma.dataio import (DataFormatError, InstanceStream, SynthModel, _latent_draw,
                         load_stream, perturb_estimates, read_estimates, shuffle,
                         sparsify_estimates, synth_generate)
from omma.metrics import (BINARY, EPSILON_FLOOR, MACRO, MICRO, MULTICLASS_NATIVE, CostCoefficients,
                          list_metrics, min_tn_tp, parse_metric)

# few distinct values, zero among them, so that ties and zero gains are common
SCORES = st.sampled_from([-1.0, -0.25, 0.0, 0.0, 0.5, 1.0])
PROBS = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
KINDS = st.sampled_from(["multilabel", "multiclass"])


def as_labels(row) -> tuple:
    return tuple(np.nonzero(row)[0].tolist())


def same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@st.composite
def score_matrices(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(SCORES, min_size=m, max_size=m), min_size=n, max_size=n))
    return np.array(rows)


@st.composite
def instances(draw, kind, m):
    """A (label tuple, prediction tuple, dense estimate) triple for one instance.

    Multiclass instances have one true and one predicted class, and their
    estimates are distributions.
    """
    eta = np.array(draw(st.lists(PROBS, min_size=m, max_size=m)))
    if kind == "multilabel":
        y = tuple(j for j in range(m) if draw(st.booleans()))
        yhat = tuple(j for j in range(m) if draw(st.booleans()))
        return y, yhat, eta
    eta = eta / eta.sum() if eta.sum() > 0 else np.full(m, 1.0 / m)
    return (draw(st.integers(0, m - 1)),), (draw(st.integers(0, m - 1)),), eta


@st.composite
def streams(draw):
    kind = draw(KINDS)
    m = draw(st.integers(2, 6))
    seq = draw(st.lists(instances(kind, m), min_size=1, max_size=12))
    lam = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    return Task(kind, m), seq, lam


@settings(max_examples=200, deadline=None)
@given(score_matrices(), st.data())
def test_batch_decisions_equal_one_row_decisions(S, data):
    m = S.shape[1]
    budget = data.draw(st.none() | st.integers(0, m))
    dec = policy.decide(S, budget)
    assert [as_labels(row) for row in dec] == [
        policy.decide_multilabel(row, budget) for row in S]
    top = policy.decide(S, budget, argmax=True)
    assert [as_labels(row) for row in top] == [
        as_labels(policy.decide(row, budget, argmax=True)) for row in S]
    if budget is None:
        # a zero gain predicts positive; argmax takes the first maximum
        assert np.array_equal(dec, S >= 0.0)
        assert [as_labels(row) for row in top] == [(int(np.argmax(row)),) for row in S]
    else:
        assert np.all(dec.sum(axis=1) == budget)


def two_argsort_rank_decisions(scores, budget):
    """The budget rule as a rank: each score's place in a stable descending
    sort, the first ``budget`` places winning."""
    return (-scores).argsort(axis=-1, kind="stable").argsort(axis=-1) < budget


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda m: st.lists(
    st.lists(SCORES | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
             min_size=m, max_size=m), min_size=1, max_size=8)),
       st.booleans(), st.booleans())
def test_a_budget_of_one_keeps_the_first_maximum(rows, one_row, argmax):
    S = np.array(rows[0] if one_row else rows)
    dec = policy.decide(S, 1, argmax=argmax)
    assert dec.shape == S.shape and dec.dtype == bool
    assert np.array_equal(dec, two_argsort_rank_decisions(S, 1))


# multiples of 1/4 at most 2 in size: with dyadic coefficients and estimates
# every product and sum of the class scores of m <= 8 classes is exact
DYADIC_SCORES = st.sampled_from([-1.0, -0.25, 0.0, 0.0, 0.5, 1.0, 2.0])
DYADIC_PROBS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.75, 1.0])
DYADIC_CELLS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0])


@st.composite
def coefficient_buffers(draw):
    """Coefficients of arbitrary floats, the task kind they decide, an (n, m)
    estimate buffer of arbitrary probabilities in a row-major, column-major or
    strided layout, and a budget.  A multiclass beta may be the structural
    zero 0.0."""
    kind = draw(KINDS)
    m = draw(st.integers(2 if kind == "multiclass" else 1, 20))
    n = draw(st.integers(1, 6))
    floats = SCORES | st.floats(-2.0, 2.0)
    alpha, beta = (np.array(draw(st.lists(floats, min_size=m, max_size=m))) for _ in "ab")
    if kind == "multiclass" and draw(st.booleans()):
        beta = 0.0
    eta = np.array(draw(st.lists(PROBS | st.floats(0.0, 1.0), min_size=n * m,
                                 max_size=n * m))).reshape(n, m)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    return (CostCoefficients(alpha, beta), kind == "multiclass", in_layout(eta, layout),
            draw(st.none() | st.integers(1, m)))


@settings(max_examples=300, deadline=None)
@given(coefficient_buffers())
def test_buffer_decisions_equal_one_row_gradient_decisions(case):
    """One ``decide_coefficients`` call on an (n, m) buffer equals its n
    one-row calls, on arbitrary floats and in any memory layout: the
    gradient's decision rule in its coefficient form is elementwise or reads
    one row, and a row's mass is correctly rounded."""
    coeffs, multiclass, E, budget = case
    dec = policy.decide_coefficients(coeffs, E, budget, multiclass=multiclass)
    rows = [policy.decide_coefficients(coeffs, row, budget, multiclass=multiclass)
            for row in E]
    assert dec.dtype == bool and dec.shape == E.shape
    assert all(row.dtype == bool and row.shape == E.shape[1:] for row in rows)
    assert np.array_equal(dec, np.array(rows))
    assert policy.class_mass(E).tobytes() == np.array(
        [[policy.class_mass(row)] for row in E]).tobytes()
    if budget is not None:
        assert np.all(dec.sum(axis=1) == budget)
    elif multiclass:
        assert np.all(dec.sum(axis=1) == 1)


# finite floats: signed zeros, subnormals and the ends of the range among them
FINITE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                          1.7976931348623157e308, -1.7976931348623157e308]) | st.floats(
    allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 8), st.integers(0, 5), st.sampled_from(["C", "F"]), st.booleans(),
       st.data())
def test_the_threshold_comparison_equals_the_thresholded_gains(m, n, layout, structural,
                                                               data):
    """The unbudgeted multilabel rule ``alpha * eta >= beta`` of
    ``decide_coefficients`` and ``decide_support`` equals ``decide(gains(coeffs,
    eta))``, the gain ``alpha * eta - beta`` thresholded at 0, bit for bit:
    on finite floats (signed zeros and subnormals among them), an (m,) row
    (n = 0) or an (n, m) buffer in C or F order, and the structural zero
    beta 0.0.  For finite x and y, x - y is 0 exactly where x == y and
    otherwise has the sign of x - y, also where alpha * eta overflows.  The
    one exception is both sides the same infinity (the gain is NaN), which
    needs an infinite beta; under ``FP_ERRORS`` a run raises first."""
    def floats(k):
        return np.array(data.draw(st.lists(FINITE, min_size=k, max_size=k)))

    coeffs = CostCoefficients(floats(m), 0.0 if structural else floats(m))
    eta = floats(m) if n == 0 else in_layout(floats(n * m).reshape(n, m), layout)
    with np.errstate(over="ignore"):
        want = policy.decide(policy.gains(coeffs, eta))
        got = policy.decide_coefficients(coeffs, eta)
        if n == 0:
            listed = np.arange(m)
            assert np.array_equal(policy.decide_support(coeffs, listed, eta, m), want)
    assert got.dtype == bool and got.shape == want.shape and np.array_equal(got, want)


def exact_column_scores(G, eta):
    """The column scores eta @ G in exact rational arithmetic on the floats given."""
    return [sum(Fraction(e) * Fraction(g) for e, g in zip(eta.tolist(), column))
            for column in G.T.tolist()]


def exact_column_decisions(G, eta, budget):
    """The k best (1 without a budget) of the exact column scores eta @ G,
    ties to the lowest class."""
    scores = exact_column_scores(G, eta)
    dec = np.zeros(G.shape[0], dtype=bool)
    dec[sorted(range(len(scores)), key=lambda c: (-scores[c], c))[:budget or 1]] = True
    return dec


@settings(max_examples=500, deadline=None)
@given(st.integers(2, 8).flatmap(lambda m: st.tuples(
    *[st.lists(DYADIC_SCORES, min_size=m, max_size=m)] * 3,
    st.lists(DYADIC_PROBS, min_size=m, max_size=m),
    st.none() | st.integers(1, m))), st.booleans())
def test_class_scores_rank_as_exact_column_scores(case, structural):
    """The gradient G = a 1^T - 1 beta^T + diag(alpha) of dyadic (a, alpha,
    beta), and a dyadic estimate: every step of the coefficient rule is then
    exact, and it picks the exact argmax, or top k, of eta @ G, ties to the
    lowest class.  A structural zero beta is the scalar 0.0."""
    *rows, budget = case
    a, alpha, beta, eta = map(np.array, rows)
    if structural:
        beta[...] = 0.0
    G = a[:, None] - beta[None, :] + np.diag(alpha)
    coeffs = CostCoefficients(alpha, 0.0 if structural else beta)
    got = policy.decide_coefficients(coeffs, eta, budget, multiclass=True)
    assert np.array_equal(got, exact_column_decisions(G, eta, budget))


CLASS_METRICS = [i.name for i in list_metrics()]  # each takes a multiclass task


@pytest.mark.parametrize("name", CLASS_METRICS)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_class_coefficients_decide_as_the_column_scores_of_the_gradient(name, data):
    """On dyadic confusions and estimates, the coefficient rule of every
    metric picks the exact argmax, or top k, of the column scores eta @ G of
    its gradient, up to rounding: each class it picks scores within ``tol``
    of the k-th best exact score, and each class it leaves at most ``tol``
    above it.  ``tol`` is 2^-45 of sum(eta) times the largest magnitude in
    G, alpha and beta.  Rounding can split a tie that the metric makes
    exactly, so no closer statement holds for the float gradient."""
    m = 2 if parse_metric(name).averaging == BINARY else data.draw(st.integers(2, 8))
    budget = data.draw(st.none() | st.integers(1, m))
    metric = parse_metric(name + (f"@{budget}" if budget else ""),
                          epsilon=data.draw(st.sampled_from([1e-9, 0.25])))
    C = np.array(data.draw(st.lists(DYADIC_CELLS, min_size=m * m,
                                     max_size=m * m))).reshape(m, m)
    eta = np.array(data.draw(st.lists(DYADIC_PROBS, min_size=m, max_size=m)))
    with np.errstate(**evaluation.FP_ERRORS):
        G = metric.gradient(C)
        alpha, beta = coeffs = metric.coefficients(C, Task("multiclass", m))
    got = policy.decide_coefficients(coeffs, eta, budget, multiclass=True)
    assert got.sum() == (budget or 1)
    scores = exact_column_scores(G, eta)
    kth = sorted(scores, reverse=True)[(budget or 1) - 1]
    size = max(np.abs(G).max(), np.abs(alpha).max(), np.abs(beta).max())
    tol = Fraction(2.0**-45) * Fraction(float(eta.sum())) * Fraction(float(size))
    assert all(scores[c] >= kth - tol for c in np.flatnonzero(got))
    assert all(scores[c] <= kth + tol for c in np.flatnonzero(~got))


@settings(max_examples=100, deadline=None)
@given(streams())
def test_update_semi_with_one_hot_estimates_equals_update(stream):
    task, seq, lam = stream
    by_label, by_estimate = init_state(task, lam), init_state(task, lam)
    for y, yhat, _ in seq:
        by_label.update(y, yhat)
        one_hot = np.zeros(task.m)
        one_hot[list(y)] = 1.0
        by_estimate.update_semi(ProbEstimate.from_dense(one_hot), yhat)
    assert np.array_equal(by_label.counts, by_estimate.counts)
    assert by_label.t == by_estimate.t == len(seq)


@settings(max_examples=100, deadline=None)
@given(streams(), st.booleans())
def test_accumulator_mass_is_t_plus_regularizer(stream, semi):
    task, seq, lam = stream
    state = init_state(task, lam)
    for y, yhat, eta in seq:
        if semi:
            state.update_semi(ProbEstimate.from_dense(eta), yhat)
        else:
            state.update(y, yhat)
    t = len(seq)
    if task.is_multiclass:
        assert np.isclose(state.counts.sum(), t + task.m ** 2 * lam)
    else:
        assert np.allclose(state.counts.sum(axis=(1, 2)), t + 4 * lam)


# --- the accumulation rule against the per-cell formulas it replaced


def ref_instance_confusion(task, y, yhat):
    """Confusion contribution of a single (label, prediction) pair."""
    out = np.zeros(task.shape)
    if task.is_multiclass:
        out[y[0], list(yhat)] = 1.0
        return out
    pos = np.zeros(task.m, dtype=bool)
    pos[list(y)] = True
    pred = np.zeros(task.m, dtype=bool)
    pred[list(yhat)] = True
    out[np.arange(task.m), pos.astype(int), pred.astype(int)] = 1.0
    return out


def ref_expected_confusion(task, p, yhat):
    """Expected single-instance confusion under the dense label marginals p."""
    out = np.zeros(task.shape)
    if task.is_multiclass:
        for col in yhat:
            out[:, col] = p
        return out
    pred = np.zeros(task.m, dtype=bool)
    pred[list(yhat)] = True
    out[:, 1, 1] = p * pred
    out[:, 1, 0] = p * ~pred
    out[:, 0, 1] = (1.0 - p) * pred
    out[:, 0, 0] = (1.0 - p) * ~pred
    return out


@st.composite
def accumulation_streams(draw):
    """A task, up to 8 instances and a regularizer.  Any set of labels may be
    predicted, so a multiclass prediction may name several classes or none,
    and estimates hold exact zeros and ones among arbitrary probabilities."""
    kind = draw(KINDS)
    m = draw(st.integers(2 if kind == "multiclass" else 1, 6))
    seq = []
    for _ in range(draw(st.integers(1, 8))):
        if kind == "multiclass":
            y = (draw(st.integers(0, m - 1)),)
        else:
            y = tuple(j for j in range(m) if draw(st.booleans()))
        yhat = tuple(j for j in range(m) if draw(st.booleans()))
        eta = np.array(draw(st.lists(PROBS | st.floats(0.0, 1.0), min_size=m, max_size=m)))
        seq.append((y, yhat, eta))
    return Task(kind, m), seq, draw(st.sampled_from([0.0, 1e-3, 0.5]))


@settings(max_examples=200, deadline=None)
@given(accumulation_streams())
def test_accumulation_rule_equals_the_cell_formulas(stream):
    """``batch_counts`` at n = 1, ``expected_instance_confusion`` and
    ``ConfusionState.add`` give the reference cells bit for bit."""
    task, seq, lam = stream
    by_label, by_estimate = init_state(task, lam), init_state(task, lam)
    want_label = want_estimate = np.full(task.shape, lam)
    for y, yhat, eta in seq:
        y_row = indicator_row(task.m, y, np.float64)
        dec = indicator_row(task.m, yhat, bool)
        cells = ref_instance_confusion(task, y, yhat)
        expected = ref_expected_confusion(task, eta, yhat)
        assert same_bits(batch_counts(task, y_row[None], dec[None]), cells)
        assert same_bits(batch_counts(task, eta[None], dec[None]), expected)
        assert same_bits(expected_instance_confusion(task, ProbEstimate.from_dense(eta), yhat),
                         expected)
        by_label.add(y_row, dec)
        by_estimate.add(eta, dec)
        want_label = want_label + cells
        want_estimate = want_estimate + expected
    assert same_bits(by_label.counts, want_label)
    assert same_bits(by_estimate.counts, want_estimate)
    assert by_label.t == by_estimate.t == len(seq)


@settings(max_examples=100, deadline=None)
@given(streams())
def test_batch_sum_matches_instance_references(stream):
    task, seq, _ = stream
    dec = np.array([[j in yhat for j in range(task.m)] for _, yhat, _ in seq])
    labels = np.array([[float(j in y) for j in range(task.m)] for y, _, _ in seq])
    estimates = np.array([eta for _, _, eta in seq])
    by_label = sum(ref_instance_confusion(task, y, yhat) for y, yhat, _ in seq)
    by_estimate = sum(ref_expected_confusion(task, eta, yhat) for _, yhat, eta in seq)
    assert np.allclose(batch_counts(task, labels, dec), by_label)
    assert np.allclose(batch_counts(task, estimates, dec), by_estimate)


def four_cell_counts(task, ref, dec):
    """The batch count as one product matrix per cell, each summed by numpy's
    axis-0 sum on row-major arrays."""
    ref = np.ascontiguousarray(ref)
    d = np.ascontiguousarray(dec, dtype=np.float64)
    if task.is_multiclass:
        return ref.T @ d
    cells = [((1.0 - ref) * (1.0 - d)).sum(axis=0), ((1.0 - ref) * d).sum(axis=0),
             (ref * (1.0 - d)).sum(axis=0), (ref * d).sum(axis=0)]
    return np.stack(cells, axis=-1).reshape(task.shape)


def in_layout(a, layout):
    """The values of ``a`` in a row-major, column-major or strided array."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":
        return np.repeat(a, 2, axis=0)[::2]
    return a


@st.composite
def count_batches(draw):
    """A task with m = 1..6 (2..6 classes), n = 1..300 probability or 0/1
    reference rows and 0/1 decision rows, both in some memory layout; a single
    row may also hold fractional decisions."""
    kind = draw(KINDS)
    m = draw(st.integers(2 if kind == "multiclass" else 1, 6))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ref = rng.random((n, m))
    if draw(st.booleans()):
        ref = (ref < rng.random()).astype(np.float64)
    if n == 1 and draw(st.booleans()):
        dec = rng.random((n, m))
    else:
        dec = rng.random((n, m)) < rng.random()
        if draw(st.booleans()):
            dec = dec.astype(np.float64)
    layouts = st.sampled_from(["C", "F", "strided"])
    return Task(kind, m), in_layout(ref, draw(layouts)), in_layout(dec, draw(layouts))


@settings(max_examples=150, deadline=None)
@given(count_batches())
def test_batch_counts_equal_the_four_cell_sums_bit_for_bit(batch):
    task, ref, dec = batch
    assert same_bits(batch_counts(task, ref, dec), four_cell_counts(task, ref, dec))


# --- batch-built estimates against the per-row constructors


@st.composite
def prob_matrices(draw, min_n=0):
    n = draw(st.integers(min_n, 6))
    m = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(PROBS | st.floats(0.0, 1.0), min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return np.array(rows, dtype=np.float64).reshape(n, m)


@st.composite
def synth_models(draw):
    kind = draw(KINDS)
    m = draw(st.integers(2 if kind == "multiclass" else 1, 6))
    return SynthModel(task=Task(kind, m), d=draw(st.integers(0, 3)),
                      seed=draw(st.integers(0, 2**32 - 1)))


def assert_same_estimate(got, want):
    assert got.m == want.m
    for name in ("indices", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(prob_matrices())
def test_batch_estimates_equal_row_estimates(M):
    n, m = M.shape
    batch = InstanceStream(Task("multilabel", m), np.zeros((n, m)), M).estimates
    reference = [ProbEstimate.from_dense(row) for row in M]
    M[...] = 0.5  # the batch holds its own copy
    assert len(batch) == len(reference)
    for got, want in zip(batch, reference):
        assert_same_estimate(got, want)
        assert not got.values.flags.writeable and not got.indices.flags.writeable
        with pytest.raises(ValueError):
            got.values[...] = 0.0


@settings(max_examples=100, deadline=None)
@given(prob_matrices(min_n=1), st.sampled_from([-1e-12, -1.0, 1.0 + 1e-12, 2.0, np.nan,
                                                np.inf, -np.inf]), st.data())
def test_batch_and_row_estimates_reject_the_same_values(M, bad, data):
    n, m = M.shape
    task = Task("multilabel", m)
    with pytest.raises(ValueError):
        InstanceStream(task, np.zeros((1, m)), M[0])  # a 1-d row is not a matrix
    i = data.draw(st.integers(0, M.shape[0] - 1))
    j = data.draw(st.integers(0, M.shape[1] - 1))
    M[i, j] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        InstanceStream(task, np.zeros((n, m)), M)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ProbEstimate.from_dense(M[i])


@settings(max_examples=50, deadline=None)
@given(synth_models(), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_synth_labels_equal_row_by_row_draws(model, n, seed):
    stream = synth_generate(model, n, seed=seed)
    eta, rng_y = _latent_draw(model, n, seed)
    if model.task.is_multiclass:
        u = rng_y.random(n)
        cls = np.minimum((u[:, None] > np.cumsum(eta, axis=1)).sum(axis=1), model.task.m - 1)
        reference = [(int(c),) for c in cls]
    else:
        draws = rng_y.random((n, model.task.m)) < eta
        reference = [tuple(np.nonzero(row)[0].tolist()) for row in draws]
    assert stream.labels == reference
    assert all(type(j) is int for y in stream.labels for j in y)
    assert stream.truth_rows is stream.estimate_rows
    for got, row in zip(stream.estimates, eta):
        assert_same_estimate(got, ProbEstimate.from_dense(row))


@settings(max_examples=50, deadline=None)
@given(synth_models(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_optimum_conditionals_equal_the_stream_truth(model, n, seed):
    eta, _ = _latent_draw(model, n, seed)
    truth = synth_generate(model, n, seed=seed).truth_rows
    assert eta.tobytes() == truth.tobytes()


@settings(max_examples=50, deadline=None)
@given(synth_models(), st.integers(0, 30), st.sampled_from([0.0, 0.05, 0.3, 2.0]),
       st.integers(0, 2**32 - 1))
def test_perturbation_equals_row_by_row_noise(model, n, sigma, seed):
    stream = synth_generate(model, n, seed=seed)
    noisy, err = perturb_estimates(stream, sigma, seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x5E11])))
    total_err = 0.0
    for got, dense in zip(noisy.estimates, stream.truth_rows):
        row = np.clip(dense + rng.normal(0.0, sigma, size=model.task.m), 0.0, 1.0)
        if model.task.is_multiclass and row.sum() > 0:
            row = row / row.sum()
        elif model.task.is_multiclass:  # a row clipped to all zeros becomes uniform
            row = np.full(model.task.m, 1.0 / model.task.m)
        assert_same_estimate(got, ProbEstimate.from_dense(row))
        total_err += float(np.linalg.norm(row - dense))
    assert err == total_err / max(n, 1)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.lists(
    st.dictionaries(st.integers(0, m - 1), PROBS | st.floats(0.0, 1.0)), max_size=5))))
def test_read_estimates_equal_pair_estimates(case):
    m, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e.probs")
        with open(path, "w", encoding="utf-8") as fh:
            for pairs in lines:  # unsorted, written with repr so they read back exactly
                fh.write(" ".join(f"{j}:{p!r}" for j, p in pairs.items()) + "\n")
        got = read_estimates(path, m)
    assert len(got) == len(lines)
    for est, pairs in zip(got, lines):
        listed = sorted(pairs)
        assert_same_estimate(est, ProbEstimate(m, np.array(listed, dtype=np.int64),
                                               np.array([pairs[j] for j in listed])))


@st.composite
def label_files(draw):
    """(task, lines) of a label file: each line its label indices in any order,
    none on an empty line (multilabel only), one class for multiclass."""
    kind = draw(KINDS)
    m = draw(st.integers(2 if kind == "multiclass" else 1, 8))
    if kind == "multiclass":
        line = st.lists(st.integers(0, m - 1), min_size=1, max_size=1)
    else:
        line = st.lists(st.integers(0, m - 1), max_size=m, unique=True)
    return Task(kind, m), draw(st.lists(line, max_size=12))


def load_label_file(tmp, task, lines):
    """``load_stream`` of the label lines given, with estimates that parse."""
    labels, probs = os.path.join(tmp, "s.labels"), os.path.join(tmp, "s.probs")
    with open(labels, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
    with open(probs, "w", encoding="utf-8") as fh:
        fh.writelines(("0:1" if task.is_multiclass else "") + "\n" for _ in lines)
    return load_stream(labels, probs, task)


@settings(max_examples=150, deadline=None)
@given(label_files())
def test_label_files_load_as_the_rows_of_their_checked_lines(case):
    task, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        stream = load_label_file(tmp, task, [",".join(map(str, idx)) for idx in lines])
    want = np.zeros((len(lines), task.m))
    for i, idx in enumerate(lines):
        want[i] = indicator_row(task.m, check_labels(task, tuple(sorted(idx))), np.float64)
    assert same_bits(stream.label_rows, want)
    assert stream.labels == [tuple(sorted(idx)) for idx in lines]


@settings(max_examples=100, deadline=None)
@given(label_files(), st.data())
def test_a_bad_label_line_is_named_by_its_line_number(case, data):
    task, lines = case
    good = [",".join(map(str, idx)) for idx in lines]
    bad = data.draw(st.sampled_from(
        [str(task.m), "-1", "x", "0,0", "1.5", "0,,1"]
        + ["", "0,1"] * task.is_multiclass))
    k = data.draw(st.integers(0, len(good)))
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(DataFormatError) as info:
            load_label_file(tmp, task, good[:k] + [bad] + good[k:])
        assert str(info.value).startswith(f"{os.path.join(tmp, 's.labels')}:{k + 1}: ")


# --- the run loop's checkpoints against a per-step evaluation accumulator


def reference_checkpoints(stream, cfg, stride):
    """The online protocol with its own ``ConfusionState`` updated at every step."""
    learner = make_learner(cfg)
    if isinstance(learner, OfflineFWLearner):
        learner.use_columns(stream.estimate_rows, stream.label_rows)
    state = init_state(stream.task, 0.0)
    n = len(stream)
    checkpoints = []
    for t, (y, eta) in enumerate(stream, start=1):
        pred = learner.step(eta)
        learner.observe(y)
        state.update(y, pred)
        if t % (stride or n) == 0 or t == n:
            checkpoints.append((t, cfg.metric.value(state.normalized())))
    return checkpoints


def exact(checkpoints):
    return [(t, float(psi).hex()) for t, psi in checkpoints]


# metric bases that each task supports; the budget is drawn separately
BASES = {"multilabel": ["macro-f1", "micro-gmean"], "multiclass": ["macro-f1", "mc-qmean"]}


@st.composite
def runs(draw, algorithms=ALGORITHMS, max_n=40):
    """A synthetic stream and a learner configuration for it (n up to 40 covers
    the first three Frank-Wolfe refits, at 10, 21 and 33 instances)."""
    kind = draw(KINDS)
    m = draw(st.integers(2, 5))
    task = Task(kind, m)
    n = draw(st.integers(1, max_n))
    stream = synth_generate(SynthModel(task=task, seed=draw(st.integers(0, 99))), n,
                            seed=draw(st.integers(0, 2**32 - 1)))
    budget = draw(st.none() | st.integers(1, m))
    name = draw(st.sampled_from(BASES[kind])) + (f"@{budget}" if budget else "")
    try:
        cfg = LearnerConfig(algorithm=draw(st.sampled_from(algorithms)), task=task,
                            metric=parse_metric(name),
                            lam=draw(st.sampled_from([0.0, 1e-3])),
                            seed=draw(st.integers(0, 99)), fw_iterations=3)
    except UnsupportedMetricError:
        assume(False)
    return stream, cfg


@settings(max_examples=200, deadline=None)
@given(runs(), st.data())
def test_checkpoints_equal_a_per_step_accumulator(run, data):
    stream, cfg = run
    stride = data.draw(st.none() | st.integers(1, len(stream) + 1))
    got = evaluation.run_online(stream, cfg, stride)
    want = reference_checkpoints(stream, cfg, stride)
    assert exact(got.checkpoints) == exact(want)
    assert float(got.final_psi).hex() == float(want[-1][1]).hex()
    assert got.n == len(stream)


@settings(max_examples=150, deadline=None)
@given(runs(algorithms=[a for a in ALGORITHMS if a != "offline-fw"]), st.data())
def test_stream_prefix_gives_trace_prefix(run, data):
    # offline-fw is fitted on the whole estimate sequence, so it is not causal
    stream, cfg = run
    k = data.draw(st.integers(1, len(stream)))
    stride = data.draw(st.none() | st.integers(1, k + 1))
    full = evaluation.run_online(stream, cfg, 1).checkpoints
    prefix = InstanceStream(stream.task, stream.label_rows[:k], stream.estimate_rows[:k])
    got = evaluation.run_online(prefix, cfg, stride).checkpoints
    assert exact(got) == exact([(t, psi) for t, psi in full[:k]
                                if t % (stride or k) == 0 or t == k])


# binary, macro, micro and native forms, each with some base
SETTING_METRICS = ["f1", "gmean", "macro-f1", "macro-recall", "micro-f1", "micro-gmean",
                   "mc-qmean", "mc-balanced-acc"]


@settings(max_examples=300, deadline=None)
@given(KINDS, st.integers(1, 4), st.data())
def test_a_config_that_is_accepted_runs(kind, m, data):
    """LearnerConfig checks every setting: whatever it accepts, make_learner
    builds a learner that steps and observes without a settings error."""
    assume(kind == "multilabel" or m >= 2)
    task = Task(kind, m)
    budget = data.draw(st.none() | st.integers(1, m + 1))
    name = data.draw(st.sampled_from(SETTING_METRICS)) + (f"@{budget}" if budget else "")
    try:
        cfg = LearnerConfig(
            algorithm=data.draw(st.sampled_from(ALGORITHMS)), task=task,
            metric=parse_metric(name), lam=data.draw(st.sampled_from([0.0, 1e-3])),
            sparse_k=data.draw(st.none() | st.integers(1, m + 1)),
            fw_iterations=data.draw(st.integers(1, 3)),
            refit_mode=data.draw(st.sampled_from(["interval", "cumulative"])),
            deterministic_mixture=data.draw(st.booleans()))
    except ValueError:
        return
    # 12 instances reach the first Frank-Wolfe refit, at 10
    stream = synth_generate(SynthModel(task=task, seed=data.draw(st.integers(0, 99))),
                            data.draw(st.integers(1, 12)), seed=data.draw(st.integers(0, 99)))
    assert np.isfinite(evaluation.run_online(stream, cfg).final_psi)


@pytest.mark.parametrize("kind, alg, name, stride", [
    ("multilabel", "omma", "macro-f1", None),
    ("multiclass", "omma", "mc-qmean", None),
    ("multilabel", "thresh05", "macro-f1", 1500),
])
def test_long_run_counts_in_bounded_batches(monkeypatch, kind, alg, name, stride):
    n, flush = 2500, evaluation._FLUSH
    task = Task(kind, 5)
    stream = synth_generate(SynthModel(task=task, seed=7), n, seed=11)
    cfg = LearnerConfig(algorithm=alg, task=task, metric=parse_metric(name), seed=3)
    sizes = []

    def counted(task, ref, dec):
        sizes.append(len(ref))
        return batch_counts(task, ref, dec)

    monkeypatch.setattr(evaluation, "batch_counts", counted)
    got = evaluation.run_online(stream, cfg, stride)
    # the pending predictions are counted at every 1024th one and at checkpoints
    if stride is None:
        assert sizes == [flush, flush, n - 2 * flush]
    else:
        assert sizes == [flush, stride - flush, n - stride]
    assert exact(got.checkpoints) == exact(reference_checkpoints(stream, cfg, stride))



# --- columnar streams against their per-instance forms


def listed_columns(draw, stream):
    """The stream's estimate matrix masked to a random support, and that
    support; about a third of the listed labels have probability exactly 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = stream.estimate_rows.shape
    listed = rng.random((n, m)) < 0.6
    rows = np.where(rng.random((n, m)) < 0.3, 0.0, stream.estimate_rows)
    return np.where(listed, rows, 0.0), listed


def listed_estimates(rows, listed):
    """The ProbEstimate of every row of a masked estimate matrix: row i lists
    the labels of ``listed[i]``."""
    m = rows.shape[1]
    return [ProbEstimate(m, np.flatnonzero(mask), row[mask]) for mask, row in zip(listed, rows)]


@st.composite
def column_streams(draw, max_n=30):
    """A synthetic stream, or the same instances rebuilt from its label rows,
    a masked estimate matrix with a support that lists zero-probability
    labels, and its truth."""
    kind = draw(KINDS)
    m = draw(st.integers(2 if kind == "multiclass" else 1, 6))
    task = Task(kind, m)
    stream = synth_generate(SynthModel(task=task, seed=draw(st.integers(0, 99))),
                            draw(st.integers(0, max_n)), seed=draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        stream = InstanceStream(task, stream.label_rows, *listed_columns(draw, stream),
                                stream.truth_rows)
    return stream


def assert_same_stream(got, labels, estimates, truth):
    assert got.labels == labels
    assert len(got.estimates) == len(estimates)
    for a, b in zip(got.estimates, estimates):
        assert_same_estimate(a, b)
    assert (got.truth_rows is None) == (truth is None)
    if truth is not None:
        assert np.array_equal(got.truth_rows, truth)


@settings(max_examples=100, deadline=None)
@given(column_streams(), st.integers(0, 2**32 - 1))
def test_shuffle_equals_a_row_permutation(stream, seed):
    perm = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, 0x5F1E]))).permutation(len(stream))
    truth = stream.truth_rows
    assert_same_stream(shuffle(stream, seed), [stream.labels[i] for i in perm],
                       [stream.estimates[i] for i in perm],
                       None if truth is None else truth[perm])


@settings(max_examples=100, deadline=None)
@given(column_streams(), st.integers(0, 7))
def test_sparsify_equals_row_top_k(stream, k):
    got = sparsify_estimates(stream, k)
    top = [ProbEstimate(est.m, *top_entries(est.indices, est.values, k))
           for est in stream.estimates]
    assert_same_stream(got, stream.labels, top, stream.truth_rows)
    assert got.label_rows is stream.label_rows


def per_instance_reference(labels, estimates, cfg, marks):
    """The online protocol through the public step/observe on label tuples and
    ProbEstimates, scored by its own ConfusionState at every mark."""
    learner = make_learner(cfg)
    if isinstance(learner, OfflineFWLearner):
        learner.use_columns(np.array([est.dense() for est in estimates]), None)
    state = init_state(cfg.task, 0.0)
    checkpoints = []
    for t, (y, eta) in enumerate(zip(labels, estimates), start=1):
        pred = learner.step(eta)
        learner.observe(y)
        state.update(y, pred)
        if t in marks:
            checkpoints.append((t, cfg.metric.value(state.normalized())))
    return checkpoints


@st.composite
def column_runs(draw):
    """A stream, its label tuples and estimates, a learner configuration and a
    checkpoint set.  The stream is a synthetic one, or the same instances
    rebuilt from its columns, dense or masked to a sparse support; a third
    of the streams are longer than the run loop's decision buffer."""
    kind = draw(KINDS)
    m = draw(st.integers(2, 5))
    task = Task(kind, m)
    n = draw(st.integers(1, 40) | st.integers(1, 40) |
             st.integers(evaluation._FLUSH + 1, evaluation._FLUSH + 150))
    base = synth_generate(SynthModel(task=task, seed=draw(st.integers(0, 99))), n,
                          seed=draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # sparse
        rows, listed = listed_columns(draw, base)
        estimates = listed_estimates(rows, listed)
        stream = InstanceStream(task, base.label_rows, rows, listed)
    else:
        estimates = base.estimates
        stream = (InstanceStream(task, base.label_rows, base.estimate_rows)
                  if draw(st.booleans()) else base)
    budget = draw(st.none() | st.integers(1, m))
    # the top-k' path is drawn more often; under macro-recall an unlisted label
    # has gain exactly 0, which the dense rule would predict
    algorithm = draw(st.sampled_from(ALGORITHMS) | st.sampled_from(["omma", "omma-eta"]))
    sparse_k = None
    if algorithm in ("omma", "omma-eta") and kind == "multilabel":
        sparse_k = draw(st.none() | st.integers(budget or 1, m))
    bases = BASES[kind] + (["macro-recall"] if kind == "multilabel" else [])
    name = draw(st.sampled_from(bases)) + (f"@{budget}" if budget else "")
    try:
        cfg = LearnerConfig(algorithm=algorithm, task=task, metric=parse_metric(name),
                            lam=draw(st.sampled_from([0.0, 1e-3])),
                            seed=draw(st.integers(0, 99)), sparse_k=sparse_k,
                            fw_iterations=3)
    except UnsupportedMetricError:
        assume(False)
    marks = draw(st.sets(st.integers(1, n), max_size=6))
    return stream, base.labels, estimates, cfg, marks


@settings(max_examples=200, deadline=None)
@given(column_runs())
def test_columnar_run_equals_a_per_instance_reference(run):
    stream, labels, estimates, cfg, marks = run
    try:
        want = per_instance_reference(labels, estimates, cfg, {*marks, len(labels)})
    except ValueError as exc:
        # a budget above a sparse estimate's top-k' support fails both ways alike
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            evaluation.run_online(stream, cfg, marks)
        return
    got = evaluation.run_online(stream, cfg, marks)
    assert exact(got.checkpoints) == exact(want)


def blocks_watched(state, seen):
    """Make ``state.add_pair`` check, before each add, that the pair it is
    given is a row of a block of at most ``_FLUSH`` pairs and that no earlier
    block is alive; each block's root array is appended to ``seen`` as a
    weak reference with its length."""
    add_pair = state.add_pair

    def watched(pair, dec):
        block = pair
        while block.base is not None:
            block = block.base
        assert block.ndim == 3 and block.shape[1:] == (2, state.task.m)
        assert len(block) <= evaluation._FLUSH
        if not seen or seen[-1][0]() is not block:
            seen.append((weakref.ref(block), len(block)))
        assert [ref() is not None for ref, _ in seen].count(True) == 1
        add_pair(pair, dec)

    state.add_pair = watched


@pytest.mark.parametrize("lam", [0.0, 1e-3])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("m, name", [(1, "min-tn-tp"), (5, "macro-f1")])
@pytest.mark.parametrize("algorithm", ["omma", "omma-eta", "greedy"])
def test_prebuilt_pairs_equal_the_public_path_past_one_block(algorithm, m, name, sparse, lam):
    """A run adds each multilabel instance as its prebuilt [1 - ref, ref]
    pair, built one block of ``_FLUSH`` rows at a time; over three blocks
    its checkpoints and counts equal the public step/observe path's, which
    adds rows, and the learner holds one block at a time."""
    task = Task("multilabel", m)
    n = 2 * evaluation._FLUSH + 3
    stream = synth_generate(SynthModel(task=task, seed=5), n, seed=6)
    sparse_k = None
    if sparse:
        stream = sparsify_estimates(stream, 2)
        sparse_k = None if algorithm == "greedy" else min(2, m)
    metric = min_tn_tp() if name == "min-tn-tp" else parse_metric(name)
    cfg = LearnerConfig(algorithm=algorithm, task=task, metric=metric, lam=lam,
                        sparse_k=sparse_k)
    marks = {1, evaluation._FLUSH, evaluation._FLUSH + 1, 2 * evaluation._FLUSH + 1, n}
    got = evaluation.run_online(stream, cfg, marks)
    assert exact(got.checkpoints) == exact(
        per_instance_reference(stream.labels, stream.estimates, cfg, marks))
    # the same rows through a learner given the columns and one that is not
    given, public = make_learner(cfg), make_learner(cfg)
    seen = []
    blocks_watched(given.state, seen)
    given.use_columns(stream.estimate_rows, stream.label_rows)
    support = stream.support
    for t, (y, eta) in enumerate(zip(stream.label_rows, stream.estimate_rows)):
        listed = None if support is None else support[t]
        assert given.step_row(eta, listed).tobytes() == public.step_row(eta, listed).tobytes()
        given.observe_row(y)
        public.observe_row(y)
    assert given.state.t == public.state.t == n
    assert given.state.counts.tobytes() == public.state.counts.tobytes()
    # one pair per row, over at least three blocks
    assert sum(size for _, size in seen) == n and len(seen) >= 3


@st.composite
def refit_runs(draw):
    """An ofw or ofw-eta configuration and a stream of up to 150 instances: in
    cumulative mode the refit points up to 150 (10, 11, 12, 13, 14, 16, ...)
    make several lockstep groups."""
    kind = draw(KINDS)
    m = draw(st.integers(2, 5))
    task = Task(kind, m)
    n = draw(st.integers(1, 150))
    stream = synth_generate(SynthModel(task=task, seed=draw(st.integers(0, 99))), n,
                            seed=draw(st.integers(0, 2**32 - 1)))
    budget = draw(st.none() | st.integers(1, m))
    name = draw(st.sampled_from(BASES[kind])) + (f"@{budget}" if budget else "")
    cfg = LearnerConfig(algorithm=draw(st.sampled_from(["ofw", "ofw-eta"])), task=task,
                        metric=parse_metric(name), seed=draw(st.integers(0, 99)),
                        fw_iterations=draw(st.integers(1, 4)),
                        refit_mode=draw(st.sampled_from(["interval", "cumulative"])),
                        deterministic_mixture=draw(st.booleans()))
    return stream, cfg, draw(st.sets(st.integers(1, n), max_size=6))


@settings(max_examples=100, deadline=None)
@given(refit_runs())
def test_lockstep_refits_equal_a_stepped_learner(run):
    stream, cfg, marks = run
    # the stepped learner is never handed the stream's columns
    want = per_instance_reference(stream.labels, stream.estimates, cfg,
                                  {*marks, len(stream)})
    assert exact(evaluation.run_online(stream, cfg, marks).checkpoints) == exact(want)


def test_a_run_fits_its_refit_points_in_groups(monkeypatch):
    task = Task("multiclass", 3)
    stream = synth_generate(SynthModel(task=task, seed=1), 150, seed=2)
    calls = []

    def counted(estimates, labels, task, metric, iterations, prefixes=None):
        calls.append((len(estimates), prefixes))
        return fw_fit(estimates, labels, task, metric, iterations, prefixes)

    monkeypatch.setattr(algorithms, "fw_fit", counted)
    cfg = LearnerConfig(algorithm="ofw", task=task, metric=parse_metric("mc-qmean"),
                        fw_iterations=2, refit_mode="cumulative")
    evaluation.run_online(stream, cfg)
    points = list(itertools.takewhile(lambda p: p <= 150,
                                      algorithms.refit_thresholds("cumulative")))
    groups = [points[i:i + algorithms._REFIT_GROUP]
              for i in range(0, len(points), algorithms._REFIT_GROUP)]
    assert calls == [(group[-1], group) for group in groups]
    # stepped without the columns, it fits its own buffer once per point
    calls.clear()
    learner = make_learner(cfg)
    for y, eta in stream:
        learner.step(eta)
        learner.observe(y)
    assert calls == [(p, [p]) for p in points]


@settings(max_examples=300, deadline=None)
@given(KINDS, st.integers(0, 16), st.integers(1, 40), st.data())
def test_shorter_stream_is_a_prefix(kind, d, n, data):
    # a one-row or one-column latent product once took numpy's matrix-vector
    # path and rounded differently from the same rows of a longer stream
    m = data.draw(st.integers(2 if kind == "multiclass" else 1, 6))
    k = data.draw(st.integers(1, n))
    model = SynthModel(task=Task(kind, m), d=d, seed=data.draw(st.integers(0, 2**32 - 1)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    short, full = synth_generate(model, k, seed=seed), synth_generate(model, n, seed=seed)
    assert short.label_rows.tobytes() == full.label_rows[:k].tobytes()
    assert short.estimate_rows.tobytes() == full.estimate_rows[:k].tobytes()
    assert short.labels == full.labels[:k]
    assert short.truth_rows.tobytes() == full.truth_rows[:k].tobytes()


def reference_regret(metric, model, algorithm, n_grid, runs, lam, base_seed, psi_star):
    """(n, mean, std, regret) from one fresh run per grid length and run index."""
    rows = []
    for n in n_grid:
        finals = []
        for r in range(runs):
            seed = int(np.random.SeedSequence([base_seed, r]).generate_state(1)[0])
            cfg = LearnerConfig(algorithm=algorithm, task=model.task, metric=metric,
                                lam=lam, seed=seed)
            stream = synth_generate(model, n, seed=seed)
            finals.append(evaluation.run_online(stream, cfg).final_psi)
        finals = np.asarray(finals)
        mean = float(finals.mean())
        std = float(finals.std(ddof=1)) if runs > 1 else 0.0
        rows.append((n, mean.hex(), std.hex(), (psi_star - mean).hex()))
    return rows


@st.composite
def regret_cases(draw):
    """measure_regret's arguments; grids are unsorted and may repeat a length."""
    kind = draw(KINDS)
    m = draw(st.integers(2 if kind == "multiclass" else 1, 4))
    task = Task(kind, m)
    budget = draw(st.none() | st.integers(1, m))
    metric = parse_metric(draw(st.sampled_from(BASES[kind])) + (f"@{budget}" if budget else ""))
    algorithm = draw(st.sampled_from(ALGORITHMS))
    try:
        make_learner(LearnerConfig(algorithm=algorithm, task=task, metric=metric))
    except UnsupportedMetricError:
        assume(False)
    model = SynthModel(task=task, seed=draw(st.integers(0, 99)))
    return (metric, model, algorithm, draw(st.lists(st.integers(1, 30), min_size=1, max_size=4)),
            draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 1e-3])), draw(st.integers(0, 99)))


@settings(max_examples=100, deadline=None)
@given(regret_cases())
def test_regret_equals_one_run_per_length(case):
    metric, model, algorithm, n_grid, runs, lam, base_seed = case
    reports = evaluation.measure_regret(metric, model, algorithm, n_grid, runs, lam=lam,
                                        base_seed=base_seed, psi_star=0.5)
    assert [(r.n, r.psi_final_mean.hex(), r.psi_final_std.hex(), r.regret_hat.hex())
            for r in reports] == reference_regret(metric, model, algorithm, n_grid, runs,
                                                  lam, base_seed, 0.5)
    for r in reports:
        assert (r.metric, r.algorithm, r.averaging, r.budget_k, r.epsilon) == (
            metric.name, algorithm, metric.averaging, metric.budget_k, metric.epsilon)
        assert (r.lam, r.seed, r.runs, r.psi_star) == (lam, base_seed, runs, 0.5)


# --- per-label coefficients: fused, tensor and sparse forms, and finiteness

NON_NATIVE = [i.name for i in list_metrics() if i.averaging != MULTICLASS_NATIVE]
PER_LABEL = [i.name for i in list_metrics() if i.averaging in (BINARY, MACRO)]
# entry magnitudes: zero, tiny, ordinary and large counts side by side
MAGNITUDES = np.array([0.0, 1e-300, 1e-12, 1.0, 1e6])


@st.composite
def metric_blocks(draw, name):
    """The named metric and an (m, 2, 2) nonnegative matrix mixing entry magnitudes."""
    metric = parse_metric(name, epsilon=draw(st.sampled_from([1e-9, 1e-3, 0.5])))
    m = 1 if metric.averaging == BINARY else draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    C = rng.random((m, 2, 2)) * rng.choice(MAGNITUDES, size=(m, 2, 2))
    return metric, C


def tensor_coefficients(G):
    """(alpha, beta) of a gradient tensor, written out as the reference."""
    return G[:, 1, 1] + G[:, 0, 0] - G[:, 0, 1] - G[:, 1, 0], G[:, 0, 0] - G[:, 0, 1]


@pytest.mark.parametrize("name", NON_NATIVE)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fused_coefficients_equal_the_gradient_tensor_form(name, data):
    metric, C = data.draw(metric_blocks(name))
    G = metric.gradient(C)
    alpha, beta = tensor_coefficients(G)
    for coeffs in (metric.coefficients(C, Task("multilabel", C.shape[0])),
                   policy.cost_coefficients(G)):
        assert same_bits(coeffs.alpha, alpha)
        assert same_bits(coeffs.beta, beta)


@pytest.mark.parametrize("name", PER_LABEL)
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_block_gradient_and_coefficients_on_a_support(name, data):
    metric, C = data.draw(metric_blocks(name))
    m = C.shape[0]
    support = np.array(sorted(data.draw(st.sets(st.integers(0, m - 1)))), dtype=np.int64)
    G = metric.gradient(C)
    assert same_bits(metric.block_gradient(C[support], m), G[support])
    dense = metric.coefficients(C, Task("multilabel", m))
    sparse = metric.coefficients(C[support], Task("multilabel", m))
    assert same_bits(sparse.alpha, dense.alpha[support])
    assert same_bits(sparse.beta, dense.beta[support])
@st.composite
def sparse_cases(draw):
    """A macro/binary metric, a multilabel state after a few updates, and an
    estimate on a random support."""
    metric = parse_metric(draw(st.sampled_from(PER_LABEL)))
    m = 1 if metric.averaging == BINARY else draw(st.integers(1, 12))
    state = init_state(Task("multilabel", m), draw(st.sampled_from([0.0, 1e-3, 0.5])))
    labels = st.sets(st.integers(0, m - 1)).map(lambda s: tuple(sorted(s)))
    for y, yhat in draw(st.lists(st.tuples(labels, labels), max_size=8)):
        state.update(y, yhat)
    support = draw(st.sets(st.integers(0, m - 1)))
    values = draw(st.lists(PROBS, min_size=len(support), max_size=len(support)))
    return metric, state, ProbEstimate(m, sorted(support), values)


@settings(max_examples=300, deadline=None)
@given(sparse_cases())
def test_sparse_coefficients_and_decisions_match_the_dense_rule(case):
    metric, state, est = case
    m = state.task.m
    dense = metric.coefficients(state.normalized(), state.task)
    sparse = metric.coefficients(state.normalized_blocks(est.indices), state.task)
    assert same_bits(sparse.alpha, dense.alpha[est.indices])
    assert same_bits(sparse.beta, dense.beta[est.indices])
    off = np.setdiff1d(np.arange(m), est.indices)
    # off-support gains are -beta; below zero, the dense rule never predicts them
    assume(np.all(dense.beta[off] > 0.0))
    assert policy.decide_sparse(sparse, est) == policy.decide_multilabel(
        policy.gains(dense, est))


@pytest.mark.parametrize("info", list_metrics(), ids=lambda i: i.name)
@settings(max_examples=30, deadline=None)
@given(st.sampled_from([EPSILON_FLOOR, 1e-12, 1e-9, 1e-3, 1.0]), st.integers(2, 12),
       st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6]),
       st.integers(0, 2**32 - 1))
def test_values_gradients_and_coefficients_are_finite(info, eps, m, scale, seed):
    metric = parse_metric(info.name, epsilon=eps)
    rng = np.random.default_rng(seed)
    for task in metric_tasks(info, m):
        # some entries exactly zero, the rest uniform at the drawn scale
        C = rng.random(task.shape) * (rng.random(task.shape) < 0.7) * scale
        with np.errstate(**evaluation.FP_ERRORS):
            assert np.isfinite(metric.value(C))
            assert np.all(np.isfinite(metric.gradient(C)))
            alpha, beta = metric.coefficients(C, task)
            assert np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))


def metric_tasks(info, m):
    """The tasks a listed metric takes: a binary metric one label or two
    classes, a native metric m classes, the others m labels or classes."""
    if info.averaging == BINARY:
        return [Task("multilabel", 1), Task("multiclass", 2)]
    if info.averaging == MULTICLASS_NATIVE:
        return [Task("multiclass", m)]
    return [Task("multilabel", m), Task("multiclass", m)]


def confusion_slice(task, kind, rng, scale):
    """One confusion of the task: random with exact zeros, all zero, or at
    the q-mean kink (no error at all: every recall and specificity 1)."""
    C = rng.random(task.shape) * (rng.random(task.shape) < 0.7) * scale
    if kind == "zero":
        C[...] = 0.0
    elif kind == "kink" and task.is_multiclass:
        C = np.diag(np.diagonal(C) + scale)
    elif kind == "kink":
        C[:, 0, 1] = C[:, 1, 0] = 0.0
    return C


def same_coefficients(got, want):
    """Each coefficient of ``got`` equals that of ``want`` bit for bit, a
    structural zero (the scalar 0.0) included."""
    return all(type(g) is type(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()
               and np.shape(g) == np.shape(w) for g, w in zip(got, want))


def stacked(coefficients):
    """The (alpha, beta) of R one-confusion calls as one stacked result."""
    return CostCoefficients(*[np.stack(part) if isinstance(part[0], np.ndarray) else part[0]
                              for part in zip(*coefficients)])


@pytest.mark.parametrize("info", list_metrics(), ids=lambda i: i.name)
@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.integers(1, 5),
       st.sampled_from([EPSILON_FLOOR, 1e-12, 1e-9, 1e-3, 1.0]),
       st.sampled_from([1e-9, 1e-3, 1.0, 1e3, 1e6]), st.integers(0, 2**32 - 1), st.data())
def test_a_stacked_gradient_equals_the_per_slice_calls(info, m, R, eps, scale, seed, data):
    """The gradient's coefficients of an (R, *task.shape) stack are the R
    one-confusion calls, bit for bit."""
    metric = parse_metric(info.name, epsilon=eps)
    rng = np.random.default_rng(seed)
    for task in metric_tasks(info, m):
        kinds = data.draw(st.lists(st.sampled_from(["random", "zero", "kink"]),
                                   min_size=R, max_size=R))
        stack = np.stack([confusion_slice(task, kind, rng, scale) for kind in kinds])
        with np.errstate(**evaluation.FP_ERRORS):
            want = [metric.coefficients(C, task) for C in stack]
            got = metric.coefficients(stack, task)
        assert got.alpha.shape == (R, *want[0].alpha.shape)
        assert same_coefficients(got, stacked(want))


@pytest.mark.parametrize("name", [i.name for i in list_metrics() if i.averaging == MICRO])
def test_micro_one_confusion_calls_equal_a_large_stack(name):
    """A micro one-confusion call reads numpy scalars, a stack reads arrays.
    A scalar's ``x ** 2`` is ``pow(x, 2)``, about one value in a thousand a
    unit apart from ``x * x``, so few random stacks meet one: 4000 slices."""
    metric = parse_metric(name)
    task = Task("multilabel", 3)
    rng = np.random.default_rng(2024)
    stack = rng.random((4000, 3, 2, 2)) * 10.0 ** rng.integers(-3, 4, (4000, 1, 1, 1))
    with np.errstate(**evaluation.FP_ERRORS):
        want = stacked([metric.coefficients(C, task) for C in stack])
        got = metric.coefficients(stack, task)
    assert same_coefficients(got, want)


def call_bits(call):
    """The bytes and shape of each array a call returns, or the error it raises."""
    try:
        with np.errstate(**evaluation.FP_ERRORS):
            got = call()
    except (ValueError, FloatingPointError) as err:
        return type(err), str(err)
    parts = got if isinstance(got, tuple) else (got,)
    return [(type(p), np.shape(p), np.asarray(p, np.float64).tobytes()) for p in parts]


@pytest.mark.parametrize("info", [*list_metrics(), min_tn_tp()], ids=lambda i: i.name)
@settings(max_examples=15, deadline=None)
@given(st.integers(2, 6), st.sampled_from(["float32", "float16", "int64", "int32"]),
       st.sampled_from([0.0, EPSILON_FLOOR, 1e-9]), st.integers(0, 2**32 - 1))
def test_a_confusion_of_another_dtype_reads_as_its_float64_copy(info, m, dtype, eps, seed):
    """The dtype rule: a confusion enters as float64, so the 0-d float64
    constants compute on it as on its float64 copy.  Coefficients (of one
    confusion and of a stack), value and gradient are the copy's, bit for
    bit, or raise as the copy's do."""
    metric = min_tn_tp(eps) if info.name == "min-tn-tp" else parse_metric(info.name, epsilon=eps)
    rng = np.random.default_rng(seed)
    for task in metric_tasks(info, m):
        # fractions whose float32 sums round, zeros, and integer counts
        C = rng.random((3, *task.shape)) * (rng.random((3, *task.shape)) < 0.8)
        C = (C * 50).astype(dtype) if dtype.startswith("int") else C.astype(dtype)
        copy = C.astype(np.float64)
        assert call_bits(lambda: metric.coefficients(C, task)) == \
            call_bits(lambda: metric.coefficients(copy, task))
        for k in range(3):
            assert call_bits(lambda: metric.coefficients(C[k], task)) == \
                call_bits(lambda: metric.coefficients(copy[k], task))
            assert call_bits(lambda: metric.value(C[k])) == \
                call_bits(lambda: metric.value(copy[k]))
            assert call_bits(lambda: metric.gradient(C[k])) == \
                call_bits(lambda: metric.gradient(copy[k]))


def test_a_negative_zero_regularizer_is_stored_as_plus_zero():
    """A run's counts hold no -0.0: lam = -0.0, which the regularizer check
    accepts, is stored as +0.0.  Only a -0.0 tp cell that a caller passes in
    gives a beta of -0.0 (-dfp) where 0.0 - dfp would be +0.0; its decisions
    are those of the +0.0 cell."""
    for task in (Task("multilabel", 3), Task("multiclass", 3)):
        state = init_state(task, -0.0)
        assert not np.signbit(state.lam) and not np.any(np.signbit(state.counts))
        assert not np.any(np.signbit(state.normalized()))
    metric = parse_metric("macro-f1")
    task = Task("multilabel", 2)
    signed = np.array([[[1.0, 0.5], [0.25, -0.0]], [[1.0, 0.5], [0.25, 2.0]]])
    got = metric.coefficients(signed, task)
    want = metric.coefficients(np.abs(signed), task)
    assert np.array_equal(got.alpha, want.alpha) and np.array_equal(got.beta, want.beta)
    assert np.signbit(got.beta).tolist() == [True, False]
    assert np.signbit(want.beta).tolist() == [False, False]
    for eta in ([0.0, 0.0], [0.5, 1.0], [1.0, 0.0]):
        assert np.array_equal(policy.decide_coefficients(got, np.array(eta)),
                              policy.decide_coefficients(want, np.array(eta)))


@pytest.mark.parametrize("name", ["qmean", "macro-qmean", "micro-qmean", "mc-qmean"])
@pytest.mark.parametrize("eps", [0.0, 1e-9])
def test_a_q_mean_kink_slice_beside_ordinary_slices(name, eps):
    metric = parse_metric(name, epsilon=eps)
    rng = np.random.default_rng(7)
    for task in metric_tasks(metric, 4):
        # positive entries, so that even eps = 0 divides by no zero
        ordinary = rng.random((2, *task.shape)) + 0.5
        kink = confusion_slice(task, "kink", rng, 1.0) + (0.5 * np.eye(task.m)
                                                        if task.is_multiclass else 0.0)
        if not task.is_multiclass:
            kink[:, 0, 0] = kink[:, 1, 1] = 0.5
        stack = np.stack([ordinary[0], kink, ordinary[1]])
        with np.errstate(**evaluation.FP_ERRORS):
            got = metric.coefficients(stack, task)
            want = [metric.coefficients(C, task) for C in stack]
        assert same_coefficients(got, stacked(want))
        # the gradient at the kink is taken as 0
        assert not np.any(got.alpha[1])
        assert not np.any(np.broadcast_to(got.beta, got.alpha.shape)[1])


def test_a_stack_is_read_by_its_task():
    # two two-class matrices are not two label blocks
    stack = np.array([[[3.0, 1.0], [2.0, 4.0]], [[1.0, 0.0], [5.0, 2.0]]])
    two_classes = Task("multiclass", 2)
    for name in ("f1", "macro-f1", "micro-gmean"):
        metric = parse_metric(name)
        want = [metric.coefficients(C, two_classes) for C in stack]
        assert same_coefficients(metric.coefficients(stack, two_classes), stacked(want))
    # under a multilabel task the same array is one confusion of two labels
    blocks = parse_metric("macro-f1").coefficients(stack, Task("multilabel", 2))
    assert blocks.alpha.shape == (2,)
    with pytest.raises(ValueError, match="stack"):
        parse_metric("macro-f1").coefficients(np.zeros((2, 3, 3)), two_classes)
    with pytest.raises(ValueError, match="native"):
        parse_metric("mc-qmean").coefficients(np.zeros((2, 3, 2, 2)), Task("multilabel", 3))


# --- native multiclass kernels against the per-entry formulas they replaced


def ref_safe_div(num, den):
    den = np.asarray(den, dtype=np.float64)
    zero = den == 0.0
    if np.any(zero):
        den = np.where(zero, 1.0, den)
        return np.where(zero, 0.0, num / den)
    return num / den


def ref_recalls(C, eps):
    diag = np.diagonal(C)
    row = C.sum(axis=1)
    return (diag + eps) / (row + eps), row


def ref_recall_grad(C, eps, dpsi_dr):
    m = C.shape[0]
    diag = np.diagonal(C)
    row = C.sum(axis=1)
    d = row + eps
    G = (dpsi_dr * (-(diag + eps)) / d**2)[:, None] * np.ones((m, m))
    G[np.arange(m), np.arange(m)] += dpsi_dr * 1.0 / d
    return G


def ref_bacc_v(C, eps):
    m = C.shape[0]
    diag = np.diagonal(C)
    row = C.sum(axis=1)
    return float(np.sum(diag / (m * row + eps)))


def ref_bacc_g(C, eps):
    m = C.shape[0]
    diag = np.diagonal(C)
    d = m * C.sum(axis=1) + eps
    G = (-(diag) * m / d**2)[:, None] * np.ones((m, m))
    G[np.arange(m), np.arange(m)] += 1.0 / d
    return G


def ref_gmean_v(C, eps):
    r, _ = ref_recalls(C, eps)
    return float(np.exp(np.mean(np.log(r))))


def ref_gmean_g(C, eps):
    r, _ = ref_recalls(C, eps)
    v = np.exp(np.mean(np.log(r)))
    return ref_recall_grad(C, eps, v / (C.shape[0] * r))


def ref_hmean_v(C, eps):
    r, _ = ref_recalls(C, eps)
    return float(C.shape[0] / np.sum(1.0 / r))


def ref_hmean_g(C, eps):
    r, _ = ref_recalls(C, eps)
    s = np.sum(1.0 / r)
    return ref_recall_grad(C, eps, C.shape[0] / (s**2 * r**2))


def ref_qmean_v(C, eps):
    r, _ = ref_recalls(C, eps)
    return float(1.0 - np.sqrt(np.mean((1.0 - r) ** 2)))


def ref_qmean_g(C, eps):
    r, _ = ref_recalls(C, eps)
    m = C.shape[0]
    root = np.sqrt(np.mean((1.0 - r) ** 2))
    return ref_recall_grad(C, eps, ref_safe_div((1.0 - r) / m, root))


# (value, gradient) of each native metric as (m, m) ones-products and fancy
# indices, kept as the reference for the row-constant-plus-diagonal kernels
REF_NATIVE = {
    "mc-accuracy": (lambda C, eps: float(np.trace(C)), lambda C, eps: np.eye(C.shape[0])),
    "mc-balanced-acc": (ref_bacc_v, ref_bacc_g),
    "mc-gmean": (ref_gmean_v, ref_gmean_g),
    "mc-hmean": (ref_hmean_v, ref_hmean_g),
    "mc-qmean": (ref_qmean_v, ref_qmean_g),
}


@st.composite
def native_matrices(draw):
    """An (m, m) nonnegative matrix: random with exact zeros, with some rows
    zero, diagonal (every recall 1: q-mean's root is 0) or all zero."""
    m = draw(st.integers(2, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6]))
    C = rng.random((m, m)) * (rng.random((m, m)) < 0.7) * scale
    kind = draw(st.sampled_from(["random", "zero rows", "diagonal", "zero"]))
    if kind == "zero rows":
        C[rng.random(m) < 0.3] = 0.0
    elif kind == "diagonal":
        C = np.diag(np.diagonal(C))
    elif kind == "zero":
        C[...] = 0.0
    return C


def outcome(fn, C):
    """The bytes of fn(C), or the message of the floating-point error it raises."""
    try:
        with np.errstate(**evaluation.FP_ERRORS):
            out = np.asarray(fn(C))
    except FloatingPointError as exc:
        return "raised", str(exc)
    return out.shape, out.tobytes()


@pytest.mark.parametrize("name", sorted(REF_NATIVE))
@settings(max_examples=150, deadline=None)
@given(native_matrices(), st.sampled_from([0.0, EPSILON_FLOOR, 1e-9, 1.0]))
def test_native_kernels_equal_the_reference_formulas(name, C, eps):
    metric = parse_metric(name, epsilon=eps)
    ref_v, ref_g = REF_NATIVE[name]
    assert outcome(metric.value, C) == outcome(lambda C: ref_v(C, eps), C)
    assert outcome(metric.gradient, C) == outcome(lambda C: ref_g(C, eps), C)


@pytest.mark.parametrize("name", sorted(REF_NATIVE))
@settings(max_examples=60, deadline=None)
@given(native_matrices(), st.sampled_from([0.0, EPSILON_FLOOR, 1e-9, 1.0]),
       st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_native_coefficients_are_the_kernels_diagonal_term(name, C, eps, R, seed):
    metric = parse_metric(name, epsilon=eps)
    task = Task("multiclass", C.shape[0])
    kernel = metrics._NATIVE_BASES[metric.base][1]
    rng = np.random.default_rng(seed)
    stack = np.stack([C, *(rng.permutation(C.reshape(-1)).reshape(C.shape)
                           for _ in range(R - 1))])

    def diagonal_term(C):
        dpsi_dr, _, d = kernel(C, metric._consts, task.scale)
        return dpsi_dr / d

    for confusion in (C, stack):
        want = outcome(diagonal_term, confusion)
        got = outcome(lambda C: metric.coefficients(C, task).alpha, confusion)
        if want[0] == "raised":
            assert got[0] == "raised"
        else:
            assert got == want
            assert type(metric.coefficients(confusion, task).beta) is float


# --- binary bases against their formulas as they stood before their numpy
# calls were cut: verbatim copies of the gradients of the rate bases and
# Matthews, of the values that share their helpers, and of the rule that
# forms (alpha, beta).  The native reference's ref_safe_div is the same
# _safe_div.


def ref_bin_coefficients(dtn, dfp, dfn, dtp, shape) -> CostCoefficients:
    """(alpha, beta) of the given shape from the four partials; a scalar, or a
    micro stack's (R, 1) partial, is shared by the labels it covers."""
    alpha = dtp + dtn - dfp - dfn
    beta = dtn - dfp
    # python floats have no shape
    if getattr(alpha, "shape", ()) != shape:
        alpha = np.full(shape, alpha)
    if getattr(beta, "shape", ()) != shape:
        beta = np.full(shape, beta)
    return CostCoefficients(alpha, beta)


def ref_bin_rates(blocks, eps):
    """Stabilized true-positive and true-negative rates and their denominators."""
    tn, fp, fn, tp = _cells(blocks)
    dp = tp + fn + eps
    dn = tn + fp + eps
    return (tp + eps) / dp, (tn + eps) / dn, dp, dn


def ref_bin_rate_partials(blocks, eps, scale, dv_drp, dv_drn, dp, dn):
    """Chain dv/drp and dv/drn through the two stabilized rates to the cells."""
    tn, fp, fn, tp = _cells(blocks)
    dp2 = dp * dp * scale
    dn2 = dn * dn * scale
    return (dv_drn * fp / dn2, dv_drn * (-(tn + eps)) / dn2,
            dv_drp * (-(tp + eps)) / dp2, dv_drp * fn / dp2)


def ref_bin_gmean_v(blocks, eps, beta):
    rp, rn, _, _ = ref_bin_rates(blocks, eps)
    return np.sqrt(rp * rn)


def ref_bin_gmean_g(blocks, eps, beta, scale):
    rp, rn, dp, dn = ref_bin_rates(blocks, eps)
    v = np.sqrt(rp * rn)
    return ref_bin_rate_partials(blocks, eps, scale, ref_safe_div(rn, 2.0 * v),
                                 ref_safe_div(rp, 2.0 * v), dp, dn)


def ref_bin_hmean_v(blocks, eps, beta):
    rp, rn, _, _ = ref_bin_rates(blocks, eps)
    return 2.0 * rp * rn / (rp + rn)


def ref_bin_hmean_g(blocks, eps, beta, scale):
    rp, rn, dp, dn = ref_bin_rates(blocks, eps)
    s = rp + rn
    s2 = s * s
    return ref_bin_rate_partials(blocks, eps, scale, 2.0 * (rn * rn) / s2,
                                 2.0 * (rp * rp) / s2, dp, dn)


def ref_bin_qmean_v(blocks, eps, beta):
    rp, rn, _, _ = ref_bin_rates(blocks, eps)
    up, un = 1.0 - rp, 1.0 - rn
    return 1.0 - np.sqrt(0.5 * (up * up + un * un))


def ref_bin_qmean_g(blocks, eps, beta, scale):
    rp, rn, dp, dn = ref_bin_rates(blocks, eps)
    up, un = 1.0 - rp, 1.0 - rn
    root = np.sqrt(0.5 * (up * up + un * un))
    return ref_bin_rate_partials(blocks, eps, scale, ref_safe_div(0.5 * up, root),
                                 ref_safe_div(0.5 * un, root), dp, dn)


def ref_bin_matthews_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    den = np.sqrt((tp + fp + eps) * (tp + fn + eps) * (tn + fp + eps) * (tn + fn + eps))
    return ref_safe_div(tp * tn - fp * fn, den)


def ref_bin_matthews_g(blocks, eps, beta, scale):
    tn, fp, fn, tp = _cells(blocks)
    f1 = tp + fp + eps
    f2 = tp + fn + eps
    f3 = tn + fp + eps
    f4 = tn + fn + eps
    den = np.sqrt(f1 * f2 * f3 * f4)
    v = ref_safe_div(tp * tn - fp * fn, den)
    dtp = ref_safe_div(tn, den) - 0.5 * v * (1.0 / f1 + 1.0 / f2)
    dtn = ref_safe_div(tp, den) - 0.5 * v * (1.0 / f3 + 1.0 / f4)
    dfp = ref_safe_div(-fn, den) - 0.5 * v * (1.0 / f1 + 1.0 / f3)
    dfn = ref_safe_div(-fp, den) - 0.5 * v * (1.0 / f2 + 1.0 / f4)
    return dtn / scale, dfp / scale, dfn / scale, dtp / scale


def ref_bin_min_tn_tp_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    return np.minimum(tn, tp)


def ref_bin_min_tn_tp_g(blocks, eps, beta, scale):
    """Supergradient of min(tn, tp): indicator of the smaller entry, split at ties."""
    tn, fp, fn, tp = _cells(blocks)
    tie = np.abs(tn - tp) <= metrics._TIE_WIDTH
    dtn = np.where(tie, 0.5, (tn < tp).astype(float))
    dtp = np.where(tie, 0.5, (tp < tn).astype(float))
    return dtn / scale, 0.0, 0.0, dtp / scale


def as_base(value, gradient):
    """A reference pair of (blocks, eps, beta[, scale]) functions as a base
    pair, which reads the stabilizer from the metric's constants."""
    return (lambda blocks, c: value(blocks, c.eps, None),
            lambda blocks, c, scale: gradient(blocks, c.eps, None, scale))


REF_BINARY = {
    "g_mean": as_base(ref_bin_gmean_v, ref_bin_gmean_g),
    "h_mean": as_base(ref_bin_hmean_v, ref_bin_hmean_g),
    "q_mean": as_base(ref_bin_qmean_v, ref_bin_qmean_g),
    "matthews": as_base(ref_bin_matthews_v, ref_bin_matthews_g),
    "min_tn_tp": as_base(ref_bin_min_tn_tp_v, ref_bin_min_tn_tp_g),
}

# every binary, macro and micro metric, and min(tn, tp) as the adversarial
# scenario runs it (binary) and averaged over labels
REF_BINARY_NAMES = NON_NATIVE + ["min-tn-tp", "macro-min-tn-tp"]


def ref_binary_metric(name, eps):
    if name == "min-tn-tp":
        return metrics.min_tn_tp(eps)
    if name == "macro-min-tn-tp":
        return metrics.Metric(name=name, base="min_tn_tp", averaging=MACRO, epsilon=eps)
    return parse_metric(name, epsilon=eps)


# min(tn, tp)'s tie band: gaps of exactly +-_TIE_WIDTH and one ulp either side
TIE_GAPS = [g for w in (metrics._TIE_WIDTH, -metrics._TIE_WIDTH)
            for g in (w, np.nextafter(w, 0.0), np.nextafter(w, 2.0 * w))]


@st.composite
def ref_binary_cases(draw, name):
    """A metric of the name, a task it takes, one confusion and an (R, ...)
    stack of them: random with exact zeros, all zero, at the q-mean kink, or
    with tn - tp on the edges of min(tn, tp)'s tie band."""
    eps = draw(st.sampled_from([0.0, EPSILON_FLOOR, 1e-9, 1.0]))
    metric = ref_binary_metric(name, eps)
    # metric_tasks reads only the averaging, which a Metric carries too
    task = draw(st.sampled_from(metric_tasks(metric, draw(st.integers(2, 6)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-12, 1e-6, 1e-3, 1.0, 1e3]))
    slices = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "zero", "kink", "ties"]))
        C = confusion_slice(task, "random" if kind == "ties" else kind, rng, scale)
        if kind == "ties":
            # one of tn, tp is 0 and the other the gap's size, so tn - tp is the gap
            gaps = np.array(draw(st.lists(st.sampled_from(TIE_GAPS), min_size=C[..., 0, 0].size,
                                          max_size=C[..., 0, 0].size)))
            C[..., 0, 0] = np.maximum(gaps, 0.0).reshape(C[..., 0, 0].shape)
            C[..., 1, 1] = np.maximum(-gaps, 0.0).reshape(C[..., 1, 1].shape)
        slices.append(C)
    return metric, task, slices[0], np.stack(slices)


def coefficient_outcome(metric, C, task):
    """The shapes and bytes of (alpha, beta) at C, whether beta is a scalar
    structural zero, or the message of the floating-point error raised."""
    try:
        with np.errstate(**evaluation.FP_ERRORS):
            alpha, beta = metric.coefficients(C, task)
    except FloatingPointError as exc:
        return "raised", str(exc)
    return alpha.shape, alpha.tobytes(), type(beta) is float, np.shape(beta), \
        np.asarray(beta).tobytes()


def binary_outcomes(metric, task, C, stack):
    return (outcome(metric.value, C), outcome(metric.gradient, C),
            coefficient_outcome(metric, C, task), coefficient_outcome(metric, stack, task))


@pytest.mark.parametrize("name", REF_BINARY_NAMES)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_binary_bases_equal_the_reference_formulas(name, data):
    metric, task, C, stack = data.draw(ref_binary_cases(name))
    got = binary_outcomes(metric, task, C, stack)
    with mock.patch.dict(metrics._BINARY_BASES, REF_BINARY), \
            mock.patch.object(metrics, "_coefficients", ref_bin_coefficients):
        # a metric resolves its bases when it is built: build it again here
        want = binary_outcomes(dataclasses.replace(metric), task, C, stack)
    assert got == want


# --- Frank-Wolfe's vertex store against a fit that counts every vertex


def reference_fw_fit(estimates, labels, task, metric, iterations):
    """``fw_fit`` without the vertex store: every iteration decides each row
    on its own, as a mixture learner does, and counts its vertex with the
    four-cell sums."""
    n, m = estimates.shape
    ref = estimates if labels is None else labels
    k = metric.budget_k or (1 if task.is_multiclass else 0)
    cbar = four_cell_counts(task, ref.sum(axis=0)[None] / n, np.full((1, m), k / m))
    coefficients, weights = [], np.empty(iterations)
    for q in range(iterations):
        coeffs = metric.coefficients(cbar, task)
        dec = np.array([policy.decide_coefficients(coeffs, row, metric.budget_k,
                                                   multiclass=task.is_multiclass)
                        for row in estimates])
        cq = four_cell_counts(task, ref, dec) / n
        gamma = 2.0 / (q + 2.0)
        cbar = (1.0 - gamma) * cbar + gamma * cq
        weights[:q] *= 1.0 - gamma
        weights[q] = gamma
        coefficients.append(coeffs)
    return coefficients, weights, cbar


def tensor_fw_fit(estimates, labels, task, metric, iterations):
    """The multilabel ``fw_fit`` as it stood when mixtures held gradient
    tensors: each iteration decides through ``cost_coefficients`` of the
    metric's gradient tensor, which the mixture kept."""
    n, m = estimates.shape
    ref = estimates if labels is None else labels
    k = metric.budget_k or 0
    cbar = four_cell_counts(task, ref.sum(axis=0)[None] / n, np.full((1, m), k / m))
    tensors, weights = [], np.empty(iterations)
    for q in range(iterations):
        G = metric.gradient(cbar)
        dec = policy.decide(policy.gains(policy.cost_coefficients(G), estimates),
                            metric.budget_k)
        cq = four_cell_counts(task, ref, dec) / n
        gamma = 2.0 / (q + 2.0)
        cbar = (1.0 - gamma) * cbar + gamma * cq
        weights[:q] *= 1.0 - gamma
        weights[q] = gamma
        tensors.append(G)
    return tensors, weights, cbar


# the metrics of each task; a binary metric needs one label or two classes
FW_NAMES = {"multilabel": ["macro-f1", "macro-hmean", "micro-f1", "micro-gmean",
                           "macro-accuracy"],
            "multiclass": ["macro-f1", "micro-jaccard", "mc-hmean", "mc-balanced-acc",
                           "mc-qmean"]}


@st.composite
def fw_buffers(draw, kinds=KINDS):
    """An (n, m) estimate buffer, aligned labels or None, a task, a metric with
    or without a budget and an iteration count.  Estimates take few distinct
    values, so that the fit revisits its vertices."""
    kind = draw(kinds)
    m = draw(st.integers(2 if kind == "multiclass" else 1, 5))
    n = draw(st.integers(1, 30))
    task = Task(kind, m)
    eta = np.array(draw(st.lists(PROBS | st.floats(0.0, 1.0), min_size=n * m,
                                 max_size=n * m))).reshape(n, m)
    if kind == "multiclass":
        mass = eta.sum(axis=1, keepdims=True)
        eta = np.where(mass > 0, eta / np.where(mass > 0, mass, 1.0), 1.0 / m)
        labels = np.eye(m)[draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))]
    else:
        labels = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)),
                          dtype=np.float64).reshape(n, m)
    binary = m == (2 if kind == "multiclass" else 1)
    budget = draw(st.none() | st.integers(1, m))
    name = draw(st.sampled_from(FW_NAMES[kind] + (["f1", "gmean"] if binary else [])))
    metric = parse_metric(name + (f"@{budget}" if budget else ""))
    return (eta, draw(st.none() | st.just(labels)), task, metric,
            draw(st.integers(1, 25)))


def mixture_arrays(mix):
    return [*map(np.asarray, mix.coefficients), mix.weights, mix.final_cm]


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(fw_buffers())
def test_fw_fit_equals_a_fit_that_counts_every_vertex(case):
    coefficients, weights, final_cm = reference_fw_fit(*case)
    mix = fw_fit(*case)
    assert same_coefficients(mix.coefficients, stacked(coefficients))
    assert_same_arrays([mix.weights, mix.final_cm], [weights, final_cm])


@settings(max_examples=200, deadline=None)
@given(fw_buffers(st.just("multilabel")))
def test_multilabel_mixture_coefficients_are_those_of_the_gradient_tensors(case):
    tensors, weights, final_cm = tensor_fw_fit(*case)
    mix = fw_fit(*case)
    assert same_coefficients(mix.coefficients,
                             stacked([policy.cost_coefficients(G) for G in tensors]))
    assert_same_arrays([mix.weights, mix.final_cm], [weights, final_cm])


@settings(max_examples=300, deadline=None)
@given(fw_buffers(), st.data())
def test_lockstep_fw_fit_equals_one_fit_per_prefix(case, data):
    eta, labels, task, metric, iterations = case
    n = len(eta)
    prefixes = sorted(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6,
                                         unique=True)))
    mixes = fw_fit(*case, prefixes=prefixes)
    assert len(mixes) == len(prefixes)
    for size, mix in zip(prefixes, mixes):
        part = eta[:size], None if labels is None else labels[:size], task, metric, iterations
        coefficients, weights, final_cm = reference_fw_fit(*part)
        assert same_coefficients(mix.coefficients, stacked(coefficients))
        assert_same_arrays([mix.weights, mix.final_cm], [weights, final_cm])
        assert_same_arrays(mixture_arrays(mix), mixture_arrays(fw_fit(*part)))


def test_lockstep_prefixes_must_increase_within_the_buffer():
    eta = np.full((5, 2), 0.5)
    for bad in ([], [0], [6], [3, 3], [4, 2]):
        with pytest.raises(ValueError, match="prefixes"):
            fw_fit(eta, None, Task("multilabel", 2), parse_metric("macro-f1"), 2,
                   prefixes=bad)


def test_lockstep_prefixes_must_be_integers():
    eta = np.linspace(0.0, 1.0, 12).reshape(6, 2)
    task, metric = Task("multilabel", 2), parse_metric("macro-f1")
    for bad in ([True, 2], [1, 2.5], [np.float64(3.0)], [1, np.bool_(True)]):
        with pytest.raises(ValueError, match="prefixes must be integer"):
            fw_fit(eta, None, task, metric, 3, prefixes=bad)
    got = fw_fit(eta, None, task, metric, 3, prefixes=[np.int64(2), np.int32(4)])
    want = fw_fit(eta, None, task, metric, 3, prefixes=[2, 4])
    for a, b in zip(got, want):
        assert_same_arrays(mixture_arrays(a), mixture_arrays(b))
    assert_same_arrays(mixture_arrays(fw_fit(eta, None, task, metric, 3,
                                             prefixes=np.array([2, 4]))[1]),
                       mixture_arrays(want[1]))


@settings(max_examples=100, deadline=None)
@given(fw_buffers(), st.sampled_from(["F", "strided"]))
def test_fw_fit_does_not_depend_on_the_memory_layout(case, layout):
    eta, labels, task, metric, iterations = case
    mix = fw_fit(in_layout(eta, layout), None if labels is None else in_layout(labels, layout),
                 task, metric, iterations)
    assert_same_arrays(mixture_arrays(mix), mixture_arrays(fw_fit(*case)))


# --- a mixture's draws against Generator.choice


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.0, 1e-300, 1e-3, 0.5, 1.0, 7.0]) | st.floats(0.0, 1.0),
                min_size=1, max_size=30).filter(lambda w: sum(w) > 0),
       st.integers(0, 2**64 - 1))
def test_mixture_sample_draws_as_generator_choice(raw, seed):
    weights = np.array(raw) / sum(raw)
    assume(abs(weights.sum() - 1.0) <= 1e-9)
    mix = MixtureClassifier(CostCoefficients(np.arange(len(weights))[:, None], 0.0), weights)
    by_choice, by_sample = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    for _ in range(5):
        assert mix.sample(by_sample).alpha[0] == by_choice.choice(len(weights), p=weights)
    # each draw takes one uniform, so the generators stay in step
    assert by_sample.random() == by_choice.random()
