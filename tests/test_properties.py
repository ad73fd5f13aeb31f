"""Property tests of the decision kernel and the two accumulation shapes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from omma import policy
from omma.confusion import (ProbEstimate, Task, batch_counts, expected_instance_confusion,
                            init_state, instance_confusion)

# few distinct values, zero among them, so that ties and zero gains are common
SCORES = st.sampled_from([-1.0, -0.25, 0.0, 0.0, 0.5, 1.0])
PROBS = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
KINDS = st.sampled_from(["multilabel", "multiclass"])


def as_labels(row) -> tuple:
    return tuple(np.nonzero(row)[0].tolist())


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
        policy.decide_one(row, budget, argmax=True) for row in S]
    if budget is None:
        # a zero gain predicts positive; argmax takes the first maximum
        assert np.array_equal(dec, S >= 0.0)
        assert [as_labels(row) for row in top] == [(int(np.argmax(row)),) for row in S]
    else:
        assert np.all(dec.sum(axis=1) == budget)


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


@settings(max_examples=100, deadline=None)
@given(streams())
def test_batch_sum_matches_instance_references(stream):
    task, seq, _ = stream
    dec = np.array([[j in yhat for j in range(task.m)] for _, yhat, _ in seq])
    labels = np.array([[float(j in y) for j in range(task.m)] for y, _, _ in seq])
    estimates = np.array([eta for _, _, eta in seq])
    by_label = sum(instance_confusion(task, y, yhat) for y, yhat, _ in seq)
    by_estimate = sum(expected_instance_confusion(task, ProbEstimate.from_dense(eta), yhat)
                      for _, yhat, eta in seq)
    assert np.allclose(batch_counts(task, labels, dec), by_label)
    assert np.allclose(batch_counts(task, estimates, dec), by_estimate)
