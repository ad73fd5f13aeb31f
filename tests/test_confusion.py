import numpy as np
import pytest

from omma.confusion import (ProbEstimate, batch_counts, check_labels,
                            expected_instance_confusion, indicator_row, init_state,
                            multiclass, multiclass_to_multilabel, multilabel, top_entries)
from omma.algorithms import LearnerConfig, make_learner
from omma.evaluation import FP_ERRORS
from omma.metrics import EPSILON_FLOOR, parse_metric


def instance_confusion(task, y, yhat):
    """The confusion of one checked (label, prediction) pair: ``batch_counts`` of
    its label row against its decision row."""
    check_labels(task, y)
    check_labels(task, yhat, prediction=True)
    return batch_counts(task, indicator_row(task.m, y, np.float64)[None],
                        indicator_row(task.m, yhat, bool)[None])


def test_init_state_zero():
    st = init_state(multilabel(3), 0.0)
    assert st.t == 0
    assert st.counts.shape == (3, 2, 2)
    assert np.all(st.counts == 0.0)


def test_init_state_constant_fill():
    st = init_state(multiclass(2), 1.0)
    assert np.all(st.counts == 1.0)
    st = init_state(multilabel(2), 0.001)
    assert st.counts.shape == (2, 2, 2)
    assert np.all(st.counts == 0.001)


def test_init_state_negative_lambda():
    with pytest.raises(ValueError):
        init_state(multilabel(2), -0.1)


def test_instance_confusion_multiclass():
    C = instance_confusion(multiclass(3), (1,), (2,))
    expected = np.zeros((3, 3))
    expected[1, 2] = 1.0
    assert np.array_equal(C, expected)


def test_instance_confusion_multilabel():
    C = instance_confusion(multilabel(2), (0,), (0, 1))
    assert C[0, 1, 1] == 1.0  # label 0: tp
    assert C[1, 0, 1] == 1.0  # label 1: fp
    assert C.sum() == 2.0


def test_instance_confusion_all_negative():
    C = instance_confusion(multilabel(2), (), ())
    assert C[0, 0, 0] == 1.0 and C[1, 0, 0] == 1.0
    assert C.sum() == 2.0


def test_instance_confusion_out_of_range():
    with pytest.raises(ValueError):
        instance_confusion(multilabel(2), (2,), ())
    with pytest.raises(ValueError):
        instance_confusion(multiclass(3), (0,), (3,))


@pytest.mark.parametrize("bad", [0.5, "1", True, np.float64(1.0)])
def test_non_integer_label_indices_are_rejected_where_they_enter(bad):
    task = multilabel(3)
    est = ProbEstimate.from_dense(np.array([0.2, 0.5, 0.3]))
    state = init_state(task, 0.0)
    learner = make_learner(LearnerConfig("omma", task, parse_metric("macro-f1")))
    learner.step(est)
    calls = [lambda: learner.observe((bad,)),
             lambda: state.update((bad,), ()),
             lambda: state.update((), (bad,)),
             lambda: state.update_semi(est, (bad,)),
             lambda: expected_instance_confusion(task, est, (bad,))]
    for call in calls:
        with pytest.raises(ValueError, match=r"label indices must be integers in 0\.\.2"):
            call()
    # nothing was counted, and the learner still waits for its label
    assert state.t == 0 and np.all(state.counts == 0.0)
    learner.observe((np.int64(1),))
    assert learner.state.t == 1


@pytest.mark.parametrize("indices", [[0.5, 1.7], [True], np.array([1.0]), ["1"]])
def test_estimate_indices_must_be_integers(indices):
    with pytest.raises(ValueError, match=r"label indices must be integers in 0\.\.2"):
        ProbEstimate(3, indices, [0.2] * len(indices))
    # an empty list is float64 and stays valid, as do unsigned indices
    assert ProbEstimate(3, [], []).indices.dtype == np.int64
    assert ProbEstimate(3, np.array([0, 2], np.uint8), [0.2, 0.3]).indices.tolist() == [0, 2]


def test_expected_confusion_binary_predict():
    est = ProbEstimate.from_dense(np.array([0.7]))
    C = expected_instance_confusion(multilabel(1), est, (0,))
    assert C[0, 1, 1] == pytest.approx(0.7)
    assert C[0, 0, 1] == pytest.approx(0.3)
    assert C[0, 1, 0] == 0.0 and C[0, 0, 0] == 0.0


def test_expected_confusion_binary_abstain():
    est = ProbEstimate.from_dense(np.array([0.7]))
    C = expected_instance_confusion(multilabel(1), est, ())
    assert C[0, 1, 0] == pytest.approx(0.7)
    assert C[0, 0, 0] == pytest.approx(0.3)


def test_expected_confusion_multiclass():
    est = ProbEstimate.from_dense(np.array([0.2, 0.8]))
    C = expected_instance_confusion(multiclass(2), est, (1,))
    assert np.allclose(C[:, 1], [0.2, 0.8])
    assert np.allclose(C[:, 0], 0.0)


def test_expected_confusion_bad_probability():
    with pytest.raises(ValueError):
        ProbEstimate.from_dense(np.array([1.2]))


@pytest.mark.parametrize("vec", [[np.nan], [0.5, np.nan], [np.nan, 1.0]])
def test_prob_estimate_rejects_nan(vec):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ProbEstimate.from_dense(np.array(vec))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ProbEstimate(len(vec), np.arange(len(vec)), np.array(vec))


def test_update_single_tp():
    st = init_state(multilabel(1), 0.0)
    st.update((0,), (0,))
    assert st.normalized()[0, 1, 1] == 1.0


def test_update_two_instances_average():
    st = init_state(multilabel(1), 0.0)
    st.update((0,), (0,))
    st.update((), ())
    C = st.normalized()
    assert C[0, 1, 1] == 0.5 and C[0, 0, 0] == 0.5


def test_update_with_regularizer():
    st = init_state(multilabel(1), 1.0)
    st.update((0,), (0,))
    assert np.array_equal(st.normalized()[0], np.array([[1.0, 1.0], [1.0, 2.0]]))


def test_update_semi_expected_counts():
    st = init_state(multilabel(1), 0.0)
    st.update_semi(ProbEstimate.from_dense(np.array([0.7])), (0,))
    C = st.normalized()
    assert C[0, 1, 1] == pytest.approx(0.7)
    assert C[0, 0, 1] == pytest.approx(0.3)


def test_update_semi_degenerate_matches_update():
    rng = np.random.default_rng(0)
    task = multilabel(4)
    a = init_state(task, 0.0)
    b = init_state(task, 0.0)
    for _ in range(25):
        y = tuple(np.nonzero(rng.random(4) < 0.4)[0].tolist())
        yhat = tuple(np.nonzero(rng.random(4) < 0.4)[0].tolist())
        dense = np.zeros(4)
        dense[list(y)] = 1.0
        a.update(y, yhat)
        b.update_semi(ProbEstimate.from_dense(dense), yhat)
    assert np.array_equal(a.counts, b.counts)


def test_update_semi_hand_value():
    st = init_state(multilabel(1), 0.5)
    st.update_semi(ProbEstimate.from_dense(np.array([0.5])), (0,))
    # accumulator (tn, fp, fn, tp) = (0.5, 1.0, 0.5, 1.0)
    assert np.array_equal(st.counts[0], np.array([[0.5, 1.0], [0.5, 1.0]]))


def test_normalized_t0():
    st = init_state(multilabel(1), 0.01)
    assert np.all(st.normalized() == 0.01)
    st = init_state(multilabel(1), 0.0)
    assert np.all(st.normalized() == 0.0)


def test_normalized_counts_divided():
    st = init_state(multilabel(1), 0.0)
    for pair in (((0,), (0,)), ((0,), ()), ((), (0,)), ((), ())):
        st.update(*pair)
    assert np.all(st.normalized() == 0.25)


def test_exact_sum_identity():
    """Accumulated counts equal lam plus the exact sum of instance confusions,
    expected ones too; a multiclass prediction may name several classes."""
    rng = np.random.default_rng(3)
    lam = 0.001
    for task in (multilabel(6), multiclass(6)):
        st, semi = init_state(task, lam), init_state(task, lam)
        total = np.full(task.shape, lam)
        expected = total.copy()
        for _ in range(200):
            if task.is_multiclass:
                y = (int(rng.integers(6)),)
            else:
                y = tuple(np.nonzero(rng.random(6) < 0.3)[0].tolist())
            yhat = tuple(np.nonzero(rng.random(6) < 0.3)[0].tolist())
            eta = ProbEstimate.from_dense(rng.random(6))
            st.update(y, yhat)
            semi.update_semi(eta, yhat)
            total += instance_confusion(task, y, yhat)
            expected += expected_instance_confusion(task, eta, yhat)
        assert np.array_equal(st.counts, total)
        assert np.array_equal(st.normalized(), total / 200)
        assert np.array_equal(semi.counts, expected)


@pytest.mark.parametrize("lam", [0.0, 1e-6, 1e-3, 0.1, 1.0])
def test_normalization_mass(lam):
    task = multilabel(3)
    st = init_state(task, lam)
    rng = np.random.default_rng(1)
    t = 37
    for _ in range(t):
        y = tuple(np.nonzero(rng.random(3) < 0.5)[0].tolist())
        st.update(y, ())
    sums = st.normalized().sum(axis=(1, 2))
    assert np.allclose(sums, 1.0 + 4.0 * lam / t, atol=1e-12)

    mc = init_state(multiclass(3), lam)
    for _ in range(t):
        mc.update((int(rng.integers(3)),), (int(rng.integers(3)),))
    assert abs(mc.normalized().sum() - (1.0 + 9.0 * lam / t)) < 1e-12


def test_multiclass_to_multilabel_diagonal():
    C = np.array([[0.5, 0.0], [0.0, 0.5]])
    T = multiclass_to_multilabel(C)
    for j in range(2):
        assert T[j, 1, 1] == 0.5 and T[j, 0, 0] == 0.5
        assert T[j, 0, 1] == 0.0 and T[j, 1, 0] == 0.0


def test_multiclass_to_multilabel_hand_case():
    T = multiclass_to_multilabel(np.array([[0.4, 0.1], [0.2, 0.3]]))
    assert T[0, 1, 1] == pytest.approx(0.4)
    assert T[0, 0, 1] == pytest.approx(0.2)
    assert T[0, 1, 0] == pytest.approx(0.1)
    assert T[0, 0, 0] == pytest.approx(0.3)


def test_multiclass_to_multilabel_has_no_negative_cell():
    # about 1 in 40 of these matrices rounds total - row - col + diag below zero
    rng = np.random.default_rng(11)
    for _ in range(2000):
        m = int(rng.integers(2, 6))
        C = rng.random((m, m)) * (rng.random((m, m)) < 0.7) * 1e-9
        assert np.all(multiclass_to_multilabel(C) >= 0.0)


def test_a_tn_that_rounds_below_zero_is_clamped():
    # class 1's tn rounds to -4e-25 before the clamp, and macro-gmean at the
    # smallest epsilon then took the square root of a negative rate
    C = np.array([[0.0, 7.166078337322687e-10], [9.121052609840152e-10, 9.423605323086546e-10]])
    assert multiclass_to_multilabel(C)[1, 0, 0] == 0.0
    metric = parse_metric("macro-gmean", epsilon=EPSILON_FLOOR)
    with np.errstate(**FP_ERRORS):
        assert np.isfinite(metric.value(C))
        assert np.all(np.isfinite(metric.gradient(C)))
        assert all(np.all(np.isfinite(part)) for part in metric.coefficients(C, multiclass(2)))


def test_multiclass_to_multilabel_mass_preserved():
    rng = np.random.default_rng(5)
    C = rng.random((4, 4))
    C /= C.sum()
    T = multiclass_to_multilabel(C)
    assert np.allclose(T.sum(axis=(1, 2)), 1.0)
    assert np.allclose(T[:, 1, 1], np.diag(C))


def test_multiclass_to_multilabel_rejects_nonsquare():
    with pytest.raises(ValueError):
        multiclass_to_multilabel(np.zeros((2, 3)))


def test_expected_confusion_equals_joint_enumeration():
    """Expected confusion matches exhaustive enumeration over the product joint."""
    rng = np.random.default_rng(9)
    m = 5
    task = multilabel(m)
    for _ in range(10):
        p = rng.random(m)
        yhat = tuple(np.nonzero(rng.random(m) < 0.5)[0].tolist())
        expect = expected_instance_confusion(task, ProbEstimate.from_dense(p), yhat)
        brute = np.zeros(task.shape)
        for bits in range(2**m):
            y = tuple(j for j in range(m) if bits >> j & 1)
            w = np.prod([p[j] if j in y else 1 - p[j] for j in range(m)])
            brute += w * instance_confusion(task, y, yhat)
        assert np.allclose(expect, brute, atol=1e-12)


def test_probe_estimate_top():
    est = ProbEstimate(10, [1, 3, 7], [0.5, 0.9, 0.5])
    indices, values = top_entries(est.indices, est.values, 2)
    assert indices.tolist() == [1, 3]  # tie between 1 and 7 keeps smaller index
    assert values.tolist() == [0.5, 0.9]
