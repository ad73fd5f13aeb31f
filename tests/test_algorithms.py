import itertools

import numpy as np
import pytest

from omma import algorithms, policy
from omma.algorithms import (LearnerConfig, ProtocolError, UnsupportedMetricError,
                             fw_fit, make_learner, refit_thresholds)
from omma.confusion import ProbEstimate, batch_counts, indicator_row, multiclass, \
    multilabel
from omma.dataio import SynthModel, synth_generate
from omma.metrics import parse_metric


def est(*vals):
    return ProbEstimate.from_dense(np.array(vals, dtype=float))


def cfg_for(alg, task, metric_name, lam=0.0, **kw):
    return LearnerConfig(alg, task, parse_metric(metric_name), lam=lam, **kw)


# --- protocol


def test_step_observe_alternate():
    learner = make_learner(cfg_for("omma", multilabel(2), "macro-f1"))
    learner.step(est(0.5, 0.5))
    with pytest.raises(ProtocolError):
        learner.step(est(0.5, 0.5))
    learner.observe((0,))
    with pytest.raises(ProtocolError):
        learner.observe((0,))


def test_unknown_algorithm():
    with pytest.raises(ValueError):
        make_learner(cfg_for("nope", multilabel(2), "macro-f1"))


# --- omma


def test_omma_threshold_at_uniform_state():
    # at the all-lam matrix the per-label F1 threshold is 1/4
    learner = make_learner(cfg_for("omma", multilabel(2), "macro-f1", lam=0.01))
    assert learner.step(est(0.3, 0.2)) == (0,)


def test_omma_accuracy_thresholds_at_half():
    learner = make_learner(cfg_for("omma", multilabel(3), "macro-accuracy", lam=0.3))
    assert learner.step(est(0.5, 0.49, 0.51)) == (0, 2)
    learner.observe((0,))
    assert learner.step(est(0.1, 0.9, 0.2)) == (1,)


def test_omma_budget_top_gain():
    learner = make_learner(cfg_for("omma", multilabel(2), "macro-accuracy@1", lam=0.3))
    assert learner.step(est(0.3, 0.7)) == (1,)


def test_omma_observe_updates_counts():
    learner = make_learner(cfg_for("omma", multilabel(1), "macro-f1"))
    pred = learner.step(est(0.9))
    learner.observe((0,))
    if pred == (0,):
        assert learner.state.counts[0, 1, 1] == 1.0


def test_omma_eta_expected_update():
    learner = make_learner(cfg_for("omma-eta", multilabel(1), "macro-f1", lam=0.01))
    pred = learner.step(est(0.7))
    assert pred == (0,)
    learner.observe(())  # label ignored entirely
    assert learner.state.counts[0, 1, 1] == pytest.approx(0.01 + 0.7)
    assert learner.state.counts[0, 0, 1] == pytest.approx(0.01 + 0.3)


def test_omma_eta_degenerate_matches_omma():
    model = SynthModel(task=multilabel(4), d=0, prior_low=0.3, prior_high=0.6, seed=1)
    stream = synth_generate(model, 60, seed=2)
    a = make_learner(cfg_for("omma", multilabel(4), "macro-f1", lam=1e-3))
    b = make_learner(cfg_for("omma-eta", multilabel(4), "macro-f1", lam=1e-3))
    for y, _ in stream:
        dense = np.zeros(4)
        dense[list(y)] = 1.0
        exact = ProbEstimate.from_dense(dense)
        pa, pb = a.step(exact), b.step(exact)
        assert pa == pb
        a.observe(y)
        b.observe(y)
    assert np.array_equal(a.state.counts, b.state.counts)


def test_omma_matches_linearized_bruteforce_over_stream():
    """Every step's prediction attains the exhaustive linearized maximum."""
    from omma.confusion import expected_instance_confusion
    model = SynthModel(task=multilabel(5), d=3, prior_low=0.2, prior_high=0.5, seed=3)
    stream = synth_generate(model, 50, seed=4)
    metric = parse_metric("macro-gmean")
    learner = make_learner(LearnerConfig("omma", multilabel(5), metric, lam=1e-3))
    subsets = [tuple(j for j in range(5) if b >> j & 1) for b in range(32)]
    for y, eta in stream:
        G = metric.gradient(learner.state.normalized())
        pred = learner.step(eta)
        learner.observe(y)
        scores = {s: float(np.sum(G * expected_instance_confusion(multilabel(5), eta, s)))
                  for s in subsets}
        assert scores[pred] == pytest.approx(max(scores.values()), abs=1e-12)


def test_omma_sparse_requires_macro():
    with pytest.raises(UnsupportedMetricError):
        make_learner(cfg_for("omma", multilabel(10), "micro-f1", sparse_k=3))


def test_sparse_k_below_the_budget_is_rejected_where_it_enters():
    with pytest.raises(ValueError, match="top-k' size 1 is below the budget 2"):
        cfg_for("omma", multilabel(5), "macro-f1@2", sparse_k=1)
    # a top-k' size equal to the budget predicts exactly the k listed labels
    learner = make_learner(cfg_for("omma", multilabel(5), "macro-f1@2", sparse_k=2))
    assert learner.step(est(0.1, 0.9, 0.2, 0.8, 0.3)) == (1, 3)


@pytest.mark.parametrize("alg", ["omma", "greedy", "ofw", "topk"])
def test_native_metric_on_a_multilabel_task_is_rejected_where_it_enters(alg):
    with pytest.raises(ValueError, match="^mc-hmean needs a multiclass stream$"):
        cfg_for(alg, multilabel(3), "mc-hmean")
    if alg == "greedy":
        # greedy needs per-label blocks, which a native metric does not have
        with pytest.raises(UnsupportedMetricError):
            cfg_for(alg, multiclass(3), "mc-hmean")
    else:
        assert cfg_for(alg, multiclass(3), "mc-hmean").task == multiclass(3)


def test_omma_sparse_top_kprime_truncation():
    learner = make_learner(cfg_for("omma", multilabel(6), "macro-accuracy",
                                   lam=0.1, sparse_k=2))
    # only the two largest entries are considered; 0.9 and 0.8 beat threshold 0.5
    pred = learner.step(est(0.6, 0.9, 0.0, 0.8, 0.0, 0.55))
    assert pred == (1, 3)


# --- greedy


def test_greedy_requires_macro():
    with pytest.raises(UnsupportedMetricError):
        make_learner(cfg_for("greedy", multilabel(2), "micro-f1"))
    with pytest.raises(UnsupportedMetricError):
        make_learner(cfg_for("greedy", multiclass(3), "mc-gmean"))


def test_greedy_first_step_f1():
    learner = make_learner(cfg_for("greedy", multilabel(1), "macro-f1"))
    assert learner.step(est(0.6)) == (0,)


def test_greedy_zero_probability_tie_predicts_positive():
    learner = make_learner(cfg_for("greedy", multilabel(1), "macro-f1"))
    assert learner.step(est(0.0)) == (0,)


def test_greedy_budget_tie_break():
    learner = make_learner(cfg_for("greedy", multilabel(2), "macro-f1@1"))
    assert learner.step(est(0.5, 0.5)) == (0,)


def _greedy_bruteforce(state, metric, eta_dense, candidates):
    """Expected utility of each candidate, by per-label outcome enumeration."""
    from omma.confusion import multiclass_to_multilabel
    if state.task.is_multiclass:
        S = multiclass_to_multilabel(state.counts)
    else:
        S = state.counts
    tnext = state.t + 1
    m = S.shape[0]
    term = np.zeros((m, 2))
    for v in (0, 1):
        up1 = S.copy()
        up1[:, 1, v] += 1.0
        up0 = S.copy()
        up0[:, 0, v] += 1.0
        term[:, v] = (eta_dense * metric.block_values(up1 / tnext)
                      + (1.0 - eta_dense) * metric.block_values(up0 / tnext))
    best = {}
    for cand in candidates:
        mask = np.zeros(m, dtype=int)
        mask[list(cand)] = 1
        best[cand] = float(term[np.arange(m), mask].sum())
    return best


@pytest.mark.parametrize("metric_name,budget", [("macro-f1", None), ("macro-f1", 2),
                                                ("macro-gmean", None), ("macro-gmean", 1)])
def test_greedy_equals_exhaustive_argmax(metric_name, budget):
    rng = np.random.default_rng(17)
    m = 6
    name = metric_name + (f"@{budget}" if budget else "")
    metric = parse_metric(name)
    for trial in range(10):
        learner = make_learner(LearnerConfig("greedy", multilabel(m), metric, lam=1e-3))
        if budget is None:
            candidates = [tuple(j for j in range(m) if b >> j & 1) for b in range(2**m)]
        else:
            candidates = list(itertools.combinations(range(m), budget))
        for t in range(30):
            p = rng.random(m)
            pred = learner.step(ProbEstimate.from_dense(p))
            scores = _greedy_bruteforce(learner.state, metric, p, candidates)
            assert scores[pred] == pytest.approx(max(scores.values()), abs=1e-12)
            y = tuple(np.nonzero(rng.random(m) < p)[0].tolist())
            learner.observe(y)


def instance_confusion(task, y, yhat):
    """The confusion of one (label, prediction) pair, from its two rows."""
    return batch_counts(task, indicator_row(task.m, y, np.float64)[None],
                        indicator_row(task.m, yhat, bool)[None])


def test_greedy_full_joint_enumeration_small():
    """For tiny m the per-label expectation equals the full joint expectation."""
    rng = np.random.default_rng(23)
    m = 3
    metric = parse_metric("macro-f1")
    learner = make_learner(LearnerConfig("greedy", multilabel(m), metric, lam=1e-3))
    task = multilabel(m)
    for t in range(15):
        p = rng.random(m)
        pred = learner.step(ProbEstimate.from_dense(p))
        # exhaustive: over candidates and joint label outcomes
        best_val, best_set = -np.inf, None
        for bits in range(2**m):
            cand = tuple(j for j in range(m) if bits >> j & 1)
            val = 0.0
            for ybits in range(2**m):
                y = tuple(j for j in range(m) if ybits >> j & 1)
                w = np.prod([p[j] if j in y else 1 - p[j] for j in range(m)])
                upd = learner.state.counts + instance_confusion(task, y, cand)
                val += w * metric.value(upd / (learner.state.t + 1))
            if val > best_val + 1e-12:
                best_val, best_set = val, cand
        got = 0.0
        for ybits in range(2**m):
            y = tuple(j for j in range(m) if ybits >> j & 1)
            w = np.prod([p[j] if j in y else 1 - p[j] for j in range(m)])
            got += w * metric.value((learner.state.counts
                                     + instance_confusion(task, y, pred))
                                    / (learner.state.t + 1))
        assert got == pytest.approx(best_val, abs=1e-10)
        learner.observe(tuple(np.nonzero(rng.random(m) < p)[0].tolist()))


def test_greedy_multiclass_macro():
    learner = make_learner(cfg_for("greedy", multiclass(3), "macro-f1", lam=1e-3))
    pred = learner.step(est(0.1, 0.7, 0.2))
    assert len(pred) == 1
    learner.observe((1,))
    assert learner.state.t == 1


@pytest.mark.parametrize("name", ["f1", "gmean"])
def test_greedy_binary_metric_on_two_classes_maximizes_the_expected_value(name):
    """A binary metric reads the (2, 2) matrix with class 1 positive; greedy's
    class has the larger exact expected value after this instance."""
    metric = parse_metric(name)
    rng = np.random.default_rng(2)
    for lam in (0.0, 1e-3):
        for _ in range(40):
            learner = make_learner(LearnerConfig("greedy", multiclass(2), metric, lam=lam))
            for _ in range(int(rng.integers(1, 15))):
                p1 = rng.random()
                values = []
                for cls in (0, 1):
                    value = 0.0
                    for y, py in ((0, 1.0 - p1), (1, p1)):
                        C = learner.state.counts.copy()
                        C[y, cls] += 1.0
                        value += py * metric.value(C / (learner.state.t + 1))
                    values.append(value)
                dec = learner.step_row(np.array([1.0 - p1, p1]))
                assert dec.sum() == 1
                assert values[int(dec.argmax())] == pytest.approx(max(values), rel=0,
                                                                  abs=1e-12)
                learner.observe_row(np.eye(2)[int(rng.random() < p1)])


# --- frank-wolfe


def test_refit_thresholds_interval():
    gen = refit_thresholds("interval")
    assert [next(gen) for _ in range(4)] == [10, 21, 33, 46]


def test_refit_thresholds_cumulative():
    gen = refit_thresholds("cumulative")
    got = [next(gen) for _ in range(6)]
    assert got[0] == 10
    assert all(b > a for a, b in zip(got, got[1:]))


def test_fw_weights_sum_to_one():
    rng = np.random.default_rng(0)
    estimates = rng.random((50, 4))
    labels = rng.random((50, 4)) < 0.4
    mix = fw_fit(estimates, labels, multilabel(4), parse_metric("macro-hmean"),
                 iterations=25)
    assert mix.weights.sum() == pytest.approx(1.0)
    assert len(mix.tensors) == 25
    # gamma-product coefficients: w_q = gamma_q * prod_{r>q} (1 - gamma_r)
    expect = []
    for q in range(25):
        w = 2.0 / (q + 2.0)
        for r in range(q + 1, 25):
            w *= 1.0 - 2.0 / (r + 2.0)
        expect.append(w)
    assert np.allclose(mix.weights, expect)


def test_fw_linear_metric_single_step_plugin():
    rng = np.random.default_rng(1)
    estimates = rng.random((40, 3))
    mix = fw_fit(estimates, None, multilabel(3), parse_metric("macro-accuracy"),
                 iterations=1)
    assert len(mix.tensors) == 1 and mix.weights[0] == 1.0
    from omma import policy
    coeffs = policy.cost_coefficients(mix.tensors[0])
    g = policy.gains(coeffs, np.array([0.4, 0.6, 0.5]))
    assert policy.decide_multilabel(g) == (1, 2)


def test_fw_self_consistency_doubling():
    model = SynthModel(task=multilabel(4), d=3, prior_low=0.2, prior_high=0.5, seed=9)
    stream = synth_generate(model, 400, seed=10)
    eta = np.vstack([e.dense() for e in stream.estimates])
    metric = parse_metric("macro-hmean")
    m1 = fw_fit(eta, None, multilabel(4), metric, iterations=50)
    m2 = fw_fit(eta, None, multilabel(4), metric, iterations=100)
    assert abs(metric.value(m1.final_cm) - metric.value(m2.final_cm)) <= 1e-3


def test_fw_fit_counts_each_distinct_vertex_once(monkeypatch):
    model = SynthModel(task=multilabel(4), d=3, prior_low=0.2, prior_high=0.5, seed=9)
    eta = synth_generate(model, 300, seed=10).estimate_rows
    decide_gradient = policy.decide_gradient
    decided, counted = [], []

    def spy_decide(G, estimates, budget=None):
        dec = decide_gradient(G, estimates, budget)
        decided.append(np.packbits(dec).tobytes())
        return dec

    def spy_counts(task, ref, dec):
        if dec.shape == eta.shape:  # not the (1, m) trivial start
            counted.append(np.packbits(dec).tobytes())
        return batch_counts(task, ref, dec)

    monkeypatch.setattr(policy, "decide_gradient", spy_decide)
    monkeypatch.setattr(algorithms, "batch_counts", spy_counts)
    fw_fit(eta, None, multilabel(4), parse_metric("macro-hmean"), iterations=100)
    assert len(decided) == 100
    # each distinct decision matrix is counted once, when it first appears
    assert counted == list(dict.fromkeys(decided))
    assert len(counted) < len(decided)


def test_fw_empty_buffer():
    with pytest.raises(ValueError):
        fw_fit(np.zeros((0, 3)), None, multilabel(3), parse_metric("macro-f1"),
               iterations=5)


def test_ofw_prefit_fallback_then_mixture():
    model = SynthModel(task=multilabel(3), d=2, prior_low=0.3, prior_high=0.5, seed=5)
    stream = synth_generate(model, 30, seed=6)
    learner = make_learner(cfg_for("ofw", multilabel(3), "macro-f1", seed=1,
                                   fw_iterations=10))
    for t, (y, eta) in enumerate(stream, start=1):
        learner.step(eta)
        learner.observe(y)
        if t < 10:
            assert learner.mixture is None
        if t >= 10:
            assert learner.mixture is not None


def test_ofw_single_component_deterministic():
    learner = make_learner(cfg_for("ofw", multilabel(2), "macro-accuracy", seed=3,
                                   fw_iterations=1))
    seen = []
    for t in range(25):
        pred = learner.step(est(0.8, 0.2))
        learner.observe((0,))
        if learner.mixture is not None:
            seen.append(pred)
    assert all(p == seen[0] for p in seen)


def test_ofw_same_seed_same_predictions():
    model = SynthModel(task=multilabel(3), d=2, prior_low=0.2, prior_high=0.5, seed=8)
    stream = synth_generate(model, 80, seed=9)

    def run(seed):
        learner = make_learner(cfg_for("ofw", multilabel(3), "macro-hmean", seed=seed,
                                       fw_iterations=15))
        preds = []
        for y, eta in stream:
            preds.append(learner.step(eta))
            learner.observe(y)
        return preds

    assert run(4) == run(4)
    assert run(4) != run(5)  # overwhelmingly likely with 80 sampled components


def test_offline_fw_requires_prefit():
    learner = make_learner(cfg_for("offline-fw", multilabel(2), "macro-f1"))
    with pytest.raises(ProtocolError):
        learner.step(est(0.5, 0.5))


def test_offline_fw_prefit_predicts():
    model = SynthModel(task=multilabel(3), d=2, prior_low=0.2, prior_high=0.5, seed=12)
    stream = synth_generate(model, 100, seed=13)
    learner = make_learner(cfg_for("offline-fw", multilabel(3), "macro-f1",
                                   fw_iterations=20, seed=2))
    learner.prefit(stream.estimate_rows)
    pred = learner.step(stream.estimates[0])
    assert isinstance(pred, tuple)


# --- baselines


def test_topk_baseline():
    learner = make_learner(cfg_for("topk", multilabel(3), "macro-f1@2"))
    assert learner.step(est(0.1, 0.9, 0.5)) == (1, 2)


def test_topk_multiclass_defaults_to_argmax():
    learner = make_learner(cfg_for("topk", multiclass(3), "macro-f1"))
    assert learner.step(est(0.2, 0.5, 0.3)) == (1,)


def test_topk_multilabel_needs_budget():
    with pytest.raises(UnsupportedMetricError):
        make_learner(cfg_for("topk", multilabel(3), "macro-f1"))


def test_threshold_strictly_greater():
    learner = make_learner(cfg_for("thresh05", multilabel(2), "macro-f1"))
    assert learner.step(est(0.5, 0.51)) == (1,)


def test_threshold_multiclass_rejected():
    with pytest.raises(UnsupportedMetricError):
        make_learner(cfg_for("thresh05", multiclass(3), "macro-f1"))


# --- budget structural invariant


@pytest.mark.parametrize("alg", ["omma", "omma-eta", "greedy", "ofw", "topk"])
def test_budget_emits_exactly_k(alg):
    model = SynthModel(task=multilabel(6), d=3, prior_low=0.2, prior_high=0.5, seed=20)
    stream = synth_generate(model, 120, seed=21)
    learner = make_learner(cfg_for(alg, multilabel(6), "macro-f1@2", lam=1e-3,
                                   seed=0, fw_iterations=10))
    for y, eta in stream:
        assert len(learner.step(eta)) == 2
        learner.observe(y)


@pytest.mark.parametrize("alg", ["omma", "omma-eta", "greedy", "ofw", "ofw-eta",
                                 "topk", "thresh05"])
def test_prediction_sequences_deterministic(alg):
    model = SynthModel(task=multilabel(4), d=3, prior_low=0.2, prior_high=0.5, seed=30)
    stream = synth_generate(model, 120, seed=31)
    name = "macro-f1@2" if alg == "topk" else "macro-f1"

    def run():
        learner = make_learner(cfg_for(alg, multilabel(4), name, lam=1e-3, seed=9,
                                       fw_iterations=8))
        preds = []
        for y, eta in stream:
            preds.append(learner.step(eta))
            learner.observe(y)
        return preds

    assert run() == run()


def test_fw_fit_multiclass():
    model = SynthModel(task=multiclass(4), d=3, seed=40)
    stream = synth_generate(model, 300, seed=41)
    metric = parse_metric("mc-gmean")
    mix = fw_fit(stream.estimate_rows, stream.label_rows, multiclass(4), metric,
                 iterations=40)
    assert mix.weights.sum() == pytest.approx(1.0)
    assert mix.final_cm.shape == (4, 4)
    assert metric.value(mix.final_cm) > 0.0


def test_ofw_multiclass_runs():
    model = SynthModel(task=multiclass(3), d=2, seed=42)
    stream = synth_generate(model, 60, seed=43)
    learner = make_learner(cfg_for("ofw", multiclass(3), "mc-hmean", seed=1,
                                   fw_iterations=10))
    for y, eta in stream:
        pred = learner.step(eta)
        assert len(pred) == 1
        learner.observe(y)


def test_omma_sparse_budget():
    learner = make_learner(cfg_for("omma", multilabel(100), "macro-f1@2",
                                   lam=1e-3, sparse_k=5))
    eta = ProbEstimate.from_pairs(100, [(3, 0.9), (17, 0.2), (40, 0.5),
                                        (77, 0.1), (99, 0.8)])
    pred = learner.step(eta)
    assert len(pred) == 2
    assert set(pred) <= {3, 17, 40, 77, 99}


@pytest.mark.parametrize("alg", ["omma", "omma-eta"])
def test_omma_sparse_predicts_listed_zeros_never_unlisted_labels(alg):
    # recall's gain at eta_j = 0 is exactly 0, which the rule predicts; the
    # dense rule would predict all four labels
    learner = make_learner(cfg_for(alg, multilabel(4), "macro-recall", sparse_k=3))
    assert learner.step(ProbEstimate(4, [1, 3], [0.0, 0.4])) == (1, 3)
    learner.observe((3,))
    eta = np.array([0.0, 0.0, 0.0, 0.4])
    support = np.array([False, True, False, True])
    assert learner.step_row(eta, support).tolist() == [False, True, False, True]
    learner.observe_row(np.array([0.0, 0.0, 0.0, 1.0]))
    # with every label listed, the top-k' cut keeps labels 3, 0 and 1
    assert learner.step_row(eta).tolist() == [True, True, False, True]


def test_public_step_and_observe_check_their_arguments():
    learner = make_learner(cfg_for("omma", multilabel(3), "macro-f1"))
    with pytest.raises(ValueError, match="estimate size"):
        learner.step(est(0.5, 0.5))
    learner.step(est(0.5, 0.5, 0.5))
    for bad in [(3,), (1, 0), (1, 1)]:
        with pytest.raises(ValueError, match="bad label set"):
            learner.observe(bad)
    learner.observe((1,))
    assert learner.state.t == 1
