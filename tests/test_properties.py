"""Property tests of the decision kernel, the two accumulation shapes, the
batch-built estimate streams, the run loop's checkpoints and the per-label
coefficients of the multilabel rule."""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omma import evaluation, policy
from omma.algorithms import (ALGORITHMS, LearnerConfig, OfflineFWLearner,
                             UnsupportedMetricError, make_learner)
from omma.confusion import (ProbEstimate, Task, batch_counts, expected_instance_confusion,
                            init_state, instance_confusion)
from omma.dataio import (InstanceStream, SynthModel, _latent_draw, perturb_estimates,
                         read_estimates, shuffle, sparsify_estimates, synth_generate)
from omma.metrics import (BINARY, EPSILON_FLOOR, MACRO, MULTICLASS_NATIVE, list_metrics,
                          parse_metric)

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
    batch = ProbEstimate.from_rows(M)
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
    with pytest.raises(ValueError):
        ProbEstimate.from_rows(M[0])  # a 1-d row is not a matrix
    i = data.draw(st.integers(0, M.shape[0] - 1))
    j = data.draw(st.integers(0, M.shape[1] - 1))
    M[i, j] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ProbEstimate.from_rows(M)
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
    assert stream.estimates == stream.truth
    for got, row in zip(stream.truth, eta):
        assert_same_estimate(got, ProbEstimate.from_dense(row))


@settings(max_examples=50, deadline=None)
@given(synth_models(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_optimum_conditionals_equal_the_stream_truth(model, n, seed):
    eta, _ = _latent_draw(model, n, seed)
    truth = np.vstack([t.dense() for t in synth_generate(model, n, seed=seed).truth])
    assert eta.tobytes() == truth.tobytes()


@settings(max_examples=50, deadline=None)
@given(synth_models(), st.integers(0, 30), st.sampled_from([0.0, 0.05, 0.3]),
       st.integers(0, 2**32 - 1))
def test_perturbation_equals_row_by_row_noise(model, n, sigma, seed):
    stream = synth_generate(model, n, seed=seed)
    noisy, err = perturb_estimates(stream, sigma, seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x5E11])))
    total_err = 0.0
    for got, true in zip(noisy.estimates, stream.truth):
        dense = true.dense()
        row = np.clip(dense + rng.normal(0.0, sigma, size=model.task.m), 0.0, 1.0)
        if model.task.is_multiclass and row.sum() > 0:
            row = row / row.sum()
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
        assert_same_estimate(est, ProbEstimate.from_pairs(m, list(pairs.items())))


# --- the run loop's checkpoints against a per-step evaluation accumulator


def reference_checkpoints(stream, cfg, stride):
    """The online protocol with its own ``ConfusionState`` updated at every step."""
    learner = make_learner(cfg)
    if isinstance(learner, OfflineFWLearner):
        learner.prefit(stream.estimates)
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
    cfg = LearnerConfig(algorithm=draw(st.sampled_from(algorithms)), task=task,
                        metric=parse_metric(name), lam=draw(st.sampled_from([0.0, 1e-3])),
                        seed=draw(st.integers(0, 99)), fw_iterations=3)
    try:
        make_learner(cfg)
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
    prefix = InstanceStream(stream.task, stream.labels[:k], stream.estimates[:k])
    got = evaluation.run_online(prefix, cfg, stride).checkpoints
    assert exact(got) == exact([(t, psi) for t, psi in full[:k]
                                if t % (stride or k) == 0 or t == k])


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


def listed_estimates(draw, stream):
    """ProbEstimates of the stream's rows on random supports; about a third of
    the listed labels have probability exactly 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = stream.estimate_rows.shape
    listed = rng.random((n, m)) < 0.6
    rows = np.where(rng.random((n, m)) < 0.3, 0.0, stream.estimate_rows)
    return [ProbEstimate(m, np.flatnonzero(mask), row[mask]) for mask, row in zip(listed, rows)]


@st.composite
def column_streams(draw, max_n=30):
    """A synthetic stream, or the same instances rebuilt from label tuples and
    sparse ProbEstimates that list zero-probability labels."""
    kind = draw(KINDS)
    m = draw(st.integers(2 if kind == "multiclass" else 1, 6))
    task = Task(kind, m)
    stream = synth_generate(SynthModel(task=task, seed=draw(st.integers(0, 99))),
                            draw(st.integers(0, max_n)), seed=draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        stream = InstanceStream(task, stream.labels, listed_estimates(draw, stream),
                                truth=stream.truth)
    return stream


def assert_same_stream(got, labels, estimates, truth):
    assert got.labels == labels
    assert len(got.estimates) == len(estimates)
    for a, b in zip(got.estimates, estimates):
        assert_same_estimate(a, b)
    assert (got.truth is None) == (truth is None)
    for a, b in zip(got.truth or [], truth or []):
        assert np.array_equal(a.dense(), b.dense())


@settings(max_examples=100, deadline=None)
@given(column_streams(), st.integers(0, 2**32 - 1))
def test_shuffle_equals_a_row_permutation(stream, seed):
    perm = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, 0x5F1E]))).permutation(len(stream))
    truth = stream.truth
    assert_same_stream(shuffle(stream, seed), [stream.labels[i] for i in perm],
                       [stream.estimates[i] for i in perm],
                       None if truth is None else [truth[i] for i in perm])


@settings(max_examples=100, deadline=None)
@given(column_streams(), st.integers(0, 7))
def test_sparsify_equals_row_top_k(stream, k):
    got = sparsify_estimates(stream, k)
    assert_same_stream(got, stream.labels, [est.top(k) for est in stream.estimates],
                       stream.truth)
    assert got.label_rows is stream.label_rows


def per_instance_reference(labels, estimates, cfg, marks):
    """The online protocol through the public step/observe on label tuples and
    ProbEstimates, scored by its own ConfusionState at every mark."""
    learner = make_learner(cfg)
    if isinstance(learner, OfflineFWLearner):
        learner.prefit(estimates)
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
    rebuilt from tuples and estimates, dense or on sparse supports; a third
    of the streams are longer than the run loop's decision buffer."""
    kind = draw(KINDS)
    m = draw(st.integers(2, 5))
    task = Task(kind, m)
    n = draw(st.integers(1, 40) | st.integers(1, 40) |
             st.integers(evaluation._FLUSH + 1, evaluation._FLUSH + 150))
    base = synth_generate(SynthModel(task=task, seed=draw(st.integers(0, 99))), n,
                          seed=draw(st.integers(0, 2**32 - 1)))
    sparse = draw(st.booleans())
    estimates = listed_estimates(draw, base) if sparse else base.estimates
    stream = (InstanceStream(task, base.labels, estimates) if sparse or draw(st.booleans())
              else base)
    budget = draw(st.none() | st.integers(1, m))
    # the top-k' path is drawn more often; under macro-recall an unlisted label
    # has gain exactly 0, which the dense rule would predict
    algorithm = draw(st.sampled_from(ALGORITHMS) | st.sampled_from(["omma", "omma-eta"]))
    sparse_k = None
    if algorithm in ("omma", "omma-eta") and kind == "multilabel":
        sparse_k = draw(st.none() | st.integers(1, m))
    bases = BASES[kind] + (["macro-recall"] if kind == "multilabel" else [])
    name = draw(st.sampled_from(bases)) + (f"@{budget}" if budget else "")
    cfg = LearnerConfig(algorithm=algorithm, task=task, metric=parse_metric(name),
                        lam=draw(st.sampled_from([0.0, 1e-3])), seed=draw(st.integers(0, 99)),
                        sparse_k=sparse_k, fw_iterations=3)
    try:
        make_learner(cfg)
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
    for got, want in zip(short.truth, full.truth[:k]):
        assert_same_estimate(got, want)


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


def same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


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
    for coeffs in (metric.coefficients(C, C.shape[0]), policy.cost_coefficients(G)):
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
    dense = metric.coefficients(C, m)
    sparse = metric.coefficients(C[support], m)
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
    dense = metric.coefficients(state.normalized(), m)
    sparse = metric.coefficients(state.normalized_blocks(est.indices), m)
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
    shape = {MULTICLASS_NATIVE: (m, m), BINARY: (1, 2, 2)}.get(info.averaging, (m, 2, 2))
    rng = np.random.default_rng(seed)
    # some entries exactly zero, the rest uniform at the drawn scale
    C = rng.random(shape) * (rng.random(shape) < 0.7) * scale
    with np.errstate(**evaluation.FP_ERRORS):
        assert np.isfinite(metric.value(C))
        assert np.all(np.isfinite(metric.gradient(C)))
        if info.averaging != MULTICLASS_NATIVE:
            alpha, beta = metric.coefficients(C, shape[0])
            assert np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))
