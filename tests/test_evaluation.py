import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omma import evaluation
from omma.algorithms import (ALGORITHMS, LearnerConfig, OfflineFWLearner,
                             UnsupportedMetricError, fw_fit, make_learner)
from omma.confusion import ProbEstimate, init_state, multiclass, multilabel
from omma.dataio import InstanceStream, SynthModel, synth_generate
from omma.evaluation import (RunReport, adversarial_run, adversarial_sequences,
                             emit_report, emit_trace, estimate_optimal,
                             measure_regret, opt_bounds, run_online)
from omma.metrics import min_tn_tp, parse_metric


def _stream(m=3, n=60, seed=1, **kw):
    model = SynthModel(task=multilabel(m), seed=seed, **kw)
    return synth_generate(model, n, seed=seed + 1)


def test_run_online_constant_prediction_closed_form():
    stream = _stream(m=2, n=40)
    metric = parse_metric("macro-accuracy@2")
    trace = run_online(stream, LearnerConfig("topk", stream.task, metric))
    # topk with k=2 on m=2 always predicts both labels
    state = init_state(stream.task, 0.0)
    for y, _ in stream:
        state.update(y, (0, 1))
    assert trace.final_psi == pytest.approx(metric.value(state.normalized()))


def test_run_online_checkpoint_stride():
    stream = _stream(n=50)
    metric = parse_metric("macro-f1")
    trace = run_online(stream, LearnerConfig("omma", stream.task, metric), 50)
    assert [t for t, _ in trace.checkpoints] == [50]
    trace = run_online(stream, LearnerConfig("omma", stream.task, metric), 20)
    assert [t for t, _ in trace.checkpoints] == [20, 40, 50]


def test_run_online_perfect_oracle_threshold():
    model = SynthModel(task=multilabel(3), d=0, prior_low=0.2, prior_high=0.4, seed=2)
    stream = synth_generate(model, 50, seed=3)
    # degenerate estimates equal to the labels themselves
    from omma.confusion import ProbEstimate
    exact = []
    for y in stream.labels:
        dense = np.zeros(3)
        dense[list(y)] = 1.0
        exact.append(ProbEstimate.from_dense(dense))
    stream = InstanceStream(stream.task, stream.labels, exact)
    metric = parse_metric("macro-accuracy")
    trace = run_online(stream, LearnerConfig("thresh05", stream.task, metric))
    assert trace.final_psi == pytest.approx(1.0)


def test_reported_utility_ignores_internal_lambda():
    stream = _stream(n=80)
    metric = parse_metric("macro-f1")
    trace = run_online(stream, LearnerConfig("omma", stream.task, metric, lam=1.0))
    # replay the same predictions and evaluate on the raw empirical counts
    from omma.algorithms import make_learner
    learner = make_learner(LearnerConfig("omma", stream.task, metric, lam=1.0))
    state = init_state(stream.task, 0.0)
    for y, eta in stream:
        pred = learner.step(eta)
        learner.observe(y)
        state.update(y, pred)
    assert trace.final_psi == pytest.approx(metric.value(state.normalized()), abs=1e-15)
    # and differs from the value on the regularized internal state at this n
    assert trace.final_psi != pytest.approx(metric.value(learner.state.normalized()))


def test_estimate_optimal_accuracy_is_half_threshold():
    model = SynthModel(task=multilabel(3), d=4, prior_low=0.2, prior_high=0.5,
                       weight_scale=1.0, seed=6)
    metric = parse_metric("macro-accuracy")
    stream = synth_generate(model, 50_000, seed=7)
    eta = np.vstack([t.dense() for t in stream.truth])
    half = np.mean(np.where(eta >= 0.5, eta, 1.0 - eta))
    got = estimate_optimal(metric, model, method="threshold-grid", n_opt=50_000, seed=7)
    assert got == pytest.approx(half, abs=1e-9)


def test_estimate_optimal_fw_grid_agree():
    model = SynthModel(task=multilabel(3), d=4, prior_low=0.15, prior_high=0.45,
                       weight_scale=1.0, seed=8)
    metric = parse_metric("macro-hmean")
    grid = estimate_optimal(metric, model, method="threshold-grid", n_opt=150_000, seed=9)
    fw = estimate_optimal(metric, model, method="fw", n_opt=20_000, seed=9)
    assert abs(grid - fw) <= 0.005


def test_estimate_optimal_seed_stability():
    model = SynthModel(task=multilabel(3), d=4, prior_low=0.2, prior_high=0.5,
                       weight_scale=1.0, seed=10)
    metric = parse_metric("macro-hmean")
    a = estimate_optimal(metric, model, method="threshold-grid", n_opt=100_000, seed=1)
    b = estimate_optimal(metric, model, method="threshold-grid", n_opt=100_000, seed=2)
    assert abs(a - b) <= 0.003


def test_estimate_optimal_rejects_a_native_metric_on_a_multilabel_model():
    model = SynthModel(task=multilabel(3), seed=1)
    with pytest.raises(ValueError, match="^mc-hmean needs a multiclass stream$"):
        estimate_optimal(parse_metric("mc-hmean"), model, n_opt=10)


def test_estimate_optimal_rejects_an_inapplicable_method_before_drawing(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("the sample was drawn")

    monkeypatch.setattr(evaluation, "_latent_draw", no_draw)
    model = SynthModel(task=multilabel(3), seed=1)
    with pytest.raises(ValueError, match="^no applicable estimator for this metric/task$"):
        estimate_optimal(parse_metric("macro-f1@2"), model, method="threshold-grid")


@pytest.mark.parametrize("task", [multilabel(3), multiclass(3)])
def test_a_budget_above_m_is_rejected_before_drawing(monkeypatch, task):
    def no_draw(*args, **kwargs):
        raise AssertionError("the sample was drawn")

    monkeypatch.setattr(evaluation, "_latent_draw", no_draw)
    metric = parse_metric("macro-f1@4")
    with pytest.raises(ValueError, match="^budget 4 exceeds the 3 labels$"):
        estimate_optimal(metric, SynthModel(task=task, seed=1))
    with pytest.raises(ValueError, match="^budget 4 exceeds the 3 labels$"):
        fw_fit(np.full((4, 3), 1.0 / 3.0), None, task, metric, 5)
    with pytest.raises(ValueError, match="^budget 4 exceeds the 3 labels$"):
        LearnerConfig("omma", task, metric)


def test_measure_regret_linear_metric_near_zero():
    model = SynthModel(task=multilabel(4), d=3, prior_low=0.2, prior_high=0.5,
                       weight_scale=1.0, seed=11)
    metric = parse_metric("macro-accuracy")
    reports = measure_regret(metric, model, "omma", [500], runs=6, lam=1e-3, base_seed=3)
    # the plug-in rule is optimal from the start; only sampling noise remains
    assert abs(reports[0].regret_hat) <= 3 * reports[0].psi_final_std / math.sqrt(6) + 3e-3


def test_adversarial_sequences_shape():
    s1, s2 = adversarial_sequences(12)
    assert np.all(s1 == 2 / 3)
    assert np.all(s2[:6] == 2 / 3) and np.all(s2[6:] == 1 / 3)
    with pytest.raises(ValueError):
        adversarial_sequences(10)


def test_opt_bounds_values():
    b1, b2 = opt_bounds(32400)
    assert b1 == pytest.approx(2 / 9 - 1 / 360)
    assert b2 == pytest.approx(1 / 3 - 1 / 360)
    assert b1 == pytest.approx(0.21944, abs=1e-5)
    assert b2 == pytest.approx(0.33056, abs=1e-5)


def _accepts_the_scenario(algorithm):
    try:
        make_learner(LearnerConfig(algorithm, multilabel(1), min_tn_tp()))
    except UnsupportedMetricError:
        return False
    return True


ADVERSARIAL_ALGORITHMS = [a for a in ALGORITHMS if _accepts_the_scenario(a)]


def adversarial_steps(algorithm, n, runs, seed=0, lam=0.0):
    """The scenario's protocol by hand: for each sequence, for each run, the
    (eta, y, prediction) of every step."""
    task = multilabel(1)
    out = []
    for s, eta_seq in enumerate(adversarial_sequences(n)):
        rows = eta_seq[:, None]
        estimates = [ProbEstimate.from_dense(row) for row in rows]
        per_run = []
        for r in range(runs):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([seed, s, r, 0xADE])))
            labels = [(0,) if yt else () for yt in rng.random(n) < eta_seq]
            learner = make_learner(LearnerConfig(algorithm, task, min_tn_tp(), lam=lam,
                                                 seed=seed + r))
            if isinstance(learner, OfflineFWLearner):
                learner.use_columns(rows, None)  # offline-fw reads no labels
            steps = []
            for p, y, eta in zip(eta_seq, labels, estimates):
                pred = learner.step(eta)
                learner.observe(y)
                steps.append((p, y, pred))
            per_run.append(steps)
        out.append(per_run)
    return out


def reference_psis(per_run, n):
    """min(tp, tn) / n of each run."""
    psis = []
    for steps in per_run:
        tp = sum(len(y) for _, y, pred in steps if pred)
        tn = sum(1 - len(y) for _, y, pred in steps if not pred)
        psis.append(min(tp, tn) / n)
    return np.asarray(psis)


def test_adversarial_run_deterministic_and_consistent():
    n, runs = 600, 3
    rep1 = adversarial_run("omma", n, runs=runs, seed=4)
    rep2 = adversarial_run("omma", n, runs=runs, seed=4)
    assert rep1.psi_mean == rep2.psi_mean
    assert rep1.max_regret == max(rep1.regret)
    for per_run, psi_mean in zip(adversarial_steps("omma", n, runs, seed=4), rep1.psi_mean):
        assert float(reference_psis(per_run, n).mean()).hex() == psi_mean.hex()
        # empirical tp mass tracks its prediction-weighted expectation
        emp, exp, var = [], [], []
        for steps in per_run:
            emp.append(sum(len(y) for _, y, pred in steps if pred) / n)
            exp.append(sum(p for p, _, pred in steps if pred) / n)
            var.append(sum(p * (1.0 - p) for p, _, pred in steps if pred) / n**2)
        gap = float(np.mean(emp) - np.mean(exp))
        sigma = math.sqrt(np.mean(var) / runs)
        assert abs(gap) <= 3 * sigma + 1e-9


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ADVERSARIAL_ALGORITHMS), st.integers(1, 10), st.integers(1, 3),
       st.integers(0, 99), st.sampled_from([0.0, 1e-3]))
def test_adversarial_run_equals_a_per_run_reference(algorithm, k, runs, seed, lam):
    n = 6 * k
    got = adversarial_run(algorithm, n, runs, seed=seed, lam=lam)
    stats = []
    for per_run in adversarial_steps(algorithm, n, runs, seed=seed, lam=lam):
        psis = reference_psis(per_run, n)
        stats.append((float(psis.mean()), float(psis.std(ddof=1)) if runs > 1 else 0.0))
    bounds = opt_bounds(n)
    regret = [b - mean for b, (mean, _) in zip(bounds, stats)]
    assert [x.hex() for x in got.psi_mean] == [mean.hex() for mean, _ in stats]
    assert [x.hex() for x in got.psi_std] == [std.hex() for _, std in stats]
    assert [x.hex() for x in got.regret] == [x.hex() for x in regret]
    assert got.max_regret.hex() == max(regret).hex()


@pytest.mark.parametrize("lam", [1e-3, 0.5])
@pytest.mark.parametrize("algorithm", ["omma", "omma-eta", "greedy"])
def test_adversarial_lambda_changes_no_output(algorithm, lam):
    """lam is added to tn and tp alike, so min(tn, tp) decides as at lam 0."""
    base = adversarial_run(algorithm, 120, 2, seed=3)
    got = adversarial_run(algorithm, 120, 2, seed=3, lam=lam)
    for key in ("psi_mean", "psi_std", "regret"):
        assert [x.hex() for x in getattr(got, key)] == [x.hex() for x in getattr(base, key)]
    assert got.max_regret.hex() == base.max_regret.hex()


def test_emit_trace_format(tmp_path):
    stream = _stream(n=30)
    metric = parse_metric("macro-f1")
    trace = run_online(stream, LearnerConfig("omma", stream.task, metric), 10)
    path = tmp_path / "trace.csv"
    emit_trace(trace, path)
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "t,psi"
    assert len(lines) == 2 + len(trace.checkpoints)  # header + rows + trailing LF
    emit_trace(trace, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_run_online_empty_stream():
    stream = InstanceStream(multilabel(2), [], [])
    with pytest.raises(ValueError):
        run_online(stream, LearnerConfig("omma", stream.task, parse_metric("macro-f1")))


@pytest.mark.parametrize("task", [multiclass(3), multilabel(5)])
def test_run_online_rejects_a_config_for_another_task(task):
    """A learner configured for one task is never stepped on another task's
    rows: the run stops before any step, naming both tasks."""
    stream = synth_generate(SynthModel(multilabel(3), seed=1), 50, seed=2)
    cfg = LearnerConfig("omma", task, parse_metric("macro-f1"))
    with pytest.raises(ValueError, match=re.escape(
            f"the learner's task {task} is not the stream's {stream.task}")):
        run_online(stream, cfg)


def test_run_online_raises_floating_point_errors():
    """Epsilon 0 divides 0 by 0 at the first checkpoint; the run raises instead
    of warning and scoring NaN, and leaves the caller's error state alone."""
    stream = _stream(m=3, n=30)
    cfg = LearnerConfig("omma", stream.task, parse_metric("macro-precision", epsilon=0.0))
    before = np.geterr()
    with pytest.raises(FloatingPointError):
        run_online(stream, cfg, 10)
    assert np.geterr() == before


def test_estimate_optimal_raises_floating_point_errors():
    """The optimum divides as a run does: epsilon 0 raises instead of scoring
    NaN, and the caller's error state is left alone."""
    metric = parse_metric("macro-precision", epsilon=0.0)
    model = SynthModel(task=multilabel(3), seed=1)
    before = np.geterr()
    with pytest.raises(FloatingPointError):
        estimate_optimal(metric, model, n_opt=50, fw_iterations=5)
    assert np.geterr() == before


def test_runs_step_under_raising_floating_point_errors(monkeypatch):
    seen = []

    def learner(cfg):
        seen.append(np.geterr())
        return original(cfg)

    original = evaluation.make_learner
    monkeypatch.setattr(evaluation, "make_learner", learner)
    stream = _stream(m=2, n=12)
    run_online(stream, LearnerConfig("omma", stream.task, parse_metric("macro-f1")))
    adversarial_run("omma", 6, 1)
    raising = {key: "raise" for key in ("divide", "over", "invalid")}
    assert len(seen) == 3
    assert all(state.items() >= raising.items() for state in seen)


def test_run_online_offline_fw_prefits():
    stream = _stream(n=60)
    metric = parse_metric("macro-f1")
    trace = run_online(stream, LearnerConfig("offline-fw", stream.task, metric,
                                             seed=3, fw_iterations=10))
    assert 0.0 <= trace.final_psi <= 1.0


def test_emit_report_keys_sorted(tmp_path):
    report = RunReport(metric="macro-f1", algorithm="omma", averaging="macro",
                       budget_k=None, lam=0.001, epsilon=1e-9, seed=7, n=100,
                       runs=5, psi_final_mean=0.5, psi_final_std=0.01)
    path = tmp_path / "report.json"
    emit_report(report, path)
    raw = path.read_text()
    assert raw.endswith("\n")
    data = json.loads(raw)
    assert list(data.keys()) == sorted(data.keys())
    assert set(data.keys()) == {"metric", "algorithm", "averaging", "budget_k",
                                "lambda", "epsilon", "seed", "n", "runs",
                                "psi_final_mean", "psi_final_std", "psi_star",
                                "regret_hat"}
    emit_report(report, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_report_with_nan_is_not_serialized(tmp_path):
    report = RunReport(metric="macro-f1", algorithm="omma", averaging="macro",
                       budget_k=None, lam=0.0, epsilon=1e-9, seed=0, n=10,
                       runs=1, psi_final_mean=float("nan"), psi_final_std=0.0)
    with pytest.raises(ValueError):
        report.to_json()
    with pytest.raises(ValueError):
        emit_report(report, tmp_path / "report.json")
    assert not (tmp_path / "report.json").exists()


def test_run_online_checkpoint_set_equals_stride():
    stream = _stream(n=30)
    cfg = LearnerConfig("omma", stream.task, parse_metric("macro-f1"))
    by_stride = run_online(stream, cfg, 7)
    assert [t for t, _ in by_stride.checkpoints] == [7, 14, 21, 28, 30]
    # any order, repeats allowed; the last instance is added
    assert run_online(stream, cfg, [28, 7, 21, 14, 7]) == by_stride
    assert run_online(stream, cfg, (30,)) == run_online(stream, cfg)
    for bad in ([0], [31], [5, -1]):
        with pytest.raises(ValueError, match=r"checkpoints must lie in 1\.\.30"):
            run_online(stream, cfg, bad)


@pytest.mark.parametrize("alg", ["omma", "ofw", "offline-fw"])
def test_measure_regret_runs_each_run_index_once(monkeypatch, alg):
    calls = []

    def counted(stream, cfg, checkpoints=None):
        trace = run_online(stream, cfg, checkpoints)
        calls.append(trace.n)
        return trace

    monkeypatch.setattr(evaluation, "run_online", counted)
    grid = [40, 10, 40, 25]
    reports = measure_regret(parse_metric("macro-f1"), SynthModel(task=multilabel(3), seed=5),
                             alg, grid, runs=3, psi_star=0.5)
    assert [r.n for r in reports] == grid
    if alg == "offline-fw":
        # fitted on the whole sequence, so every distinct length is its own run
        assert sorted(calls) == sorted([10, 25, 40] * 3)
    else:
        assert calls == [40] * 3
