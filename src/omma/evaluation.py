"""Online protocol runner, optimal-utility estimation, regret measurement.

Running utilities are always reported on the unregularized empirical confusion
matrix (a parallel accumulator with zero regularizer), whatever the algorithm
uses internally.  Regret is measured against the population-optimal utility,
which upper-bounds any achievable expected empirical utility for concave
metrics, so the reported regret is a conservative over-estimate.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .algorithms import LearnerConfig, OfflineFWLearner, fw_fit, make_learner
from .confusion import Labels, ProbEstimate, Task, init_state, multilabel
from .dataio import InstanceStream, SynthModel, _latent_draw, synth_generate
from .metrics import BINARY, MACRO, Metric, min_tn_tp


@dataclass
class RunTrace:
    """Per-checkpoint running utility of one online run."""

    checkpoints: list[tuple[int, float]]
    final_psi: float
    n: int


@dataclass
class RunReport:
    """Aggregate of seeded runs; serialized with a fixed, sorted key set."""

    metric: str
    algorithm: str
    averaging: str
    budget_k: int | None
    lam: float
    epsilon: float
    seed: int
    n: int
    runs: int
    psi_final_mean: float
    psi_final_std: float
    psi_star: float | None = None
    regret_hat: float | None = None

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["lambda"] = payload.pop("lam")
        return json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"


def _steps(cfg: LearnerConfig, labels: list[Labels], estimates: list[ProbEstimate]):
    """The online protocol: yield (t, y, prediction) for every instance in turn.

    ``offline-fw`` is first fitted on the whole estimate sequence.
    """
    learner = make_learner(cfg)
    if isinstance(learner, OfflineFWLearner):
        learner.prefit(estimates)
    for t, (y, eta) in enumerate(zip(labels, estimates), start=1):
        pred = learner.step(eta)
        learner.observe(y)
        yield t, y, pred


def run_online(stream: InstanceStream, cfg: LearnerConfig,
               checkpoint_stride: int | None = None) -> RunTrace:
    """Drive step/observe over the stream and record the running utility."""
    if len(stream) == 0:
        raise ValueError("empty stream")
    if checkpoint_stride is not None and checkpoint_stride < 1:
        raise ValueError("checkpoint stride must be at least 1")
    metric = cfg.metric
    eval_state = init_state(stream.task, 0.0)
    stride = checkpoint_stride or len(stream)
    checkpoints: list[tuple[int, float]] = []
    for t, y, pred in _steps(cfg, stream.labels, stream.estimates):
        eval_state.update(y, pred)
        if t % stride == 0 or t == len(stream):
            checkpoints.append((t, metric.value(eval_state.normalized())))
    return RunTrace(checkpoints, checkpoints[-1][1], len(stream))


# --- optimal-utility estimation

_GRID_POINTS = 1000


def _grid_optimal(metric: Metric, eta: np.ndarray) -> float:
    """Best per-label threshold rule on the exact conditionals.

    Only valid for label-decomposable (macro/binary) metrics: each label's
    expected confusion under threshold theta is evaluated on a shared
    threshold grid and maximized independently.
    """
    if metric.averaging not in (MACRO, BINARY):
        raise ValueError("threshold-grid estimation needs a macro/binary metric")
    n, m = eta.shape
    # resolution 1/_GRID_POINTS with both endpoints and 0.5 on the grid
    thetas = np.linspace(0.0, 1.0, _GRID_POINTS + 1)
    best = np.empty(m)
    for j in range(m):
        p = np.sort(eta[:, j])
        cum_p = np.concatenate(([0.0], np.cumsum(p)))
        total_p = cum_p[-1]
        # instances with eta >= theta are predicted positive
        first = np.searchsorted(p, thetas, side="left")
        tp = (total_p - cum_p[first]) / n
        pos = (n - first) / n
        fp = pos - tp
        fn = total_p / n - tp
        tn = 1.0 - pos - fn
        blocks = np.empty((_GRID_POINTS + 1, 2, 2))
        blocks[:, 0, 0] = tn
        blocks[:, 0, 1] = fp
        blocks[:, 1, 0] = fn
        blocks[:, 1, 1] = tp
        best[j] = float(np.max(metric.block_values(blocks)))
    return float(np.mean(best))


def _fw_optimal(metric: Metric, task: Task, eta: np.ndarray, iterations: int) -> float:
    mix = fw_fit(eta, None, task, metric, iterations, use_labels=False)
    return float(metric.value(mix.final_cm))


def estimate_optimal(metric: Metric, model: SynthModel, method: str = "both",
                     n_opt: int = 200_000, seed: int = 0,
                     fw_iterations: int = 200) -> float:
    """Approximate the best achievable population utility of the model.

    ``threshold-grid`` scans per-label thresholds on the exact conditionals;
    ``fw`` runs the batch linearization fit on an oracle sample.  With
    ``both`` the larger of the two estimates wins.  Both read only the (n_opt,
    m) conditionals matrix of ``synth_generate(model, n_opt, seed)``; no
    labels are drawn.
    """
    if method not in ("fw", "threshold-grid", "both"):
        raise ValueError(f"unknown estimation method: {method!r}")
    if n_opt < 1:
        raise ValueError("the optimum needs a sample of n_opt >= 1 instances")
    eta, _ = _latent_draw(model, n_opt, seed)
    values = []
    if method in ("threshold-grid", "both") and metric.averaging in (MACRO, BINARY) \
            and metric.budget_k is None and not model.task.is_multiclass:
        values.append(_grid_optimal(metric, eta))
    if method in ("fw", "both"):
        values.append(_fw_optimal(metric, model.task, eta, fw_iterations))
    if not values:
        raise ValueError("no applicable estimator for this metric/task")
    return max(values)


# --- regret measurement


@dataclass
class RegretReport:
    metric: str
    algorithm: str
    n: int
    runs: int
    psi_star: float
    psi_final_mean: float
    psi_final_std: float
    regret_hat: float
    trend_ratio: float  # regret_hat * n / ln n, for inspecting the decay law

    def standard_error(self) -> float:
        return self.psi_final_std / math.sqrt(max(self.runs, 1))


def measure_regret(metric: Metric, model: SynthModel, algorithm: str,
                   n_grid: list[int], runs: int, lam: float = 0.0,
                   base_seed: int = 0,
                   psi_star: float | None = None) -> list[RegretReport]:
    """Empirical regret of an algorithm across sequence lengths.

    Streams carry exact conditionals (the estimation-error term vanishes), so
    the measured gap isolates the optimization part of the regret.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    if any(n < 1 for n in n_grid):
        raise ValueError("every sequence length must be at least 1")
    if psi_star is None:
        psi_star = estimate_optimal(metric, model, seed=base_seed)
    reports = []
    for n in n_grid:
        finals = []
        for r in range(runs):
            # seeds depend on the run index only, so runs at different n share
            # stream prefixes and their utilities pair up across the grid
            stream_seed = int(np.random.SeedSequence([base_seed, r]).generate_state(1)[0])
            stream = synth_generate(model, n, seed=stream_seed)
            cfg = LearnerConfig(algorithm=algorithm, task=model.task, metric=metric,
                                lam=lam, seed=stream_seed)
            finals.append(run_online(stream, cfg).final_psi)
        finals = np.asarray(finals)
        mean = float(finals.mean())
        std = float(finals.std(ddof=1)) if runs > 1 else 0.0
        regret = psi_star - mean
        reports.append(RegretReport(metric.name, algorithm, n, runs, psi_star,
                                    mean, std, regret,
                                    regret * n / math.log(n) if n > 1 else float("nan")))
    return reports


# --- adversarial lower-bound scenario


@dataclass
class AdversarialReport:
    """Worst-case regret of an algorithm on the two-phase conditional sequences.

    Both sequences share a first half with conditional probability 2/3; the
    second half either stays at 2/3 (sequence 1) or drops to 1/3 (sequence 2).
    The utility is min(tn, tp) and the optimal-value lower bounds are
    2/9 - 1/(2 sqrt(n)) and 1/3 - 1/(2 sqrt(n)).  Because the comparator is a
    lower bound on the optimum, the reported regret is itself a lower bound on
    the true regret.
    """

    n: int
    runs: int
    algorithm: str
    psi_mean: tuple[float, float]
    psi_std: tuple[float, float]
    opt_bound: tuple[float, float]
    regret: tuple[float, float]
    max_regret: float
    # mean empirical tp mass vs its prediction-weighted expectation, per sequence
    c11_gap: tuple[float, float] = (0.0, 0.0)
    c11_sigma: tuple[float, float] = (0.0, 0.0)


def adversarial_sequences(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n < 1 or n % 6 != 0:
        raise ValueError("sequence length must be positive and divisible by 6")
    half = n // 2
    seq1 = np.full(n, 2.0 / 3.0)
    seq2 = np.concatenate([np.full(half, 2.0 / 3.0), np.full(half, 1.0 / 3.0)])
    return seq1, seq2


def opt_bounds(n: int) -> tuple[float, float]:
    slack = 1.0 / (2.0 * math.sqrt(n))
    return 2.0 / 9.0 - slack, 1.0 / 3.0 - slack


def adversarial_run(algorithm: str, n: int, runs: int, seed: int = 0,
                    lam: float = 0.0) -> AdversarialReport:
    """Run the algorithm on both sequences with exact conditionals."""
    if runs < 1:
        raise ValueError("need at least one run")
    seqs = adversarial_sequences(n)
    task = multilabel(1)
    metric = min_tn_tp()
    bounds = opt_bounds(n)
    means, stds, gaps, sigmas = [], [], [], []
    for s, eta_seq in enumerate(seqs):
        estimates = ProbEstimate.from_rows(eta_seq[:, None])
        psis = []
        pred_mass = []
        var_mass = []
        for r in range(runs):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([seed, s, r, 0xADE])))
            labels = [(0,) if yt else () for yt in rng.random(n) < eta_seq]
            cfg = LearnerConfig(algorithm=algorithm, task=task, metric=metric,
                                lam=lam, seed=seed + r)
            tp = tn = 0
            swe = 0.0   # sum of eta over positively-predicted steps
            svar = 0.0  # its binomial variance
            for t, y, pred in _steps(cfg, labels, estimates):
                if pred:
                    p = eta_seq[t - 1]
                    swe += p
                    svar += p * (1.0 - p)
                    tp += len(y)
                else:
                    tn += 1 - len(y)
            psis.append(min(tp, tn) / n)
            pred_mass.append((tp / n, swe / n))
            var_mass.append(svar / n**2)
        psis = np.asarray(psis)
        means.append(float(psis.mean()))
        stds.append(float(psis.std(ddof=1)) if runs > 1 else 0.0)
        emp = np.mean([p[0] for p in pred_mass])
        exp = np.mean([p[1] for p in pred_mass])
        gaps.append(float(emp - exp))
        sigmas.append(float(math.sqrt(np.mean(var_mass) / runs)))
    regrets = (bounds[0] - means[0], bounds[1] - means[1])
    return AdversarialReport(
        n=n, runs=runs, algorithm=algorithm,
        psi_mean=(means[0], means[1]), psi_std=(stds[0], stds[1]),
        opt_bound=bounds, regret=regrets, max_regret=max(regrets),
        c11_gap=(gaps[0], gaps[1]), c11_sigma=(sigmas[0], sigmas[1]))


# --- serialization


def emit_trace(trace: RunTrace, path) -> None:
    """CSV with header ``t,psi``, LF endings, 10 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,psi\n")
        for t, psi in trace.checkpoints:
            fh.write(f"{t},{psi:.10g}\n")


def emit_report(report: RunReport, path) -> None:
    text = report.to_json()  # raises on NaN before the file is created
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
