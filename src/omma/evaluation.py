"""Online protocol runner, optimal-utility estimation, regret measurement.

Running utilities are always reported on the unregularized empirical confusion
matrix, whatever the algorithm uses internally.  The run loop keeps the
predictions; at every checkpoint it adds the exact batch count of the
instances since the previous count (``confusion.batch_counts``) to its totals.
Checkpoints are a stride or any set of t values, so one run of a causal
learner scores every length of a regret grid.  Regret is measured against the
population-optimal utility, which upper-bounds any achievable expected
empirical utility for concave metrics, so the reported regret is a
conservative over-estimate.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Collection
from dataclasses import dataclass

import numpy as np

from .algorithms import LearnerConfig, OfflineFWLearner, fw_fit, make_learner
from .confusion import (Labels, ProbEstimate, Task, batch_counts, check_labels,
                        label_rows, multilabel)
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

    def standard_error(self) -> float:
        return self.psi_final_std / math.sqrt(max(self.runs, 1))


def mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation of per-run values (0 for one run)."""
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1)) if len(values) > 1 else 0.0


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


# floating-point errors a run raises instead of printing a numpy warning and
# scoring NaN; ``cli.main`` and its pool workers use the same state
FP_ERRORS = dict(divide="raise", over="raise", invalid="raise")


# the most predictions a run holds before counting them, so that memory stays
# bounded however far apart its checkpoints are
_FLUSH = 1024


@np.errstate(**FP_ERRORS)
def run_online(stream: InstanceStream, cfg: LearnerConfig,
               checkpoints: int | Collection[int] | None = None) -> RunTrace:
    """Drive step/observe over the stream and record the running utility.

    ``checkpoints`` is a stride (every t it divides) or a collection of t
    values in 1..n; the last instance is always a checkpoint.  A division by
    zero, overflow or invalid value raises ``FloatingPointError``.
    """
    if len(stream) == 0:
        raise ValueError("empty stream")
    task, metric, n = stream.task, cfg.metric, len(stream)
    if isinstance(checkpoints, int):
        if checkpoints < 1:
            raise ValueError("checkpoint stride must be at least 1")
        checkpoints = range(checkpoints, n + 1, checkpoints)
    marks = {*(checkpoints or ()), n}
    if not all(1 <= t <= n for t in marks):
        raise ValueError(f"checkpoints must lie in 1..{n}")
    counts = np.zeros(task.shape)
    pending: list[Labels] = []  # predictions of instances start + 1 .. t
    start = 0
    checkpoints: list[tuple[int, float]] = []
    for t, y, pred in _steps(cfg, stream.labels, stream.estimates):
        check_labels(task, y)
        check_labels(task, pred, prediction=True)
        pending.append(pred)
        checkpoint = t in marks
        if checkpoint or len(pending) == _FLUSH:
            counts += batch_counts(task, label_rows(task, stream.labels[start:t]),
                                   label_rows(task, pending))
            pending.clear()
            start = t
        if checkpoint:
            checkpoints.append((t, metric.value(counts / t)))
    return RunTrace(checkpoints, checkpoints[-1][1], n)


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


def check_regret_grid(n_grid: list[int], runs: int) -> None:
    """The counts :func:`measure_regret` needs: runs >= 1 and every n >= 1."""
    if runs < 1:
        raise ValueError("need at least one run")
    if any(n < 1 for n in n_grid):
        raise ValueError("every sequence length must be at least 1")


def measure_regret(metric: Metric, model: SynthModel, algorithm: str,
                   n_grid: list[int], runs: int, lam: float = 0.0,
                   base_seed: int = 0,
                   psi_star: float | None = None) -> list[RunReport]:
    """Empirical regret of an algorithm across sequence lengths, one report per
    entry of ``n_grid`` in its order.

    Streams carry exact conditionals (the estimation-error term vanishes), so
    the measured gap isolates the optimization part of the regret.
    """
    check_regret_grid(n_grid, runs)
    if psi_star is None:
        psi_star = estimate_optimal(metric, model, seed=base_seed)
    # seeds depend on the run index only, so a run's stream at one n is a
    # prefix of its stream at every longer n.  A causal learner's psi at t
    # reads instances 1..t only, so one run at the longest n scores every n;
    # offline-fw is fitted on the whole sequence and needs a run per n.
    passes = ([(n, [n]) for n in set(n_grid)] if algorithm == "offline-fw"
              else [(max(n_grid), n_grid)])
    finals: dict[int, list[float]] = {n: [] for n in n_grid}
    for r in range(runs):
        stream_seed = int(np.random.SeedSequence([base_seed, r]).generate_state(1)[0])
        cfg = LearnerConfig(algorithm=algorithm, task=model.task, metric=metric,
                            lam=lam, seed=stream_seed)
        for length, marks in passes:
            stream = synth_generate(model, length, seed=stream_seed)
            for t, psi in run_online(stream, cfg, marks).checkpoints:
                finals[t].append(psi)
    reports = []
    for n in n_grid:
        mean, std = mean_std(finals[n])
        reports.append(RunReport(
            metric=metric.name, algorithm=algorithm, averaging=metric.averaging,
            budget_k=metric.budget_k, lam=lam, epsilon=metric.epsilon, seed=base_seed,
            n=n, runs=runs, psi_final_mean=mean, psi_final_std=std, psi_star=psi_star,
            regret_hat=psi_star - mean))
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


@np.errstate(**FP_ERRORS)
def adversarial_run(algorithm: str, n: int, runs: int, seed: int = 0,
                    lam: float = 0.0) -> AdversarialReport:
    """Run the algorithm on both sequences with exact conditionals."""
    if runs < 1:
        raise ValueError("need at least one run")
    seqs = adversarial_sequences(n)
    task = multilabel(1)
    metric = min_tn_tp()
    bounds = opt_bounds(n)
    # driven by _steps, not run_online: the c11 sums read every decision
    stats, gaps, sigmas = [], [], []
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
        stats.append(mean_std(psis))
        emp = np.mean([p[0] for p in pred_mass])
        exp = np.mean([p[1] for p in pred_mass])
        gaps.append(float(emp - exp))
        sigmas.append(float(math.sqrt(np.mean(var_mass) / runs)))
    means, stds = zip(*stats)
    regrets = (bounds[0] - means[0], bounds[1] - means[1])
    return AdversarialReport(
        n=n, runs=runs, algorithm=algorithm, psi_mean=means, psi_std=stds,
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
