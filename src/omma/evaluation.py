"""Online protocol runner, optimal-utility estimation, regret measurement.

Running utilities are always reported on the unregularized empirical confusion
matrix, whatever the algorithm uses internally.  The run loop drives a
learner on rows of the stream's columns: an (m,) estimate row in, an (m,)
boolean decision row out, then the (m,) label row.  It writes the decisions
into one reused buffer of at most 1024 rows; at every checkpoint, and when
the buffer is full, it adds the exact batch count of those rows against the
matching slice of the label matrix (``confusion.batch_counts``) to its
totals.  No label tuple or ``ProbEstimate`` is built on the way.
Checkpoints are a stride or any set of t values, so one run of a causal
learner scores every length of a regret grid.  :func:`run_online` is the only
place that builds and steps a learner: the regret measurement and the
adversarial lower-bound scenario both run it.  Regret is measured against the
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

from .algorithms import LearnerConfig, fw_fit, make_learner
from .confusion import _pack, batch_counts, multilabel
from .dataio import InstanceStream, SynthModel, _latent_draw, synth_generate
from .metrics import Metric, min_tn_tp


@dataclass
class RunTrace:
    """Per-checkpoint running utility of one online run; the last mark is n."""

    checkpoints: list[tuple[int, float]]

    @property
    def n(self) -> int:
        return self.checkpoints[-1][0]

    @property
    def final_psi(self) -> float:
        return self.checkpoints[-1][1]


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

    @classmethod
    def from_finals(cls, metric: Metric, algorithm: str, lam: float, seed: int, n: int,
                    finals: list[float], psi_star: float | None = None) -> RunReport:
        """The report of the final utilities of ``len(finals)`` runs of length n;
        with ``psi_star`` it also holds the regret of their mean."""
        mean, std = mean_std(finals)
        return cls(metric=metric.name, algorithm=algorithm, averaging=metric.averaging,
                   budget_k=metric.budget_k, lam=lam, epsilon=metric.epsilon, seed=seed,
                   n=n, runs=len(finals), psi_final_mean=mean, psi_final_std=std,
                   psi_star=psi_star,
                   regret_hat=None if psi_star is None else psi_star - mean)


def mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation of per-run values (0 for one run)."""
    values = np.asarray(values, dtype=float)
    return float(values.mean()), float(values.std(ddof=1)) if len(values) > 1 else 0.0


# floating-point errors a run raises instead of printing a numpy warning and
# scoring NaN; ``cli.main`` and its pool workers use the same state
FP_ERRORS = dict(divide="raise", over="raise", invalid="raise")


# the rows of a run's decision buffer: the most decisions it holds before
# counting them, so that memory stays bounded however far apart its
# checkpoints are
_FLUSH = 1024


@np.errstate(**FP_ERRORS)
def run_online(stream: InstanceStream, cfg: LearnerConfig,
               checkpoints: int | Collection[int] | None = None) -> RunTrace:
    """Drive step/observe over the stream and record the running utility.

    The learner is first handed the stream's columns: ``offline-fw`` fits
    the whole estimate sequence, and ``ofw`` / ``ofw-eta`` fit their refit
    points from the rows before each point.
    ``checkpoints`` is a stride (every t it divides) or a collection of t
    values in 1..n; the last instance is always a checkpoint.  A division by
    zero, overflow or invalid value raises ``FloatingPointError``.
    """
    if len(stream) == 0:
        raise ValueError("empty stream")
    task, metric, n = stream.task, cfg.metric, len(stream)
    if cfg.task != task:
        raise ValueError(f"the learner's task {cfg.task} is not the stream's {task}")
    if isinstance(checkpoints, int):
        if checkpoints < 1:
            raise ValueError("checkpoint stride must be at least 1")
        checkpoints = range(checkpoints, n + 1, checkpoints)
    marks = {*(checkpoints or ()), n}
    if not all(1 <= t <= n for t in marks):
        raise ValueError(f"checkpoints must lie in 1..{n}")
    learner = make_learner(cfg)
    labels, support = stream.label_rows, stream.support
    learner.use_columns(stream.estimate_rows, labels)
    step, observe = learner.step_row, learner.observe_row
    dec = np.empty((min(n, _FLUSH), task.m), dtype=bool)
    counts = np.zeros(task.shape)
    start = 0  # dec[:t - start] holds the decisions of instances start + 1 .. t
    checkpoints: list[tuple[int, float]] = []
    for t, eta in enumerate(stream.estimate_rows, start=1):
        dec[t - 1 - start] = step(eta, None if support is None else support[t - 1])
        observe(labels[t - 1])
        checkpoint = t in marks
        if checkpoint or t - start == _FLUSH:
            counts += batch_counts(task, labels[start:t], dec[:t - start])
            start = t
        if checkpoint:
            checkpoints.append((t, metric.value(counts / t)))
    return RunTrace(checkpoints)


# --- optimal-utility estimation

_GRID_POINTS = 1000


def _grid_optimal(metric: Metric, eta: np.ndarray) -> float:
    """Best per-label threshold rule on the exact conditionals.

    Only valid for label-decomposable (macro/binary) metrics: each label's
    expected confusion under threshold theta is evaluated on a shared
    threshold grid and maximized independently.
    """
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
        blocks = _pack(1.0 - pos - fn, fp, fn, tp, (_GRID_POINTS + 1, 2, 2))
        best[j] = float(np.max(metric.block_values(blocks)))
    return float(np.mean(best))


@np.errstate(**FP_ERRORS)
def estimate_optimal(metric: Metric, model: SynthModel, method: str = "both",
                     n_opt: int = 200_000, seed: int = 0,
                     fw_iterations: int = 200) -> float:
    """Approximate the best achievable population utility of the model.

    ``threshold-grid`` scans per-label thresholds on the exact conditionals;
    ``fw`` runs the batch linearization fit on an oracle sample.  With
    ``both`` the larger of the two estimates wins.  Both read only the (n_opt,
    m) conditionals matrix of ``synth_generate(model, n_opt, seed)``; no
    labels are drawn.  A division by zero, overflow or invalid value raises
    ``FloatingPointError``, as in :func:`run_online`.
    """
    if method not in ("fw", "threshold-grid", "both"):
        raise ValueError(f"unknown estimation method: {method!r}")
    if n_opt < 1:
        raise ValueError("the optimum needs a sample of n_opt >= 1 instances")
    metric.check_task(model.task)
    grid = method in ("threshold-grid", "both") and metric.per_label \
        and metric.budget_k is None and not model.task.is_multiclass
    fw = method in ("fw", "both")
    if not (grid or fw):
        raise ValueError("no applicable estimator for this metric/task")
    eta, _ = _latent_draw(model, n_opt, seed)
    values = []
    if grid:
        values.append(_grid_optimal(metric, eta))
    if fw:
        mix = fw_fit(eta, None, model.task, metric, fw_iterations)
        values.append(float(metric.value(mix.final_cm)))
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
    cfg = LearnerConfig(algorithm=algorithm, task=model.task, metric=metric, lam=lam)
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
        run_cfg = dataclasses.replace(cfg, seed=stream_seed)
        for length, marks in passes:
            stream = synth_generate(model, length, seed=stream_seed)
            for t, psi in run_online(stream, run_cfg, marks).checkpoints:
                finals[t].append(psi)
    return [RunReport.from_finals(metric, algorithm, lam, base_seed, n, finals[n], psi_star)
            for n in n_grid]


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
    """Run the algorithm on both sequences with exact conditionals.

    ``lam`` is passed to the learners, but it changes no output: the
    regularizer adds lam to tn and tp alike, so min(tn, tp) and its
    supergradient compare the same counts, and ``omma``, ``omma-eta`` and
    ``greedy`` decide as at lam 0; the other learners never read it.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    seqs = adversarial_sequences(n)
    task = multilabel(1)
    metric = min_tn_tp()
    bounds = opt_bounds(n)
    stats = []
    for s, eta_seq in enumerate(seqs):
        estimates = eta_seq[:, None]
        psis = []
        for r in range(runs):
            rng = np.random.default_rng([seed, s, r, 0xADE])
            labels = (rng.random(n) < eta_seq)[:, None].astype(np.float64)
            cfg = LearnerConfig(algorithm=algorithm, task=task, metric=metric,
                                lam=lam, seed=seed + r)
            psis.append(run_online(InstanceStream(task, labels, estimates), cfg).final_psi)
        stats.append(mean_std(psis))
    means, stds = zip(*stats)
    regrets = (bounds[0] - means[0], bounds[1] - means[1])
    return AdversarialReport(
        n=n, runs=runs, algorithm=algorithm, psi_mean=means, psi_std=stds,
        opt_bound=bounds, regret=regrets, max_regret=max(regrets))


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
