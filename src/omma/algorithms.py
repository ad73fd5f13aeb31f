"""Online learners over probability-estimate streams.

Every learner decides from an (m,) estimate row and returns an (m,) boolean
decision row (``step_row``), then learns from the (m,) 0/1 label row
(``observe_row``); the two must strictly alternate.  ``step(eta) ->
prediction`` and ``observe(y)`` are the same protocol on a
:class:`ProbEstimate` and label tuples.  Available algorithms:

* ``omma`` - predicts the argmax of the gradient-linearized utility at the
  current confusion matrix (a cost-sensitive rule), updates with true labels;
* ``omma-eta`` - same prediction rule, but updates its internal matrix with
  the expected confusion of the estimate, ignoring labels entirely;
* ``greedy`` - per-label maximizer of the exact expected utility including the
  current instance (macro-averaged metrics only);
* ``ofw`` / ``ofw-eta`` - periodic batch Frank-Wolfe refits over all buffered
  instances, producing a mixture of cost-sensitive classifiers;
* ``offline-fw`` - one Frank-Wolfe fit on the estimate sequence before the
  run, no updates afterwards;
* ``topk`` / ``thresh05`` - estimate-only baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import policy
from .confusion import (Labels, ProbEstimate, Task, _pack, batch_counts, check_labels,
                        check_regularizer, indicator_row, init_state,
                        multiclass_to_multilabel, top_entries)
from .metrics import BINARY, Metric


class ProtocolError(RuntimeError):
    """step/observe called out of order."""


class UnsupportedMetricError(ValueError):
    """The algorithm cannot optimize this metric/averaging combination."""


@dataclass(frozen=True)
class LearnerConfig:
    """Everything needed to build a learner reproducibly."""

    algorithm: str
    task: Task
    metric: Metric
    lam: float = 0.0
    seed: int = 0
    sparse_k: int | None = None        # top-k' sparse prediction path
    fw_iterations: int = 100
    refit_mode: str = "interval"       # "interval" or "cumulative"
    deterministic_mixture: bool = False

    def __post_init__(self) -> None:
        # every setting a run accepts: no learner raises a settings error
        alg, task, metric, sparse_k = self.algorithm, self.task, self.metric, self.sparse_k
        if alg not in _LEARNERS:
            raise ValueError(f"unknown algorithm: {alg!r}")
        check_regularizer(self.lam)
        metric.check_task(task)
        if sparse_k is not None and sparse_k < 1:
            raise ValueError("the sparse top-k' size must be at least 1")
        if self.fw_iterations < 1:
            raise ValueError("need at least one Frank-Wolfe iteration")
        if self.refit_mode not in ("interval", "cumulative"):
            raise ValueError(f"unknown refit mode: {self.refit_mode!r}")
        if sparse_k is not None:
            if self.budget is not None and sparse_k < self.budget:
                raise ValueError(f"the sparse top-k' size {sparse_k} is below "
                                 f"the budget {self.budget}")
            if alg not in ("omma", "omma-eta"):
                raise ValueError(f"{alg} has no sparse top-k' path")
            if task.is_multiclass:
                raise UnsupportedMetricError("sparse prediction is multilabel-only")
            if not metric.per_label:
                raise UnsupportedMetricError(
                    "sparse prediction needs per-label (macro) gradients")
        if alg == "greedy" and not metric.per_label:
            raise UnsupportedMetricError(
                f"greedy supports macro/binary metrics, not {metric.averaging}")
        if alg == "topk" and self.budget is None and not task.is_multiclass:
            raise UnsupportedMetricError("topk needs a budget on multilabel tasks")
        if alg == "thresh05" and task.is_multiclass:
            raise UnsupportedMetricError("thresh05 applies to multilabel tasks only")

    @property
    def budget(self) -> int | None:
        return self.metric.budget_k


class OnlineLearner:
    """Base class enforcing the strict step/observe alternation."""

    def __init__(self, cfg: LearnerConfig):
        self.cfg = cfg
        self.task = cfg.task
        self.metric = cfg.metric
        self._pending: tuple[np.ndarray, np.ndarray] | None = None

    def step_row(self, eta: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
        """The (m,) boolean decision for an (m,) estimate row.

        ``support`` marks the labels a sparse estimate lists (None: all of
        them); only the sparse top-k' rule reads it.  Nothing is checked.
        """
        if self._pending is not None:
            raise ProtocolError("step called twice without observe")
        dec = self._predict(eta, support)
        self._pending = (eta, dec)
        return dec

    def observe_row(self, y: np.ndarray) -> None:
        """Learn from the (m,) 0/1 label row of the pending step; nothing is checked."""
        if self._pending is None:
            raise ProtocolError("observe called without a pending step")
        eta, dec = self._pending
        self._pending = None
        self._update(y, eta, dec)

    def step(self, eta: ProbEstimate) -> Labels:
        """:meth:`step_row` on an estimate, as a sorted tuple of predicted labels."""
        if eta.m != self.task.m:
            raise ValueError("estimate size does not match the task")
        support = None
        if eta.indices.size < eta.m:
            support = np.zeros(eta.m, dtype=bool)
            support[eta.indices] = True
        return tuple(self.step_row(eta.dense(), support).nonzero()[0].tolist())

    def observe(self, y: Labels) -> None:
        """:meth:`observe_row` on a checked label tuple."""
        check_labels(self.task, y)
        self.observe_row(indicator_row(self.task.m, y, np.float64))

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        raise NotImplementedError

    def _update(self, y: np.ndarray, eta: np.ndarray, dec: np.ndarray) -> None:
        pass


class OmmaLearner(OnlineLearner):
    """Cost-sensitive argmax of the linearized utility, label-fed updates."""

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self.state = init_state(cfg.task, cfg.lam)
        self._all_labels = np.arange(cfg.task.m, dtype=np.int64)

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        if self.cfg.sparse_k is not None:
            return self._predict_sparse(eta, support)
        if self.task.is_multiclass:
            return policy.decide_gradient(self.metric.gradient(self.state.normalized()),
                                          eta, self.cfg.budget)
        # multilabel: (alpha, beta) straight from the metric, no gradient tensor
        coeffs = self.metric.coefficients(self.state.normalized(), self.task.m)
        return policy.decide(policy.gains(coeffs, eta), self.cfg.budget)

    def _predict_sparse(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        """The gain rule on the top-k' listed labels; no other label is predicted."""
        listed = self._all_labels if support is None else np.flatnonzero(support)
        indices, values = top_entries(listed, eta[listed], self.cfg.sparse_k)
        coeffs = self.metric.coefficients(self.state.normalized_blocks(indices), self.task.m)
        return policy.decide_support(coeffs, indices, values, self.task.m, self.cfg.budget)

    def _update(self, y: np.ndarray, eta: np.ndarray, dec: np.ndarray) -> None:
        self.state.add(y, dec)


class OmmaEtaLearner(OmmaLearner):
    """Same rule, but the internal matrix accumulates expected confusions."""

    def _update(self, y: np.ndarray, eta: np.ndarray, dec: np.ndarray) -> None:
        self.state.add(eta, dec)


_UNIT_CELLS = _pack(*np.eye(4), (4, 2, 2))


class GreedyLearner(OnlineLearner):
    """Maximizes the expected utility including the current instance.

    Tractable when the metric decomposes over labels, i.e. macro or binary
    averaging; each label weighs its four candidate count increments by the
    estimated label probability.  A binary metric on two classes reads the
    (2, 2) matrix itself as its one block, class 1 positive, so class 1 is
    predicted exactly when that block's gain is >= 0.
    """

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self.state = init_state(cfg.task, cfg.lam)
        self._two_class = cfg.task.is_multiclass and cfg.metric.averaging == BINARY

    def _label_blocks(self) -> np.ndarray:
        if self._two_class:
            return self.state.counts[None]
        if self.task.is_multiclass:
            return multiclass_to_multilabel(self.state.counts)
        return self.state.counts

    def _gain_table(self, eta_dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expected per-label utility for predicting 0 vs 1 on this instance."""
        # the blocks after one more instance, one stack per cell tn, fp, fn, tp
        nxt = (self._label_blocks()[None] + _UNIT_CELLS[:, None]) / (self.state.t + 1)
        v_tn, v_fp, v_fn, v_tp = self.metric.block_values(nxt)
        gain0 = eta_dense * v_fn + (1.0 - eta_dense) * v_tn
        gain1 = eta_dense * v_tp + (1.0 - eta_dense) * v_fp
        return gain0, gain1

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        if self._two_class:
            gain0, gain1 = self._gain_table(eta[1:])
            positive = gain1[0] - gain0[0] >= 0.0
            scores = np.array([not positive, positive], dtype=np.float64)
        else:
            gain0, gain1 = self._gain_table(eta)
            scores = gain1 - gain0
        return policy.decide(scores, self.cfg.budget, argmax=self.task.is_multiclass)

    def _update(self, y: np.ndarray, eta: np.ndarray, dec: np.ndarray) -> None:
        self.state.add(y, dec)


@dataclass
class MixtureClassifier:
    """Convex combination of cost-sensitive classifiers (one gradient tensor each).

    The weights are checked and fixed when the mixture is built; so is the
    CDF that :meth:`sample` draws from.
    """

    tensors: list[np.ndarray]
    weights: np.ndarray
    final_cm: np.ndarray | None = field(repr=False, default=None)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must be a distribution")
        self.weights = w
        # built as Generator.choice builds it from p on every call
        self._cdf = w.cumsum()
        self._cdf /= self._cdf[-1]

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """The tensor of a component drawn with the mixture weights: the draw
        of ``rng.choice(len(tensors), p=weights)``, from the same one uniform."""
        return self.tensors[int(self._cdf.searchsorted(rng.random(), side="right"))]


def refit_thresholds(mode: str = "interval", base: float = 10.0, ratio: float = 1.1):
    """Yield strictly increasing buffer sizes at which to re-run the batch fit.

    ``interval`` grows the gap between refits geometrically (cumulative sums of
    base * ratio^i); ``cumulative`` refits at base * ratio^i directly.
    ``LearnerConfig`` rejects any other mode.
    """
    total = 0.0
    term = base
    last = 0
    while True:
        if mode == "interval":
            total += term
        else:
            total = term
        term *= ratio
        nxt = int(total)
        if nxt > last:
            last = nxt
            yield nxt


def fw_fit(estimates: np.ndarray, labels: np.ndarray | None, task: Task,
           metric: Metric, iterations: int) -> MixtureClassifier:
    """Frank-Wolfe over the reachable confusion polytope of a buffer.

    Each iteration linearizes the utility at the current averaged confusion,
    builds the corresponding cost-sensitive classifier, measures its confusion
    on the buffer (from ``labels`` when given, else expected via the
    estimates), and moves with step size 2 / (q + 2).  ``labels`` are (n, m)
    0/1 rows, one-hot for multiclass.  Returns the induced
    classifier mixture; the first step has weight one, so the trivial initial
    classifier never survives.

    The fit keeps returning to vertices it has visited, so each distinct
    decision matrix is counted once: its confusion is kept under its packed
    bits and reused on a repeat.  A vertex's confusion depends on the buffer
    and the decisions alone, so the reuse changes no bit of the result.  The
    store holds at most ``iterations`` keys of ceil(n * m / 8) bytes and one
    confusion each, and is freed on return.

    Every sum is taken on row-major copies of the buffer and the labels, so
    the result does not depend on their memory layout.  A multilabel buffer
    is also scored on a column-major copy: each label's gains alpha_j *
    eta_ij - beta_j are then one contiguous pass, where a row-major buffer
    takes n short passes of m entries.  The gains are elementwise, so the
    decisions are the same bits either way.  A multiclass buffer is scored
    row-major, since the rounding of the BLAS product ``eta @ G`` depends on
    the layout of its operands.
    """
    metric.check_task(task)
    estimates = np.ascontiguousarray(estimates, dtype=np.float64)
    if estimates.ndim != 2 or estimates.shape[0] == 0:
        raise ValueError("need a nonempty (n, m) estimate buffer")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    n, m = estimates.shape
    ref = estimates if labels is None else np.ascontiguousarray(labels, dtype=np.float64)
    if ref.shape != estimates.shape:
        raise ValueError("labels must be (n, m) rows aligned with the estimates")
    scored = estimates if task.is_multiclass else np.asfortranarray(estimates)
    budget = metric.budget_k
    # the trivial start predicts every label with probability k / m: the
    # all-negative classifier, or a uniformly random class or k-subset
    k = budget or (1 if task.is_multiclass else 0)
    cbar = batch_counts(task, ref.sum(axis=0)[None] / n, np.full((1, m), k / m))
    tensors: list[np.ndarray] = []
    weights = np.empty(iterations)
    vertices: dict[bytes, np.ndarray] = {}  # packed decision matrix -> its confusion
    for q in range(iterations):
        G = metric.gradient(cbar)
        dec = policy.decide_gradient(G, scored, budget)
        key = np.packbits(dec.ravel(order="K")).tobytes()  # the bits in memory order
        cq = vertices.get(key)
        if cq is None:
            cq = vertices[key] = batch_counts(task, ref, dec) / n
        gamma = 2.0 / (q + 2.0)
        cbar = (1.0 - gamma) * cbar + gamma * cq
        weights[:q] *= 1.0 - gamma
        weights[q] = gamma
        tensors.append(G)
    return MixtureClassifier(tensors, weights, final_cm=cbar)


class _MixtureLearner(OnlineLearner):
    """Serves every instance with one component of a classifier mixture.

    The component is sampled with the mixture weights from a generator seeded
    by ``cfg.seed``, matching the randomized-classifier semantics of the batch
    method, or is always the last one under ``deterministic_mixture``.
    """

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self.mixture: MixtureClassifier | None = None
        self._rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(cfg.seed)))

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        if self.cfg.deterministic_mixture:
            G = self.mixture.tensors[-1]
        else:
            G = self.mixture.sample(self._rng)
        return policy.decide_gradient(G, eta, self.cfg.budget)


class FrankWolfeLearner(_MixtureLearner):
    """Buffers the stream and refits a classifier mixture on a growing schedule.

    Before the first refit it falls back to the top-k / 0.5-threshold baseline.
    """

    def __init__(self, cfg: LearnerConfig, use_labels: bool):
        super().__init__(cfg)
        self.use_labels = use_labels
        self._est_rows: list[np.ndarray] = []
        self._label_rows: list[np.ndarray] = []
        self._schedule = refit_thresholds(cfg.refit_mode)
        self._next_refit = next(self._schedule)
        self._fallback = _fallback_learner(cfg)

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        if self.mixture is None:
            return self._fallback._predict(eta, support)
        return super()._predict(eta, support)

    def _update(self, y: np.ndarray, eta: np.ndarray, dec: np.ndarray) -> None:
        self._est_rows.append(eta)
        self._label_rows.append(y)
        if len(self._est_rows) >= self._next_refit:
            self._refit()
            while self._next_refit <= len(self._est_rows):
                self._next_refit = next(self._schedule)

    def _refit(self) -> None:
        labels = np.vstack(self._label_rows) if self.use_labels else None
        self.mixture = fw_fit(np.vstack(self._est_rows), labels, self.task, self.metric,
                              self.cfg.fw_iterations)


class OfflineFWLearner(_MixtureLearner):
    """Frank-Wolfe mixture fitted once on the estimate sequence, then frozen."""

    def prefit(self, estimates: np.ndarray) -> None:
        """Fit on the (n, m) estimate matrix of the whole sequence."""
        self.mixture = fw_fit(estimates, None, self.task, self.metric,
                              self.cfg.fw_iterations)

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        if self.mixture is None:
            raise ProtocolError("offline-fw must be prefit on the estimate sequence")
        return super()._predict(eta, support)


class TopKLearner(OnlineLearner):
    """Predicts the k estimate entries with the highest probabilities."""

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self.k = cfg.budget or 1

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        return policy.decide(eta, self.k)


class ThresholdLearner(OnlineLearner):
    """Predicts every label whose estimated probability strictly exceeds 0.5."""

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        return eta > 0.5


def _fallback_learner(cfg: LearnerConfig) -> OnlineLearner:
    if cfg.budget is not None or cfg.task.is_multiclass:
        return TopKLearner(cfg)
    return ThresholdLearner(cfg)


_LEARNERS = {
    "omma": OmmaLearner,
    "omma-eta": OmmaEtaLearner,
    "greedy": GreedyLearner,
    "ofw": lambda cfg: FrankWolfeLearner(cfg, use_labels=True),
    "ofw-eta": lambda cfg: FrankWolfeLearner(cfg, use_labels=False),
    "offline-fw": OfflineFWLearner,
    "topk": TopKLearner,
    "thresh05": ThresholdLearner,
}

ALGORITHMS = tuple(_LEARNERS)


def make_learner(cfg: LearnerConfig) -> OnlineLearner:
    """The learner of a config, which has checked every setting already."""
    return _LEARNERS[cfg.algorithm](cfg)
