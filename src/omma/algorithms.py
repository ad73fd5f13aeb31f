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

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice, takewhile, tee

import numpy as np

from . import policy
from .confusion import (_ONE, Labels, ProbEstimate, Task, _pack, batch_counts, check_labels,
                        check_regularizer, check_seed, indicator_row, init_state, is_integer,
                        top_entries)
from .metrics import BINARY, CostCoefficients, Metric


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
        check_seed(self.seed)
        metric.check_task(task)
        if sparse_k is not None and not (is_integer(sparse_k) and sparse_k >= 1):
            raise ValueError("the sparse top-k' size must be at least 1")
        if not (is_integer(self.fw_iterations) and self.fw_iterations >= 1):
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
        self._budget = cfg.budget
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

    def use_columns(self, estimates: np.ndarray, labels: np.ndarray) -> None:
        """Hand over the (n, m) estimate and label columns of the stream the
        learner is about to be stepped on, row by row from the first.  The
        estimate-only baselines ignore them; a multilabel learner that
        accumulates a confusion keeps its reference column (see
        ``_Accumulating``), and a mixture learner fits from them (see
        ``OfflineFWLearner`` and ``FrankWolfeLearner``)."""

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        raise NotImplementedError

    def _update(self, y: np.ndarray, eta: np.ndarray, dec: np.ndarray) -> None:
        pass


# an accumulating learner builds the reference pairs of at most _PAIR_ROWS
# rows at a time, as many as the run loop's decision buffer holds
# (``evaluation._FLUSH``), and of at most _PAIR_LABELS labels (64 KB of
# pairs), so that a block stays in cache: at m = 100 a 1024-row block (1.6 MB)
# made a run slower than adding rows
_PAIR_ROWS = 1024
_PAIR_LABELS = 4096


def _pair_rows(ref: np.ndarray):
    """Yield the (2, m) pair ``[1 - ref, ref]`` of each row of an (n, m)
    reference column, in order.  The pairs are built a block of rows at a
    time (see ``_PAIR_ROWS``), and a block is dropped before the next is
    built, so at most one block is held; row t's pair is row t mod b of its
    block of b rows."""
    size = max(1, min(_PAIR_ROWS, _PAIR_LABELS // ref.shape[1]))
    for start in range(0, len(ref), size):
        rows = ref[start:start + size]
        yield from np.stack((_ONE - rows, rows), axis=1)


class _Accumulating(OnlineLearner):
    """A learner that folds each observed instance into its confusion state:
    the label row, or the estimate row for ``omma-eta`` (``_adds_estimates``).

    Handed a multilabel stream's columns, it keeps its reference column and
    adds each instance as the instance's prebuilt pair (:func:`_pair_rows`,
    ``ConfusionState.add_pair``): the same numbers into the same cells as
    ``ConfusionState.add`` of the row, without forming ``1 - ref`` on the
    step.  The learner must then be stepped on exactly those rows, in order,
    as ``run_online`` does.  A multiclass learner adds its rows as they come.
    """

    _adds_estimates = False

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self.state = init_state(cfg.task, cfg.lam)

    def use_columns(self, estimates: np.ndarray, labels: np.ndarray) -> None:
        if not self.task.is_multiclass:
            pairs = _pair_rows(estimates if self._adds_estimates else labels)
            add_pair = self.state.add_pair
            # shadows the class's row add, so that neither path branches; it
            # holds the state, not the learner, so that no reference cycle
            # keeps a finished run's block alive
            self._update = lambda y, eta, dec: add_pair(next(pairs), dec)

    def _update(self, y: np.ndarray, eta: np.ndarray, dec: np.ndarray) -> None:
        self.state.add(y, dec)


class OmmaLearner(_Accumulating):
    """Cost-sensitive argmax of the linearized utility, label-fed updates."""

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self._all_labels = np.arange(cfg.task.m, dtype=np.int64)

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        if self.cfg.sparse_k is not None:
            return self._predict_sparse(eta, support)
        coeffs = self.metric.coefficients(self.state.normalized(), self.task)
        return policy.decide_coefficients(coeffs, eta, self._budget,
                                          multiclass=self.task.is_multiclass)

    def _predict_sparse(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        """The gain rule on the top-k' listed labels; no other label is predicted."""
        listed = self._all_labels if support is None else np.flatnonzero(support)
        indices, values = top_entries(listed, eta[listed], self.cfg.sparse_k)
        coeffs = self.metric.coefficients(self.state.normalized_blocks(indices), self.task)
        return policy.decide_support(coeffs, indices, values, self.task.m, self._budget)


class OmmaEtaLearner(OmmaLearner):
    """Same rule, but the internal matrix accumulates expected confusions."""

    _adds_estimates = True

    def _update(self, y: np.ndarray, eta: np.ndarray, dec: np.ndarray) -> None:
        self.state.add(eta, dec)


_UNIT_CELLS = _pack(*np.eye(4), (4, 2, 2))


class GreedyLearner(_Accumulating):
    """Maximizes the expected utility including the current instance.

    Tractable when the metric decomposes over labels, i.e. macro or binary
    averaging; each label weighs its four candidate count increments by the
    estimated label probability.  A binary metric on two classes reads the
    (2, 2) matrix itself as its one block, class 1 positive, so class 1 is
    predicted exactly when that block's gain is >= 0.
    """

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self._two_class = cfg.task.is_multiclass and cfg.metric.averaging == BINARY
        self._next_t = np.empty(())  # t + 1 as a 0-d float64 array

    def _gain_table(self, eta_dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expected per-label utility for predicting 0 vs 1 on this instance."""
        # the blocks after one more instance, one stack per cell tn, fp, fn, tp
        blocks = self.metric.blocks(self.state.counts)
        self._next_t[()] = self.state.t + 1
        nxt = (blocks[None] + _UNIT_CELLS[:, None]) / self._next_t
        v_tn, v_fp, v_fn, v_tp = self.metric.block_values(nxt)
        not_eta = _ONE - eta_dense
        gain0 = eta_dense * v_fn + not_eta * v_tn
        gain1 = eta_dense * v_tp + not_eta * v_fp
        return gain0, gain1

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        if self._two_class:
            gain0, gain1 = self._gain_table(eta[1:])
            positive = gain1[0] - gain0[0] >= 0.0
            scores = np.array([not positive, positive], dtype=np.float64)
        else:
            gain0, gain1 = self._gain_table(eta)
            scores = gain1 - gain0
        return policy.decide(scores, self._budget, argmax=self.task.is_multiclass)


@dataclass
class MixtureClassifier:
    """Convex combination of cost-sensitive classifiers: ``coefficients`` holds
    their (alpha, beta) as (K, m) arrays, beta perhaps the structural zero 0.0.
    The weights, and the CDF that :meth:`sample` draws from, are fixed here.
    """

    coefficients: CostCoefficients
    weights: np.ndarray
    final_cm: np.ndarray | None = field(repr=False, default=None)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        # written as "all inside" rather than "any outside" so that NaN fails too
        if not (np.all(w >= -1e-12) and abs(w.sum() - 1.0) <= 1e-9):
            raise ValueError("mixture weights must be a distribution")
        self.weights = w
        # built as Generator.choice builds it from p on every call
        self._cdf = w.cumsum()
        self._cdf /= self._cdf[-1]

    def component(self, k: int) -> CostCoefficients:
        """The (alpha, beta) of component k."""
        alpha, beta = self.coefficients
        return CostCoefficients(alpha[k], beta[k] if isinstance(beta, np.ndarray) else beta)

    def sample(self, rng: np.random.Generator) -> CostCoefficients:
        """A component drawn with the mixture weights: the draw of
        ``rng.choice(len(weights), p=weights)``, from the same uniform."""
        return self.component(int(self._cdf.searchsorted(rng.random(), side="right")))


_REFIT_BASE = 10.0
_REFIT_RATIO = 1.1


def refit_thresholds(mode: str = "interval"):
    """Yield strictly increasing buffer sizes at which to re-run the batch fit.

    ``interval`` grows the gap between refits geometrically (cumulative sums of
    base * ratio^i, the module's ``_REFIT_*``); ``cumulative`` refits at base
    * ratio^i directly.  ``LearnerConfig`` rejects any other mode.
    """
    total = 0.0
    term = _REFIT_BASE
    last = 0
    while True:
        if mode == "interval":
            total += term
        else:
            total = term
        term *= _REFIT_RATIO
        nxt = int(total)
        if nxt > last:
            last = nxt
            yield nxt


@functools.lru_cache(maxsize=8)
def _fw_weights(iterations: int) -> np.ndarray:
    """The mixture weights of a fit of ``iterations`` steps, read-only.  The
    step sizes 2 / (q + 2) depend on q alone, and so do the weights."""
    weights = np.empty(iterations)
    for q in range(iterations):
        gamma = 2.0 / (q + 2.0)
        weights[:q] *= 1.0 - gamma
        weights[q] = gamma
    weights.flags.writeable = False
    return weights


def fw_fit(estimates: np.ndarray, labels: np.ndarray | None, task: Task,
           metric: Metric, iterations: int,
           prefixes: Sequence[int] | None = None) -> MixtureClassifier | list[MixtureClassifier]:
    """Frank-Wolfe over the reachable confusion polytope of a buffer.

    Each iteration linearizes the utility at the current averaged confusion,
    builds the corresponding cost-sensitive classifier, measures its confusion
    on the buffer (from ``labels`` when given, else expected via the
    estimates), and moves with step size 2 / (q + 2).  ``labels`` are (n, m)
    0/1 rows, one-hot for multiclass.  Returns the induced
    classifier mixture; the first step has weight one, so the trivial initial
    classifier never survives.

    With ``prefixes``, strictly increasing integer lengths in 1..n (numpy
    integers too, bools not), it fits the first
    n_r rows of the buffer for every n_r in lockstep and returns their
    mixtures in that order, each equal bit for bit to ``fw_fit`` of its
    prefix alone; without them it is the one-prefix case of the same loop.
    An iteration takes one stacked ``Metric.coefficients`` call and one
    stacked step; the weights depend on the iteration count alone.  A fit
    reads no row at or beyond its own n_r, so an online learner can fit its
    coming refit points together once the stream's rows are at hand.

    Each fit decides with the learners' ``policy.decide_coefficients``, so a
    prefix decides as its rows would, one by one, in any layout.  Multilabel
    gains are scored column-major, one contiguous pass per label, multiclass
    rankings row-major, one per row; sums are taken row-major, so the result
    does not depend on the memory layout of the buffer or the labels.

    Each distinct decision matrix is counted once: its confusion is kept,
    until return, under its packed bits (a multiclass fit without a budget:
    its argmax classes) and reused when the fit returns to it.
    """
    metric.check_task(task)
    estimates = np.ascontiguousarray(estimates, dtype=np.float64)
    if estimates.ndim != 2 or estimates.shape[0] == 0:
        raise ValueError("need a nonempty (n, m) estimate buffer")
    if not (is_integer(iterations) and iterations >= 1):
        raise ValueError("need at least one iteration")
    n, m = estimates.shape
    ref = estimates if labels is None else np.ascontiguousarray(labels, dtype=np.float64)
    if ref.shape != estimates.shape:
        raise ValueError("labels must be (n, m) rows aligned with the estimates")
    sizes = [n] if prefixes is None else [*prefixes]
    if not all(map(is_integer, sizes)):
        raise ValueError("prefixes must be integer lengths")
    sizes = [*map(int, sizes)]
    if not sizes or sizes[0] < 1 or sizes[-1] > n or any(
            a >= b for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"prefixes must be strictly increasing lengths in 1..{n}")
    multiclass = task.is_multiclass
    scored = estimates if multiclass else np.asfortranarray(estimates)
    mass = None  # the rows' class masses, taken once a fit needs them
    budget = metric.budget_k
    by_class = multiclass and budget is None
    classes = np.arange(m)
    # the trivial start predicts every label with probability k / m: the
    # all-negative classifier, or a uniformly random class or k-subset
    k = budget or (1 if multiclass else 0)
    start = np.full((1, m), k / m)
    cbar = np.stack([batch_counts(task, ref[:size].sum(axis=0)[None] / size, start)
                     for size in sizes])
    steps = np.empty_like(cbar)  # gamma times each fit's vertex of this iteration
    # per fit: its scored rows, its reference rows, its length, its vertex
    # store (key -> the vertex's confusion on that prefix) and its step slot
    fits = [(scored[:size], ref[:size], size, {}, step) for size, step in zip(sizes, steps)]
    # each fit's mixture coefficients, one row per iteration; betas stays
    # unused where beta is a structural zero
    alphas = np.empty((len(sizes), iterations, m))
    betas = np.empty_like(alphas)
    for q in range(iterations):
        # one fit takes its confusion's own call: numpy iterates more slowly
        # over small cells under a leading axis of one
        alpha, beta = metric.coefficients(cbar[0] if len(sizes) == 1 else cbar, task)
        alphas[:, q] = alpha
        zero = not isinstance(beta, np.ndarray)
        if not zero:
            betas[:, q] = beta
            if multiclass and mass is None:
                mass = policy.class_mass(estimates)
        gamma = 2.0 / (q + 2.0)
        for r, (rows, refs, size, vertices, step) in enumerate(fits):
            coeffs = CostCoefficients(alphas[r, q], beta if zero else betas[r, q])
            rows_mass = None if mass is None else mass[:size]
            if by_class:
                top = policy.gains(coeffs, rows, rows_mass).argmax(axis=1)
                key = top.tobytes()
            else:
                dec = policy.decide_coefficients(coeffs, rows, budget, multiclass=multiclass,
                                                 mass=rows_mass)
                key = np.packbits(dec.ravel(order="K")).tobytes()  # the bits in memory order
            vertex = vertices.get(key)
            if vertex is None:
                if by_class:
                    dec = classes == top[:, None]
                vertex = vertices[key] = batch_counts(task, refs, dec) / size
            np.multiply(vertex, gamma, step)
        # cbar <- (1 - gamma) cbar + gamma cq, in place: no coefficient reads cbar
        cbar *= 1.0 - gamma
        cbar += steps
    weights = _fw_weights(iterations)
    mixtures = [MixtureClassifier(CostCoefficients(alphas[r], beta if zero else betas[r]),
                                  weights.copy(), final_cm=cbar[r])
                for r in range(len(sizes))]
    return mixtures[0] if prefixes is None else mixtures


class _MixtureLearner(OnlineLearner):
    """Serves every instance with one component of a classifier mixture.

    The component is sampled with the mixture weights from a generator seeded
    by ``cfg.seed``, matching the randomized-classifier semantics of the batch
    method, or is always the last one under ``deterministic_mixture``.
    """

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self.mixture: MixtureClassifier | None = None
        self._rng = np.random.default_rng(cfg.seed)

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        mix = self.mixture
        coeffs = mix.component(-1) if self.cfg.deterministic_mixture else mix.sample(self._rng)
        return policy.decide_coefficients(coeffs, eta, self._budget,
                                          multiclass=self.task.is_multiclass)


# the most refit points of an ofw / ofw-eta run fitted in one lockstep
# fw_fit call; the run holds their mixtures until it passes each point
_REFIT_GROUP = 4


class FrankWolfeLearner(_MixtureLearner):
    """Buffers the stream and refits a classifier mixture on a growing schedule.

    Before the first refit it falls back to the top-k / 0.5-threshold baseline.
    The refit at point p fits the first p instances of the stream.

    ``ofw`` fits the label confusions, ``ofw-eta`` the expected ones.  A refit
    fits the next points of the schedule whose rows are at hand, at most
    ``_REFIT_GROUP`` (4) of them, in one lockstep ``fw_fit``, and drops each
    mixture once the run has passed its point.  The rows are the stream's
    columns if :meth:`use_columns` (which ``run_online`` calls) handed them
    over, else the learner's own rows, which reach no point past the current
    one.  Fitting a later point early is causal: its fit reads only the rows
    before that point, and no fit draws from the mixture generator.  So every
    prediction and mixture draw is the same bits as with one refit at a time.
    """

    def __init__(self, cfg: LearnerConfig):
        super().__init__(cfg)
        self.use_labels = cfg.algorithm == "ofw"
        self._est_rows: list[np.ndarray] = []
        self._label_rows: list[np.ndarray] = []
        self._columns: tuple[np.ndarray, np.ndarray] | None = None
        self._t = 0
        self._schedule = refit_thresholds(cfg.refit_mode)
        self._next_refit = next(self._schedule)
        self._ahead: list[MixtureClassifier] = []  # fitted mixtures of the coming points
        self._fallback = _fallback_learner(cfg)

    def use_columns(self, estimates: np.ndarray, labels: np.ndarray) -> None:
        self._columns = estimates, labels

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        if self.mixture is None:
            return self._fallback._predict(eta, support)
        return super()._predict(eta, support)

    def _update(self, y: np.ndarray, eta: np.ndarray, dec: np.ndarray) -> None:
        self._t += 1
        if self._columns is None:
            self._est_rows.append(eta)
            self._label_rows.append(y)
        if self._t == self._next_refit:
            if not self._ahead:
                self._ahead = self._refit()
            self.mixture = self._ahead.pop(0)
            self._next_refit = next(self._schedule)

    def _refit(self) -> list[MixtureClassifier]:
        """The mixtures of the refit points from the current one on."""
        if self._columns is None:
            estimates, labels = np.vstack(self._est_rows), np.vstack(self._label_rows)
        else:
            estimates, labels = self._columns
        self._schedule, ahead = tee(self._schedule)
        points = [self._t, *takewhile(lambda p: p <= len(estimates),
                                      islice(ahead, _REFIT_GROUP - 1))]
        rows = points[-1]
        return fw_fit(estimates[:rows], labels[:rows] if self.use_labels else None,
                      self.task, self.metric, self.cfg.fw_iterations, points)


class OfflineFWLearner(_MixtureLearner):
    """Frank-Wolfe mixture fitted once on the estimate sequence, then frozen."""

    def use_columns(self, estimates: np.ndarray, labels: np.ndarray) -> None:
        """Fit on the (n, m) estimate matrix of the whole sequence; the labels
        are not read."""
        self.mixture = fw_fit(estimates, None, self.task, self.metric,
                              self.cfg.fw_iterations)

    def _predict(self, eta: np.ndarray, support: np.ndarray | None) -> np.ndarray:
        if self.mixture is None:
            raise ProtocolError("offline-fw must be fitted on the estimate sequence first")
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
    "ofw": FrankWolfeLearner,
    "ofw-eta": FrankWolfeLearner,
    "offline-fw": OfflineFWLearner,
    "topk": TopKLearner,
    "thresh05": ThresholdLearner,
}

ALGORITHMS = tuple(_LEARNERS)


def make_learner(cfg: LearnerConfig) -> OnlineLearner:
    """The learner of a config, which has checked every setting already."""
    return _LEARNERS[cfg.algorithm](cfg)
