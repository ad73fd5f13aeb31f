"""Instance streams: columns, file formats, a synthetic oracle, perturbation, shuffling.

A stream is stored as columns: one read-only (n, m) float64 matrix of
estimates, one read-only (n, m) matrix of 0/1 label rows (one-hot for
multiclass), an optional (n, m) boolean support of the labels each sparse
estimate lists, and, for synthetic streams, the exact conditionals (the
estimate matrix itself until the estimates are perturbed or cut).  The
builders below index or fill these matrices directly; label tuples and
:class:`ProbEstimate` objects exist only as list views for readers.

Text formats are line-oriented (one instance per line) so streams never need
to be loaded wholesale:

* labels (``.labels``): comma-separated label indices, empty line = no
  positives, a single index for multiclass;
* estimates (``.probs`` / ``.truth``): space-separated ``index:prob`` pairs,
  probabilities written with 6 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .confusion import (Labels, ProbEstimate, Task, _check_probabilities, check_label_rows,
                        check_labels, label_rows)

_MC_SUM_SLACK = 1e-3

# how each key of a model file is read; any other key is rejected
_MODEL_KEYS = {"task": str, "m": int, "d": int, "prior_low": float, "prior_high": float,
               "weight_scale": float, "seed": int}


class DataFormatError(ValueError):
    """Malformed stream file; message carries the offending line number."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _listed_columns(n: int, m: int, owner, cols, vals) -> tuple[np.ndarray, np.ndarray | None]:
    """(rows, support) of n estimates given as (row, label, probability)
    entries with distinct (row, label); support is None when all are listed."""
    rows = np.zeros((n, m))
    rows[owner, cols] = vals
    if len(cols) == n * m:
        return rows, None
    support = np.zeros((n, m), dtype=bool)
    support[owner, cols] = True
    return rows, support


def _estimate_columns(task: Task, estimates) -> tuple[np.ndarray, np.ndarray | None]:
    """(rows, support) of an (n, m) probability matrix or a list of estimates."""
    m = task.m
    if isinstance(estimates, np.ndarray):
        rows = np.array(estimates, dtype=np.float64, order="C")
        if rows.ndim != 2 or rows.shape[1] != m:
            raise ValueError(f"expected an (n, {m}) matrix of probabilities")
        _check_probabilities(rows)
        return rows, None
    if any(est.m != m for est in estimates):
        raise ValueError("estimate size does not match the task")
    n = len(estimates)
    owner = np.repeat(np.arange(n), [est.indices.size for est in estimates])
    return _listed_columns(
        n, m, owner, np.concatenate([est.indices for est in estimates] or [np.empty(0, int)]),
        np.concatenate([est.values for est in estimates] or [np.empty(0)]))


def _row_labels(rows: np.ndarray) -> list[Labels]:
    """The sorted label tuple of every 0/1 row, with Python int indices."""
    # positives in row-major order, split at the cumulative row counts
    cols = np.nonzero(rows)[1].tolist()
    ends = np.cumsum(np.count_nonzero(rows, axis=1)).tolist()
    return [tuple(cols[start:end]) for start, end in zip([0, *ends], ends)]


class InstanceStream:
    """Aligned per-instance labels and probability estimates, stored as columns.

    * ``label_rows``: read-only (n, m) float64 0/1 rows, one-hot for multiclass;
    * ``estimate_rows``: read-only (n, m) float64 probabilities, 0 wherever an
      estimate lists no probability;
    * ``support``: None when every estimate lists all m labels, else a
      read-only (n, m) boolean matrix of the labels each estimate lists (a
      listed label may have probability 0);
    * ``truth_rows``: exact conditionals, only for synthetic / oracle streams,
      else None; a synthetic stream's truth is its estimate matrix itself.

    The constructor takes label tuples or an (n, m) 0/1 matrix, and lists of
    :class:`ProbEstimate` or (n, m) probability matrices, copies them into
    row-major columns and checks each once as a whole.  ``labels``,
    ``estimates`` and ``truth`` are list views for readers, built on first
    use (or the lists given to the constructor); the run loop never reads
    them.
    """

    def __init__(self, task: Task, labels, estimates, truth=None):
        if isinstance(labels, np.ndarray):
            y = np.array(labels, dtype=np.float64, order="C")
            check_label_rows(task, y)
        else:
            y = label_rows(task, labels)
            self.__dict__["labels"] = list(labels)
        eta, support = _estimate_columns(task, estimates)
        if not isinstance(estimates, np.ndarray):
            self.__dict__["estimates"] = list(estimates)
        true = None
        if truth is not None:
            true, _ = _estimate_columns(task, truth)
            if not isinstance(truth, np.ndarray):
                self.__dict__["truth"] = list(truth)
        self._set_columns(task, y, eta, support, true)

    @classmethod
    def _of_columns(cls, task: Task, label_rows: np.ndarray, estimate_rows: np.ndarray,
                    support: np.ndarray | None = None,
                    truth_rows: np.ndarray | None = None) -> InstanceStream:
        """A stream over columns that already hold valid values; only their
        alignment is checked, and the arrays are made read-only, not copied."""
        stream = cls.__new__(cls)
        stream._set_columns(task, label_rows, estimate_rows, support, truth_rows)
        return stream

    def _set_columns(self, task, label_rows, estimate_rows, support, truth_rows) -> None:
        if len(label_rows) != len(estimate_rows):
            raise DataFormatError(
                f"label/estimate length mismatch: {len(label_rows)} vs {len(estimate_rows)}")
        if truth_rows is not None and len(truth_rows) != len(label_rows):
            raise DataFormatError("truth length does not match the stream")
        self.task = task
        self.label_rows = _readonly(label_rows)
        self.estimate_rows = _readonly(estimate_rows)
        self.support = None if support is None else _readonly(support)
        self.truth_rows = None if truth_rows is None else _readonly(truth_rows)

    def __len__(self) -> int:
        return len(self.label_rows)

    def __iter__(self):
        return iter(zip(self.labels, self.estimates))

    @cached_property
    def labels(self) -> list[Labels]:
        return _row_labels(self.label_rows)

    @cached_property
    def estimates(self) -> list[ProbEstimate]:
        return ProbEstimate._row_views(self.estimate_rows, self.support)

    @cached_property
    def truth(self) -> list[ProbEstimate] | None:
        if self.truth_rows is None:
            return None
        if self.truth_rows is self.estimate_rows:
            return self.estimates
        return ProbEstimate._row_views(self.truth_rows)


def read_labels(path, task: Task) -> list[Labels]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                out.append(())
                continue
            try:
                idx = tuple(sorted(int(tok) for tok in line.split(",")))
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: bad label line {line!r}") from None
            if len(set(idx)) != len(idx):
                raise DataFormatError(f"{path}:{lineno}: duplicate label index")
            try:
                check_labels(task, idx)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            out.append(idx)
    return out


def _read_estimate_columns(path, m: int, *, multiclass: bool = False
                           ) -> tuple[np.ndarray, np.ndarray | None]:
    """The (rows, support) of an estimate file, filled straight from its pairs."""
    owner, cols, vals, totals = [], [], [], []
    n = 0
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            pairs = []
            seen = set()
            for tok in line.split():
                head, sep, tail = tok.partition(":")
                try:
                    if not sep:
                        raise ValueError
                    j = int(head)
                    p = float(tail)
                except ValueError:
                    raise DataFormatError(f"{path}:{n}: malformed pair {tok!r}") from None
                if j in seen:
                    raise DataFormatError(f"{path}:{n}: duplicate index {j}")
                seen.add(j)
                if not 0.0 <= p <= 1.0:
                    raise DataFormatError(f"{path}:{n}: probability {p} outside [0, 1]")
                if not 0 <= j < m:
                    raise DataFormatError(f"{path}:{n}: index {j} out of range")
                pairs.append((j, p))
            # the checks above cover every condition of ProbEstimate: indices
            # in range and distinct, probabilities in [0, 1] with NaN rejected
            pairs.sort()
            if multiclass:
                # summed in index order, as ProbEstimate.total sums its values
                total = float(np.array([p for _, p in pairs], dtype=np.float64).sum())
                if abs(total - 1.0) > _MC_SUM_SLACK:
                    raise DataFormatError(
                        f"{path}:{n}: multiclass probabilities sum to {total:.6g}")
                totals.append(total)
            owner.extend([n - 1] * len(pairs))
            cols.extend(j for j, _ in pairs)
            vals.extend(p for _, p in pairs)
    rows, support = _listed_columns(n, m, owner, cols, vals)
    if multiclass:
        # x / 1.0 == x, so rows that already sum to 1 keep their bits
        rows /= np.array(totals)[:, None]
    return rows, support


def read_estimates(path, m: int, *, multiclass: bool = False) -> list[ProbEstimate]:
    """One estimate per line; multiclass lines are renormalized to sum to 1."""
    rows, support = _read_estimate_columns(path, m, multiclass=multiclass)
    return ProbEstimate._row_views(_readonly(rows), support)


def write_labels(path, label_rows: np.ndarray) -> None:
    """One line per (m,) 0/1 label row: its positive indices, comma-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for y in _row_labels(label_rows):
            fh.write(",".join(str(j) for j in y) + "\n")


def write_estimates(path, estimate_rows: np.ndarray, support: np.ndarray | None = None) -> None:
    """One line per (m,) probability row: ``index:prob`` for each label that its
    ``support`` row lists (every label when support is None)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(estimate_rows.tolist()):
            listed = range(len(row)) if support is None else np.flatnonzero(support[i]).tolist()
            fh.write(" ".join(f"{j}:{row[j]:.6g}" for j in listed) + "\n")


def load_stream(labels_path, probs_path, task: Task) -> InstanceStream:
    labels = read_labels(labels_path, task)
    rows, support = _read_estimate_columns(probs_path, task.m,
                                           multiclass=task.is_multiclass)
    return InstanceStream._of_columns(task, label_rows(task, labels), rows, support)


@dataclass(frozen=True)
class SynthModel:
    """Latent-factor label model with known conditional probabilities.

    Per-label prior logits are perturbed by ``w_j . x`` with x standard normal
    of dimension d and a sigmoid link; d = 0 makes every conditional equal to
    the prior.  Multiclass models normalize the per-label sigmoids into a
    distribution.
    """

    task: Task
    d: int = 4
    prior_low: float = 0.15
    prior_high: float = 0.45
    weight_scale: float = 1.25
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.prior_low <= self.prior_high < 1.0:
            raise ValueError("priors must satisfy 0 < low <= high < 1")
        if self.d < 0:
            raise ValueError("latent dimension must be nonnegative")
        if not math.isfinite(self.weight_scale):
            raise ValueError("weight scale must be finite")

    def params(self) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic (priors, weights) drawn from the model seed."""
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([int(self.seed), 0xA11CE])))
        m = self.task.m
        priors = rng.uniform(self.prior_low, self.prior_high, size=m)
        if self.d == 0:
            return priors, np.zeros((m, 0))
        w = rng.normal(0.0, self.weight_scale / math.sqrt(self.d), size=(m, self.d))
        return priors, w

    def conditionals(self, x: np.ndarray) -> np.ndarray:
        """eta(x) for a batch of latent vectors x of shape (n, d)."""
        priors, w = self.params()
        n, m = len(x), len(w)
        # with one row on either side x @ w.T would take numpy's matrix-vector
        # path, which rounds differently: pad to two rows so that a stream's
        # conditionals stay an exact prefix of a longer stream's
        x2, w2 = (np.pad(a, ((0, 2 - len(a)), (0, 0))) if len(a) < 2 else a for a in (x, w))
        # a huge weight scale overflows x @ w.T to +-inf, and exp overflows to
        # inf for logits below about -709; the sigmoid's exact limits there
        # are 1 and 1 / (1 + inf) = 0.  Only inf - inf (a NaN logit) has none.
        with np.errstate(over="ignore", invalid="ignore"):
            logits = np.log(priors / (1.0 - priors))[None, :] + (x2 @ w2.T)[:n, :m]
            eta = 1.0 / (1.0 + np.exp(-logits))
        if np.isnan(logits).any():
            raise ValueError(f"weight scale too large: {self.weight_scale:g} "
                             "gives an undefined logit (inf - inf)")
        if self.task.is_multiclass:
            totals = eta.sum(axis=1, keepdims=True)
            if not totals.all():
                raise ValueError(f"weight scale too large: {self.weight_scale:g} "
                                 "underflows every class probability of an instance to 0")
            eta = eta / totals
        return eta


def parse_model_file(path) -> SynthModel:
    """Read a flat key=value model description; unset fields keep their defaults."""
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise DataFormatError(f"{path}:{lineno}: expected key=value")
            key = key.strip()
            if key not in _MODEL_KEYS:
                raise DataFormatError(f"{path}:{lineno}: unknown model key {key!r}")
            fields[key] = val.strip()
    try:
        values = {key: _MODEL_KEYS[key](val) for key, val in fields.items()}
        return SynthModel(Task(values.pop("task", "multilabel"), values.pop("m")), **values)
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad model file ({exc})") from None


def _latent_draw(model: SynthModel, n: int,
                 seed: int | None) -> tuple[np.ndarray, np.random.Generator]:
    """The (n, m) exact conditionals of n instances and the generator of their labels.

    Latents and labels come from two independent child generators, so the
    conditionals do not depend on whether labels are drawn.
    """
    entropy = model.seed if seed is None else seed
    ss_x, ss_y = np.random.SeedSequence([int(entropy), 0xDA7A]).spawn(2)
    rng_x = np.random.Generator(np.random.PCG64(ss_x))
    x = rng_x.standard_normal((n, model.d)) if model.d > 0 else np.zeros((n, 0))
    return model.conditionals(x), np.random.Generator(np.random.PCG64(ss_y))


def synth_generate(model: SynthModel, n: int, seed: int | None = None) -> InstanceStream:
    """Draw n i.i.d. instances; estimates start out equal to the exact truth.

    Truth and estimates are one read-only (n, m) conditionals matrix, and the
    labels are drawn straight into 0/1 rows.  For a fixed seed a shorter
    stream is an exact prefix of a longer one.
    """
    eta, rng_y = _latent_draw(model, n, seed)
    _check_probabilities(eta)
    m = model.task.m
    if model.task.is_multiclass:
        u = rng_y.random(n)
        cls = np.minimum((u[:, None] > np.cumsum(eta, axis=1)).sum(axis=1), m - 1)
        y = np.zeros((n, m))
        y[np.arange(n), cls] = 1.0
    else:
        y = (rng_y.random((n, m)) < eta).astype(np.float64)
    return InstanceStream._of_columns(model.task, y, eta, truth_rows=eta)


def perturb_estimates(stream: InstanceStream, sigma: float,
                      seed: int) -> tuple[InstanceStream, float]:
    """Replace estimates with truth + clipped Gaussian noise.

    Returns the new stream and the realized mean per-instance L2 estimation
    error, the quantity the regret bookkeeping needs.
    """
    if stream.truth_rows is None:
        raise ValueError("perturbation requires exact conditionals in the stream")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 0x5E11])))
    n, m = len(stream), stream.task.m
    dense = stream.truth_rows
    # one (n, m) draw gives the same numbers as n draws of size m
    noisy = np.clip(dense + rng.normal(0.0, sigma, size=(n, m)), 0.0, 1.0)
    if stream.task.is_multiclass:
        totals = noisy.sum(axis=1, keepdims=True)
        np.divide(noisy, totals, out=noisy, where=totals > 0)
    # row by row: norm(axis=1) can differ in the last bit from the 1-d norm
    err = sum(float(np.linalg.norm(row)) for row in noisy - dense)
    return (InstanceStream._of_columns(stream.task, stream.label_rows, noisy,
                                       truth_rows=dense), err / max(n, 1))


def sparsify_estimates(stream: InstanceStream, k: int) -> InstanceStream:
    """Keep only the k largest-probability listed entries of every estimate
    (ties: smaller label index); the dropped labels get probability 0."""
    eta, listed = stream.estimate_rows, stream.support
    # unlisted labels sort after every listed one, so they are never kept
    keys = -eta if listed is None else np.where(listed, -eta, np.inf)
    order = np.argsort(keys, axis=1, kind="stable")[:, :k]
    support = np.zeros(eta.shape, dtype=bool)
    support[np.arange(len(eta))[:, None], order] = True
    if listed is not None:
        support &= listed
    return InstanceStream._of_columns(stream.task, stream.label_rows,
                                      np.where(support, eta, 0.0),
                                      None if support.all() else support, stream.truth_rows)


def shuffle(stream: InstanceStream, seed: int) -> InstanceStream:
    """Seeded permutation preserving label/estimate/support/truth alignment."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 0x5F1E])))
    perm = rng.permutation(len(stream))
    eta = stream.estimate_rows[perm]
    truth = stream.truth_rows
    if truth is stream.estimate_rows:
        truth = eta
    elif truth is not None:
        truth = truth[perm]
    return InstanceStream._of_columns(
        stream.task, stream.label_rows[perm], eta,
        None if stream.support is None else stream.support[perm], truth)
