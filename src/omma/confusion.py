"""Confusion-matrix bookkeeping for online multiclass and multilabel prediction.

Storage conventions used throughout the package:

* multiclass: an ``(m, m)`` array of counts indexed ``[true, predicted]``;
* multilabel: an ``(m, 2, 2)`` stack of per-label binary blocks indexed
  ``[label, true, predicted]``, so within a block ``tn = [0, 0]``,
  ``fp = [0, 1]``, ``fn = [1, 0]``, ``tp = [1, 1]``; ``_cells`` reads and
  ``_pack`` writes that layout for every module but the per-step add, which
  adds one instance as one scatter of its (2, m) reference pair ``[1 - ref,
  ref]`` into the cells ``[j, 0, d_j]`` and ``[j, 1, d_j]``.

At the public boundary labels and predictions are sorted tuples of positive
label indices; inside a run they are (m,) rows: 0/1 float64 label rows
(one-hot for multiclass) and boolean decision rows.  A
:class:`ConfusionState` keeps unnormalized counts plus the instance count so
that repeated updates stay exact (no recursive rescaling); its regularizer
``lam`` is added once to every entry at initialization and therefore carries
weight ``lam / t`` after normalization at step ``t``.  It is at most
``LAM_MAX`` = 1e50: Matthews multiplies four marginal sums of the
regularized counts, about lam**4 = 1e200 there, far inside the float64
range (1.8e308), where a macro-matthews run at lam = 1e77 overflowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MULTICLASS = "multiclass"
MULTILABEL = "multilabel"

Labels = tuple[int, ...]


@dataclass(frozen=True)
class Task:
    """Classification task flavor: ``multiclass`` or ``multilabel`` with m labels."""

    kind: str
    m: int

    def __post_init__(self) -> None:
        if self.kind not in (MULTICLASS, MULTILABEL):
            raise ValueError(f"unknown task kind: {self.kind!r}")
        if self.kind == MULTICLASS and self.m < 2:
            raise ValueError("multiclass tasks need m >= 2")
        if not is_integer(self.m) or self.m < 1:
            raise ValueError("need at least one label")

    @cached_property  # cached, like shape: every learner step reads them
    def is_multiclass(self) -> bool:
        return self.kind == MULTICLASS

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.m, self.m) if self.is_multiclass else (self.m, 2, 2)

    @cached_property
    def scale(self) -> np.ndarray:
        """m as a read-only 0-d float64 array: the averaging scale of the
        metrics' step arithmetic."""
        return _const(self.m)


def _const(x) -> np.ndarray:
    """x as a read-only 0-d float64 array.  numpy converts a Python number
    operand on every call; an array operand takes the faster path, and a
    float64 one computes the same bits as the Python float on float64 arrays."""
    out = np.array(float(x))
    out.flags.writeable = False
    return out


_ZERO = _const(0.0)
_ONE = _const(1.0)


def multiclass(m: int) -> Task:
    return Task(MULTICLASS, m)


def multilabel(m: int) -> Task:
    return Task(MULTILABEL, m)


def _check_probabilities(values: np.ndarray) -> None:
    # written as "all inside" rather than "any outside" so that NaN fails too
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class ProbEstimate:
    """Sparse vector of per-label probabilities; unlisted labels have probability 0.

    Direct construction and :meth:`from_dense` check every estimate on its own.
    """

    m: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices)
        # an empty list is float64; a bool is no index, and a float must not truncate
        if idx.size and idx.dtype.kind not in "iu":
            raise ValueError(f"label indices must be integers in 0..{self.m - 1}")
        idx = idx.astype(np.int64, copy=False)
        val = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices and values must be 1-d and aligned")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.m:
                raise ValueError("label index out of range")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")
        _check_probabilities(val)

    @classmethod
    def _prechecked(cls, m: int, indices: np.ndarray, values: np.ndarray) -> "ProbEstimate":
        """An estimate from arrays that already satisfy every condition of
        ``__post_init__`` (int64 indices, float64 values); nothing is re-checked."""
        est = object.__new__(cls)
        est.__dict__.update(m=m, indices=indices, values=values)
        return est

    @classmethod
    def from_dense(cls, vec: np.ndarray) -> "ProbEstimate":
        vec = np.asarray(vec, dtype=np.float64)
        return cls(vec.shape[0], np.arange(vec.shape[0], dtype=np.int64), vec.copy())

    @classmethod
    def _row_views(cls, rows: np.ndarray,
                   support: np.ndarray | None = None) -> list["ProbEstimate"]:
        """The estimates of a checked, read-only (n, m) matrix; nothing is re-checked.

        ``support`` is an (n, m) boolean matrix of the labels each row lists,
        or None when every row lists all m labels; then the values are row
        views of ``rows`` and share one read-only index array.
        """
        m = rows.shape[1]
        if support is None:
            indices = np.arange(m, dtype=np.int64)
            indices.flags.writeable = False
            return [cls._prechecked(m, indices, row) for row in rows]
        out = []
        for row, listed in zip(rows, support):
            indices = np.flatnonzero(listed).astype(np.int64, copy=False)
            out.append(cls._prechecked(m, indices, row[indices]))
        return out

    def dense(self) -> np.ndarray:
        out = np.zeros(self.m)
        out[self.indices] = self.values
        return out


def top_entries(indices: np.ndarray, values: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest of the listed ``values``, as sorted (indices, values).

    Ties go to the smaller label index; with k or fewer entries all are kept.
    """
    if indices.size <= k:
        return indices, values
    keep = np.sort(indices[np.argsort(-values, kind="stable")[:k]])
    return keep, values[np.searchsorted(indices, keep)]


def is_integer(x) -> bool:
    """An int or a numpy integer, and no bool."""
    # type(x) is int holds for no bool, unlike isinstance(x, int)
    return type(x) is int or isinstance(x, np.integer)


def check_seed(seed) -> None:
    """A random seed: an int or a numpy integer >= 0, and no bool."""
    if not (is_integer(seed) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def check_labels(task: Task, labels: Labels, *, prediction: bool = False) -> Labels:
    """Validate a sorted tuple of label indices against the task: ints (numpy
    integers too, bools not) in 0..m-1, strictly increasing, and exactly one
    class for a multiclass label (a prediction may hold any number)."""
    prev = -1
    for j in labels:
        if not is_integer(j):
            raise ValueError(f"label indices must be integers in 0..{task.m - 1}")
        if not prev < j < task.m:
            raise ValueError(f"bad label set {labels!r} for m={task.m}")
        prev = j
    if task.is_multiclass and not prediction and len(labels) != 1:
        raise ValueError("multiclass labels must contain exactly one class")
    return labels


def _cells(blocks):
    """The (tn, fp, fn, tp) cells of (..., 2, 2) blocks, as views."""
    return blocks[..., 0, 0], blocks[..., 0, 1], blocks[..., 1, 0], blocks[..., 1, 1]


def _pack(tn, fp, fn, tp, shape):
    """The (..., 2, 2) blocks of the given shape with cells (tn, fp, fn, tp)."""
    out = np.empty(shape)
    out[..., 0, 0] = tn
    out[..., 0, 1] = fp
    out[..., 1, 0] = fn
    out[..., 1, 1] = tp
    return out


def expected_instance_confusion(task: Task, eta: ProbEstimate, yhat: Labels) -> np.ndarray:
    """Expected single-instance confusion under label marginals ``eta``: the
    n = 1 case of :func:`batch_counts`."""
    check_labels(task, yhat, prediction=True)
    if eta.m != task.m:
        raise ValueError("estimate size does not match the task")
    return batch_counts(task, eta.dense()[None], indicator_row(task.m, yhat, bool)[None])


def multiclass_to_multilabel(C: np.ndarray) -> np.ndarray:
    """Rewrite an (m, m) confusion matrix as m per-label binary blocks; a
    stack of matrices (..., m, m) becomes a stack of (..., m, 2, 2) blocks.

    Per label j: tp is the diagonal cell, fp the rest of column j, fn the
    rest of row j, tn everything else; each block sums to the total mass.
    tn, ``total - row - col + diag``, can round below zero: it is clamped at 0
    by ``np.maximum(0.0, tn)``, which keeps every tn >= 0 (-0.0 too) as it is.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim < 2 or C.shape[-1] != C.shape[-2]:
        raise ValueError("expected a square matrix")
    diag = C.diagonal(0, -2, -1)
    row = C.sum(axis=-1)
    col = C.sum(axis=-2)
    total = C.sum(axis=(-2, -1))[..., None]
    return _pack(np.maximum(_ZERO, total - row - col + diag), col - diag, row - diag, diag,
                 C.shape[:-1] + (2, 2))


@dataclass
class ConfusionState:
    """Running accumulator of confusion counts; the only memory of the online algorithms.

    ``counts`` holds lam plus the exact sum of per-instance contributions; the
    normalized matrix is ``counts / max(t, 1)``.  Single-writer: one state per
    algorithm instance.
    """

    task: Task
    lam: float
    counts: np.ndarray = field(repr=False)
    t: int = 0

    def __post_init__(self) -> None:
        # the per-instance add writes through a flat view of the counts
        self.counts = np.ascontiguousarray(self.counts, dtype=np.float64)
        # flat index of every multilabel cell [j, 0, 0] (row 0) and [j, 1, 0]
        # (row 1), 2 further on: a (2, m) pair scatters to it plus the decisions
        self._pair_cells = np.arange(0, 4 * self.task.m, 4) + np.array([[0], [2]])
        # max(t, 1) as a 0-d float64 array, written before each division
        self._divisor = np.empty(())

    def update(self, y: Labels, yhat: Labels) -> None:
        """Fold in one observed (label, prediction) pair."""
        check_labels(self.task, y)
        check_labels(self.task, yhat, prediction=True)
        self.add(indicator_row(self.task.m, y, np.float64),
                 indicator_row(self.task.m, yhat, bool))

    def update_semi(self, eta: ProbEstimate, yhat: Labels) -> None:
        """Fold in one expected (estimate, prediction) pair instead of a label."""
        if eta.m != self.task.m:
            raise ValueError("estimate size does not match the task")
        check_labels(self.task, yhat, prediction=True)
        self.add(eta.dense(), indicator_row(self.task.m, yhat, bool))

    def add(self, ref: np.ndarray, dec: np.ndarray) -> None:
        """Add a dense reference row (0/1 labels or probabilities) against the
        (m,) boolean decision row ``dec``; neither is checked.

        Multiclass: every predicted column receives the row.  Multilabel: the
        row's ``[1 - ref, ref]`` pair goes through :meth:`add_pair`.  Adding
        0.0 is exact, so a 0/1 row gives the same counts as counting label
        pairs.  A run's rows are float64, so 1 - ref is taken in float64 as
        the counts are.
        """
        if self.task.is_multiclass:
            # one predicted column (no budget) is added as a view; an index
            # gathers and scatters a copy, which is cheaper only for several
            cols = dec.nonzero()[0]
            if cols.size == 1:
                self.counts[:, cols[0]] += ref
            else:
                self.counts[:, cols] += ref[:, None]
            self.t += 1
        else:
            self.add_pair(np.array((_ONE - ref, ref)), dec)

    def add_pair(self, pair: np.ndarray, dec: np.ndarray) -> None:
        """Add the (2, m) reference pair ``[1 - ref, ref]`` of one multilabel
        instance against its (m,) boolean decision row; neither is checked.

        One scatter: label j adds 1 - ref_j to its true-negative row and ref_j
        to its true-positive row, each in the column of its prediction, the
        cells ``[j, 0, dec_j]`` and ``[j, 1, dec_j]``.  These 2m cells are
        distinct, so each receives exactly one addition.
        """
        self.counts.reshape(-1)[self._pair_cells + dec] += pair
        self.t += 1

    def normalized(self) -> np.ndarray:
        """Counts divided by t; at t=0 a copy of the raw lam-filled accumulator."""
        self._divisor[()] = self.t or 1
        return self.counts / self._divisor

    def normalized_blocks(self, indices: np.ndarray) -> np.ndarray:
        """Normalized per-label blocks for a label subset (multilabel only)."""
        self._divisor[()] = self.t or 1
        return self.counts[indices] / self._divisor


def indicator_row(m: int, labels: Labels, dtype) -> np.ndarray:
    """The (m,) row with a one at each listed label and zeros elsewhere."""
    row = np.zeros(m, dtype=dtype)
    row[list(labels)] = 1
    return row


def check_label_rows(task: Task, rows: np.ndarray) -> None:
    """An (n, m) label matrix: 0/1 entries, one-hot rows for multiclass."""
    if rows.ndim != 2 or rows.shape[1] != task.m:
        raise ValueError(f"expected an (n, {task.m}) matrix of label rows")
    if not np.all((rows == 0.0) | (rows == 1.0)):
        raise ValueError("label rows must hold 0/1 values")
    if task.is_multiclass and np.any(rows.sum(axis=1) != 1.0):
        raise ValueError("multiclass label rows must contain exactly one class")


def batch_counts(task: Task, ref: np.ndarray, dec: np.ndarray) -> np.ndarray:
    """Summed confusion of n reference rows against n decision rows, both (n, m).

    Reference rows hold 0/1 labels (one-hot for multiclass) or probabilities;
    decision rows hold 0/1 predictions or prediction probabilities.  Sums of
    0/1 rows are exact integers in float64, so they do not depend on how a
    sequence of rows is split into batches.

    Both matrices are counted row-major whatever their memory layout, so the
    result depends on their values alone.  A multiclass count is ``ref.T @
    dec``.  A multilabel cell, such as tp = sum_i ref_ij * dec_ij, adds the
    n products of each label in row order in one fused pass; a single label
    is one contiguous column, which numpy sums pairwise instead.  Either way
    the cells equal ``(ref * dec).sum(axis=0)`` and its three siblings bit
    for bit whenever each product is exact: 0/1 decisions at any n, or a
    single row (n = 1).  Fractional decisions over several rows may round
    differently, since the fused pass may use a fused multiply-add.
    """
    ref = np.ascontiguousarray(ref, dtype=np.float64)
    # cast, then reorder: a cast that also reorders runs several times slower
    d = np.ascontiguousarray(np.asarray(dec, dtype=np.float64))
    if task.is_multiclass:
        return ref.T @ d
    nref, nd = 1.0 - ref, 1.0 - d
    pairs = (nref, nd), (nref, d), (ref, nd), (ref, d)  # tn, fp, fn, tp
    if task.m == 1:
        return _pack(*[(a * b).sum(axis=0) for a, b in pairs], task.shape)
    return _pack(*[np.einsum("ij,ij->j", a, b) for a, b in pairs], task.shape)


# the largest regularizer (see the module docstring)
LAM_MAX = 1e50


def check_regularizer(lam: float) -> None:
    """The regularizer ``lam`` of a confusion state: finite, >= 0 and at
    most ``LAM_MAX``."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("regularizer must be finite and nonnegative")
    if lam > LAM_MAX:
        raise ValueError(f"regularizer must be at most {LAM_MAX:g}")


def init_state(task: Task, lam: float) -> ConfusionState:
    """The t = 0 state of regularizer ``lam``; a lam of -0.0 is stored as
    +0.0, so that no count of a run is a negative zero."""
    check_regularizer(lam)
    lam = float(lam) + 0.0
    return ConfusionState(task, lam, np.full(task.shape, lam))
