"""Confusion-matrix bookkeeping for online multiclass and multilabel prediction.

Storage conventions used throughout the package:

* multiclass: an ``(m, m)`` array of counts indexed ``[true, predicted]``;
* multilabel: an ``(m, 2, 2)`` stack of per-label binary blocks indexed
  ``[label, true, predicted]``, so within a block ``tn = [0, 0]``,
  ``fp = [0, 1]``, ``fn = [1, 0]``, ``tp = [1, 1]``; ``_cells`` reads and
  ``_pack`` writes that layout for every module but the per-step add.

At the public boundary labels and predictions are sorted tuples of positive
label indices; inside a run they are (m,) rows: 0/1 float64 label rows
(one-hot for multiclass) and boolean decision rows.  A
:class:`ConfusionState` keeps unnormalized counts plus the instance count so
that repeated updates stay exact (no recursive rescaling); its regularizer
``lam`` is added once to every entry at initialization and therefore carries
weight ``lam / t`` after normalization at step ``t``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

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
        if self.m < 1:
            raise ValueError("need at least one label")

    @property
    def is_multiclass(self) -> bool:
        return self.kind == MULTICLASS

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m, self.m) if self.is_multiclass else (self.m, 2, 2)


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

    Direct construction, :meth:`from_dense`, :meth:`from_pairs` and :meth:`top`
    check every estimate on its own.
    """

    m: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
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

    @classmethod
    def from_pairs(cls, m: int, pairs: list[tuple[int, float]]) -> "ProbEstimate":
        pairs = sorted(pairs)
        idx = np.array([p[0] for p in pairs], dtype=np.int64)
        val = np.array([p[1] for p in pairs], dtype=np.float64)
        return cls(m, idx, val)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.m)
        out[self.indices] = self.values
        return out

    def top(self, k: int) -> "ProbEstimate":
        """Keep the k largest-probability entries (ties: smaller label index)."""
        if self.indices.size <= k:
            return self
        return ProbEstimate(self.m, *top_entries(self.indices, self.values, k))

    @property
    def total(self) -> float:
        return float(self.values.sum())


def top_entries(indices: np.ndarray, values: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest of the listed ``values``, as sorted (indices, values).

    Ties go to the smaller label index; with k or fewer entries all are kept.
    """
    if indices.size <= k:
        return indices, values
    keep = np.sort(indices[np.argsort(-values, kind="stable")[:k]])
    return keep, values[np.searchsorted(indices, keep)]


def check_labels(task: Task, labels: Labels, *, prediction: bool = False) -> Labels:
    """Validate a sorted tuple of label indices against the task."""
    prev = -1
    for j in labels:
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
    """Rewrite an (m, m) confusion matrix as m per-label binary blocks.

    Per label j: tp is the diagonal cell, fp the rest of column j, fn the
    rest of row j, tn everything else; each block sums to the total mass.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("expected a square matrix")
    diag = np.diagonal(C)
    row = C.sum(axis=1)
    col = C.sum(axis=0)
    return _pack(C.sum() - row - col + diag, col - diag, row - diag, diag,
                 (C.shape[0], 2, 2))


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
        # flat index of every multilabel tn cell [j, 0, 0]
        self._tn_cells = np.arange(0, 4 * self.task.m, 4)

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

        Multiclass: every predicted column receives the row.  Multilabel: label
        j adds ref_j to its true-positive row and 1 - ref_j to its true-negative
        row, in the column of its prediction.  Adding 0.0 is exact, so a 0/1
        row gives the same counts as counting label pairs.
        """
        if self.task.is_multiclass:
            # one predicted column (no budget) is added as a view; an index
            # gathers and scatters a copy, which is cheaper only for several
            cols = dec.nonzero()[0]
            if cols.size == 1:
                self.counts[:, cols[0]] += ref
            else:
                self.counts[:, cols] += ref[:, None]
        else:
            # flat index of cell [j, 0, dec_j]; cell [j, 1, dec_j] is 2 further on
            cells = self._tn_cells + dec
            flat = self.counts.reshape(-1)
            flat[cells] += 1.0 - ref
            flat[cells + 2] += ref
        self.t += 1

    def normalized(self) -> np.ndarray:
        """Counts divided by t; at t=0 the raw lam-filled accumulator."""
        if self.t == 0:
            return self.counts.copy()
        return self.counts / self.t

    def normalized_blocks(self, indices: np.ndarray) -> np.ndarray:
        """Normalized per-label blocks for a label subset (multilabel only)."""
        return self.counts[indices] / max(self.t, 1)


def indicator_row(m: int, labels: Labels, dtype) -> np.ndarray:
    """The (m,) row with a one at each listed label and zeros elsewhere."""
    row = np.zeros(m, dtype=dtype)
    row[list(labels)] = 1
    return row


def label_rows(task: Task, labels: Sequence[Labels]) -> np.ndarray:
    """(n, m) float64 0/1 rows of n label tuples (one-hot for multiclass labels),
    checked as a whole with the rule of :func:`check_labels`.

    A ``ValueError`` names the first bad tuple: an index that is not an int in
    0..m-1, indices not strictly increasing (unsorted or repeated), or a
    multiclass tuple without exactly one class.
    """
    n = len(labels)
    sizes = np.fromiter(map(len, labels), dtype=np.intp, count=n)
    flat = np.array([j for y in labels for j in y])
    if flat.size and flat.dtype.kind not in "iu":
        raise ValueError(f"label indices must be integers in 0..{task.m - 1}")
    owner = np.repeat(np.arange(n), sizes)
    # a bad element: out of range, or not above its predecessor in the same row
    wrong = (flat < 0) | (flat >= task.m)
    wrong[1:] |= (flat[1:] <= flat[:-1]) & (owner[1:] == owner[:-1])
    if wrong.any():
        y = labels[owner[wrong.argmax()]]
        raise ValueError(f"bad label set {y!r} for m={task.m}")
    if task.is_multiclass and np.any(sizes != 1):
        y = labels[int(np.argmax(sizes != 1))]
        raise ValueError(f"multiclass labels must contain exactly one class, got {y!r}")
    rows = np.zeros((n, task.m))
    rows[owner, flat.astype(np.intp, copy=False)] = 1.0
    return rows


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


def check_regularizer(lam: float) -> None:
    """The regularizer ``lam`` of a confusion state: finite and >= 0."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("regularizer must be finite and nonnegative")


def init_state(task: Task, lam: float) -> ConfusionState:
    check_regularizer(lam)
    return ConfusionState(task, lam, np.full(task.shape, float(lam)))
