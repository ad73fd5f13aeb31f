"""Confusion-matrix utility metrics: values, analytic gradients, averaging modes.

Every metric is a scalar function of a confusion matrix.  Binary formulas act
on a single ``tn/fp/fn/tp`` block; they extend to m labels through macro
averaging (mean of per-block values) and micro averaging (value of the mean
block).  A handful of metrics additionally have native ``(m, m)`` multiclass
forms built from per-class recalls.  A recall depends only on its own row, so
each native gradient is a per-row constant plus a diagonal, and its kernel
returns that (row, diag) pair from one pass over the diagonal and row sums.

Each binary base returns the gradient's four partials ``(dtn, dfp, dfn, dtp)``
per block, a structural zero as the scalar 0.0, and one method divides them
by m for macro and micro averaging.  Values and partials read macro and
binary blocks as given and micro averaging's mean block, shared by the m
labels: one confusion's as numpy scalars, a stack's on a label axis of length
1.  The bases square as ``x * x``, never ``x ** 2`` (a numpy scalar's ``** 2``
is ``pow(x, 2)``, which can round one unit apart from an array's), so one
confusion and an (R, ...) stack run the same formulas to the same bits.
:meth:`Metric.gradient` packs the partials into the gradient;
:meth:`Metric.coefficients` forms the decision rule's ``alpha = dtp + dtn -
dfp - dfn`` and ``beta = dtn - dfp`` from them directly, per label or,
through the one-vs-rest blocks, per class.  A native metric's coefficients
are its diagonal and 0.

All denominators are stabilized by adding ``epsilon``, and the ratio factors of
the mean-family metrics (G/H/Q-mean) are stabilized as ``(num + eps) /
(den + eps)`` so values and gradients stay finite on every nonnegative matrix,
including the all-zero one.  Gradients square the stabilized denominators,
and for epsilon below about 1e-154 that square leaves the normal float64
range, so a positive epsilon is at least ``EPSILON_FLOOR``; 0 turns the
stabilizer off.  Gradients differentiate exactly the stabilized
expression that the value computes, which is what makes finite-difference
checks exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .confusion import Task, _cells, _pack, multiclass_to_multilabel

BINARY = "binary"
MACRO = "macro"
MICRO = "micro"
MULTICLASS_NATIVE = "multiclass"

_AVERAGINGS = (BINARY, MACRO, MICRO, MULTICLASS_NATIVE)

# the smallest positive stabilizer; its square and products with 1e6-scale
# counts stay well inside the float64 range
EPSILON_FLOOR = 1e-100


class CostCoefficients(NamedTuple):
    """Weights of the decision rule: predict label j when alpha_j eta_j >= beta_j;
    score class l as alpha_l eta_l - beta_l sum(eta).  beta is an array, or the
    scalar 0.0 where every beta is a structural zero."""

    alpha: np.ndarray
    beta: np.ndarray | float


def _coefficients(dtn, dfp, dfn, dtp, shape) -> CostCoefficients:
    """(alpha, beta) of the given shape from the four partials; a scalar, or a
    micro stack's (R, 1) partial, is shared by the labels it covers."""
    alpha = dtp + dtn - dfp - dfn
    beta = dtn - dfp
    # python floats have no shape
    if getattr(alpha, "shape", ()) != shape:
        alpha = np.full(shape, alpha)
    if getattr(beta, "shape", ()) != shape:
        beta = np.full(shape, beta)
    return CostCoefficients(alpha, beta)


def _safe_div(num, den):
    """num / den with 0/0 -> 0 (used only where num vanishes with den)."""
    den = np.asarray(den, dtype=np.float64)
    zero = den == 0.0
    if np.any(zero):
        den = np.where(zero, 1.0, den)
        return np.where(zero, 0.0, num / den)
    return num / den


# --- binary bases: value(blocks) and the gradient's four partials (dtn, dfp,
# dfn, dtp), vectorized over leading axes; a structural zero is a scalar 0.0


def _acc_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    return tp + tn


def _acc_g(blocks, eps, beta):
    return 1.0, 0.0, 0.0, 1.0


def _bacc_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    return tp / (2.0 * (tp + fn) + eps) + tn / (2.0 * (tn + fp) + eps)


def _bacc_g(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    d1, d2 = 2.0 * (tp + fn) + eps, 2.0 * (tn + fp) + eps
    d1, d2 = d1 * d1, d2 * d2
    return (2.0 * fp + eps) / d2, -2.0 * tn / d2, -2.0 * tp / d1, (2.0 * fn + eps) / d1


def _recall_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    return tp / (tp + fn + eps)


def _recall_g(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    d = tp + fn + eps
    d2 = d * d
    return 0.0, 0.0, -tp / d2, (fn + eps) / d2


def _precision_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    return tp / (tp + fp + eps)


def _precision_g(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    d = tp + fp + eps
    d2 = d * d
    return 0.0, -tp / d2, 0.0, (fp + eps) / d2


def _fbeta_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    b2 = beta * beta
    return (1.0 + b2) * tp / ((1.0 + b2) * tp + b2 * fn + fp + eps)


def _fbeta_g(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    b2 = beta * beta
    b2fn = b2 * fn
    d = (1.0 + b2) * tp + b2fn + fp + eps
    d2 = d * d
    return (0.0, -(1.0 + b2) * tp / d2, -(1.0 + b2) * b2 * tp / d2,
            (1.0 + b2) * (b2fn + fp + eps) / d2)


def _jaccard_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    return tp / (tp + fp + fn + eps)


def _jaccard_g(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    d = tp + fp + fn + eps
    d2 = d * d
    dfp = -tp / d2
    return 0.0, dfp, dfp, (fp + fn + eps) / d2


def _rates(blocks, eps):
    """Stabilized true-positive and true-negative rates and their denominators."""
    tn, fp, fn, tp = _cells(blocks)
    dp = tp + fn + eps
    dn = tn + fp + eps
    return (tp + eps) / dp, (tn + eps) / dn, dp, dn


def _rate_partials(blocks, eps, dv_drp, dv_drn, dp, dn):
    """Chain dv/drp and dv/drn through the two stabilized rates to the cells."""
    tn, fp, fn, tp = _cells(blocks)
    dp2 = dp * dp
    dn2 = dn * dn
    return (dv_drn * fp / dn2, dv_drn * (-(tn + eps)) / dn2,
            dv_drp * (-(tp + eps)) / dp2, dv_drp * fn / dp2)


def _gmean_v(blocks, eps, beta):
    rp, rn, _, _ = _rates(blocks, eps)
    return np.sqrt(rp * rn)


def _gmean_g(blocks, eps, beta):
    rp, rn, dp, dn = _rates(blocks, eps)
    v = np.sqrt(rp * rn)
    return _rate_partials(blocks, eps, _safe_div(rn, 2.0 * v), _safe_div(rp, 2.0 * v),
                          dp, dn)


def _hmean_v(blocks, eps, beta):
    rp, rn, _, _ = _rates(blocks, eps)
    return 2.0 * rp * rn / (rp + rn)


def _hmean_g(blocks, eps, beta):
    rp, rn, dp, dn = _rates(blocks, eps)
    s = rp + rn
    s2 = s * s
    return _rate_partials(blocks, eps, 2.0 * (rn * rn) / s2, 2.0 * (rp * rp) / s2, dp, dn)


def _qmean_v(blocks, eps, beta):
    rp, rn, _, _ = _rates(blocks, eps)
    up, un = 1.0 - rp, 1.0 - rn
    return 1.0 - np.sqrt(0.5 * (up * up + un * un))


def _qmean_g(blocks, eps, beta):
    rp, rn, dp, dn = _rates(blocks, eps)
    up, un = 1.0 - rp, 1.0 - rn
    root = np.sqrt(0.5 * (up * up + un * un))
    return _rate_partials(blocks, eps, _safe_div(0.5 * up, root),
                          _safe_div(0.5 * un, root), dp, dn)


def _matthews_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    den = np.sqrt((tp + fp + eps) * (tp + fn + eps) * (tn + fp + eps) * (tn + fn + eps))
    return _safe_div(tp * tn - fp * fn, den)


def _matthews_g(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    f1 = tp + fp + eps
    f2 = tp + fn + eps
    f3 = tn + fp + eps
    f4 = tn + fn + eps
    den = np.sqrt(f1 * f2 * f3 * f4)
    v = _safe_div(tp * tn - fp * fn, den)
    dtp = _safe_div(tn, den) - 0.5 * v * (1.0 / f1 + 1.0 / f2)
    dtn = _safe_div(tp, den) - 0.5 * v * (1.0 / f3 + 1.0 / f4)
    dfp = _safe_div(-fn, den) - 0.5 * v * (1.0 / f1 + 1.0 / f3)
    dfn = _safe_div(-fp, den) - 0.5 * v * (1.0 / f2 + 1.0 / f4)
    return dtn, dfp, dfn, dtp


_TIE_WIDTH = 1e-12


def _min_tn_tp_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    return np.minimum(tn, tp)


def _min_tn_tp_g(blocks, eps, beta):
    """Supergradient of min(tn, tp): indicator of the smaller entry, split at ties."""
    tn, fp, fn, tp = _cells(blocks)
    tie = np.abs(tn - tp) <= _TIE_WIDTH
    dtn = np.where(tie, 0.5, (tn < tp).astype(float))
    dtp = np.where(tie, 0.5, (tp < tn).astype(float))
    return dtn, 0.0, 0.0, dtp


_BINARY_BASES = {
    "accuracy": (_acc_v, _acc_g),
    "balanced_accuracy": (_bacc_v, _bacc_g),
    "recall": (_recall_v, _recall_g),
    "precision": (_precision_v, _precision_g),
    "f_beta": (_fbeta_v, _fbeta_g),
    "jaccard": (_jaccard_v, _jaccard_g),
    "g_mean": (_gmean_v, _gmean_g),
    "h_mean": (_hmean_v, _hmean_g),
    "q_mean": (_qmean_v, _qmean_g),
    "matthews": (_matthews_v, _matthews_g),
    "min_tn_tp": (_min_tn_tp_v, _min_tn_tp_g),
}


# --- multiclass-native forms, built from per-class recalls.  Every recall
# gradient is a per-row constant plus a diagonal: r_a depends only on row a of
# C, and dr_a/dC_ab = (1{a=b} d_a - num_a) / d_a^2 for r_a = num_a / d_a.
# np.add.reduce(x) / m equals np.mean(x) bit for bit, without mean's Python
# wrapper, which costs more than the reduction at these sizes.


def _mc_recalls(C, eps):
    """(r, num, d) from one read of the diagonal and the row sums of C, with
    both sides stabilized: r_j = (C_jj + eps) / (row_j + eps).  An (R, m, m)
    stack gives (R, m) results."""
    num = C.diagonal(0, -2, -1) + eps
    d = C.sum(axis=-1) + eps
    return num / d, num, d


def _row_plus_diagonal(row, diag):
    """The (m, m) matrix with row[a] in every entry of row a, plus diag on the diagonal."""
    m = row.shape[0]
    G = np.empty((m, m))
    G[...] = row[:, None]
    # the diagonal of a C-contiguous square matrix is every (m + 1)-th entry
    G.reshape(-1)[:: m + 1] += diag
    return G


def _mc_recall_grad(dpsi_dr, num, d):
    """(row, diag) of a recall-based metric: dpsi/dr_j chained back to row j."""
    return dpsi_dr * (-num) / d**2, dpsi_dr / d


# the values read one (m, m) matrix; the gradient kernels return the (row,
# diag) pair, also of an (R, m, m) stack, reducing over the class axis so that
# a per-matrix scalar stays aligned with its own matrix


def _mc_acc_v(C, eps, beta):
    return float(np.trace(C))


def _mc_acc_g(C, eps, beta):
    return np.zeros(C.shape[:-1]), np.ones(C.shape[:-1])


# balanced accuracy sums r_j = C_jj / (m row_j + eps): only the denominator
# is stabilized


def _mc_bacc_v(C, eps, beta):
    d = C.shape[0] * C.sum(axis=1) + eps
    return float(np.add.reduce(np.diagonal(C) / d))


def _mc_bacc_g(C, eps, beta):
    m = C.shape[-1]
    d = m * C.sum(axis=-1) + eps
    return -C.diagonal(0, -2, -1) * m / d**2, 1.0 / d


def _mc_gmean_v(C, eps, beta):
    r = _mc_recalls(C, eps)[0]
    return float(np.exp(np.add.reduce(np.log(r)) / C.shape[0]))


def _mc_gmean_g(C, eps, beta):
    r, num, d = _mc_recalls(C, eps)
    m = C.shape[-1]
    v = np.exp(np.add.reduce(np.log(r), axis=-1, keepdims=True) / m)
    return _mc_recall_grad(v / (m * r), num, d)


def _mc_hmean_v(C, eps, beta):
    r = _mc_recalls(C, eps)[0]
    return float(C.shape[0] / np.add.reduce(1.0 / r))


def _mc_hmean_g(C, eps, beta):
    r, num, d = _mc_recalls(C, eps)
    s = np.add.reduce(1.0 / r, axis=-1, keepdims=True)
    # pow(s, 2): how s ** 2 rounds where s is a numpy scalar, as it is for
    # one matrix without keepdims; an array's ** 2 is s * s, which can round
    # one unit apart
    return _mc_recall_grad(C.shape[-1] / (np.float_power(s, 2) * r**2), num, d)


def _mc_qmean_v(C, eps, beta):
    r = _mc_recalls(C, eps)[0]
    return float(1.0 - np.sqrt(np.add.reduce((1.0 - r) ** 2) / C.shape[0]))


def _mc_qmean_g(C, eps, beta):
    r, num, d = _mc_recalls(C, eps)
    m = C.shape[-1]
    root = np.sqrt(np.add.reduce((1.0 - r) ** 2, -1) / m)
    # at the kink (root 0) every recall is 1 and every 1 - r is +0.0, so
    # dividing by 1 there instead gives the gradient taken there, 0
    return _mc_recall_grad((1.0 - r) / m / (root + (root == 0.0))[..., None], num, d)


_NATIVE_BASES = {
    "accuracy": (_mc_acc_v, _mc_acc_g),
    "balanced_accuracy": (_mc_bacc_v, _mc_bacc_g),
    "g_mean": (_mc_gmean_v, _mc_gmean_g),
    "h_mean": (_mc_hmean_v, _mc_hmean_g),
    "q_mean": (_mc_qmean_v, _mc_qmean_g),
}


@dataclass(frozen=True)
class Metric:
    """A named utility: base formula + averaging mode + stabilizer + optional budget."""

    name: str
    base: str
    averaging: str
    beta: float = 1.0
    epsilon: float = 1e-9
    budget_k: int | None = None

    def __post_init__(self) -> None:
        if self.averaging not in _AVERAGINGS:
            raise ValueError(f"unknown averaging: {self.averaging!r}")
        if self.base not in _BINARY_BASES:
            raise ValueError(f"unknown metric base: {self.base!r}")
        if self.averaging == MULTICLASS_NATIVE and self.base not in _NATIVE_BASES:
            raise ValueError(f"{self.base} has no native multiclass form; use macro/micro")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be finite and nonnegative")
        if 0 < self.epsilon < EPSILON_FLOOR:
            raise ValueError(f"epsilon must be 0 or at least {EPSILON_FLOOR:g}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and positive")
        if self.budget_k is not None and self.budget_k < 1:
            raise ValueError("budget must be a positive integer")

    @property
    def per_label(self) -> bool:
        """Macro or binary averaging: the value is a mean of per-label block values."""
        return self.averaging in (MACRO, BINARY)

    def check_task(self, task: Task) -> None:
        """A native multiclass metric needs a multiclass task, a binary metric
        a task with one 2x2 block (one label, or two classes), and a budget
        at most the task's m labels."""
        if self.averaging == MULTICLASS_NATIVE and not task.is_multiclass:
            raise ValueError(f"{self.name} needs a multiclass stream")
        if self.averaging == BINARY and task.m != (2 if task.is_multiclass else 1):
            raise ValueError("binary averaging expects a single block: one label or "
                             f"two classes, not m={task.m}")
        if self.budget_k is not None and self.budget_k > task.m:
            raise ValueError(f"budget {self.budget_k} exceeds the {task.m} labels")

    def blocks(self, C: np.ndarray) -> np.ndarray:
        """The (k, 2, 2) blocks this metric reads from a confusion: multilabel
        blocks as they are, a binary metric's 2x2 matrix as its one block,
        any other (m, m) matrix as its one-vs-rest blocks."""
        C = np.asarray(C, dtype=np.float64)
        if C.ndim == 3 and C.shape[1:] == (2, 2):
            if self.averaging == BINARY and C.shape[0] != 1:
                raise ValueError("binary averaging expects a single block")
            return C
        if C.ndim == 2 and C.shape[0] == C.shape[1]:
            if self.averaging == BINARY:
                if C.shape != (2, 2):
                    raise ValueError("binary averaging expects a 2x2 matrix")
                return C[None, :, :]
            return multiclass_to_multilabel(C)
        raise ValueError(f"unsupported confusion shape {C.shape}")

    def value(self, C: np.ndarray) -> float:
        """Metric value at a confusion matrix (any nonnegative scale)."""
        if self.averaging == MULTICLASS_NATIVE:
            C = np.asarray(C, dtype=np.float64)
            if C.ndim != 2 or C.shape[0] != C.shape[1]:
                raise ValueError("native multiclass metrics expect an (m, m) matrix")
            return float(_NATIVE_BASES[self.base][0](C, self.epsilon, self.beta))
        vals = _BINARY_BASES[self.base][0](self._read(self.blocks(C)), self.epsilon, self.beta)
        return float(np.mean(vals))

    def gradient(self, C: np.ndarray) -> np.ndarray:
        """Analytic gradient with respect to every entry of C, same shape as C:
        an (m, m) matrix or (k, 2, 2) label blocks."""
        C = np.asarray(C, dtype=np.float64)
        if self.averaging == MULTICLASS_NATIVE:
            if C.ndim != 2 or C.shape[0] != C.shape[1]:
                raise ValueError("native multiclass metrics expect an (m, m) matrix")
            return _row_plus_diagonal(*_NATIVE_BASES[self.base][1](C, self.epsilon, self.beta))
        blocks = self.blocks(C)
        Gt = _pack(*self._partials(blocks, blocks.shape[0]), blocks.shape)
        if C.ndim == 2:
            return Gt[0] if self.averaging == BINARY else _tensor_grad_to_matrix(Gt)
        return Gt

    def _read(self, blocks: np.ndarray) -> np.ndarray:
        """What the base formula reads of (..., k, 2, 2) blocks: micro averaging's
        mean block, of one confusion as numpy scalars (fast), of a stack on a
        label axis of length 1; else the blocks."""
        if self.averaging != MICRO:
            return blocks
        mean = blocks.mean(axis=-3)
        return mean if mean.ndim == 2 else mean[..., None, :, :]

    def _partials(self, blocks: np.ndarray, m: int):
        """The partials (dtn, dfp, dfn, dtp) at k of the m labels' (..., k, 2, 2)
        blocks as :meth:`_read` reads them (micro: at the mean block of all m),
        each divided by m for macro and micro averaging; binary averaging has
        one block and no factor."""
        gfn = _BINARY_BASES[self.base][1]
        if self.averaging == BINARY:
            if m != 1:
                raise ValueError("binary averaging expects a single block")
            return gfn(blocks, self.epsilon, self.beta)
        if self.averaging == MICRO:
            if blocks.shape[-3] != m:
                raise ValueError("micro averaging needs the blocks of all m labels")
        elif self.averaging != MACRO:
            raise ValueError("native multiclass metrics have no per-label coefficients")
        # the same division as by the int m, without numpy's int-scalar path
        scale = float(m)
        return [p / scale for p in gfn(self._read(blocks), self.epsilon, self.beta)]

    def block_gradient(self, blocks: np.ndarray, m: int) -> np.ndarray:
        """Gradient of selected per-label blocks (macro/binary), incl. the 1/m factor."""
        if not self.per_label:
            raise ValueError("per-block gradients exist only for macro/binary averaging")
        return _pack(*self._partials(blocks, m), blocks.shape)

    def coefficients(self, C: np.ndarray, task: Task) -> CostCoefficients:
        """(alpha, beta) of the decision rule at a normalized confusion of
        ``task``, or at each of an (R, *task.shape) stack, bit for bit its
        own call; the task, not the shape, says how C reads.  Multilabel C
        holds k of the m labels' blocks (all m for micro averaging).  Every
        multiclass gradient is ``a 1^T - 1 beta^T + diag(alpha)``: ``eta @ G``
        is ``eta . a`` plus the class scores.  A binary metric reads two
        classes as one block, class 1 positive: ([0, alpha], [0, beta]).
        """
        if not task.is_multiclass:
            return _coefficients(*self._partials(C, task.m), C.shape[:-2])
        if C.ndim not in (2, 3) or C.shape[-2:] != task.shape:
            raise ValueError(f"expected an ({task.m}, {task.m}) matrix or an (R, {task.m}, "
                             f"{task.m}) stack of multiclass confusions, got {C.shape}")
        if self.averaging == MULTICLASS_NATIVE:
            _, diag = _NATIVE_BASES[self.base][1](C, self.epsilon, self.beta)
            return CostCoefficients(diag, 0.0)
        if self.averaging == BINARY:
            if task.m != 2:
                raise ValueError("binary averaging expects a single block: two classes")
            # class 0 scores 0; class 1 takes the block's own (alpha, beta)
            pair = np.zeros((2, *C.shape[:-2], 2))
            pair[..., 1:] = _coefficients(*self._partials(C[..., None, :, :], 1),
                                          C.shape[:-2] + (1,))
            return CostCoefficients(*pair)
        return _coefficients(*self._partials(multiclass_to_multilabel(C), task.m),
                             C.shape[:-1])

    def block_values(self, blocks: np.ndarray) -> np.ndarray:
        """Base-formula values of individual blocks, without the macro 1/m factor."""
        if not self.per_label:
            raise ValueError("per-block values exist only for macro/binary averaging")
        return _BINARY_BASES[self.base][0](blocks, self.epsilon, self.beta)


def _tensor_grad_to_matrix(Gt: np.ndarray) -> np.ndarray:
    """Adjoint of the multiclass-to-multilabel conversion applied to a gradient:
    an (m, 2, 2) tensor to an (m, m) matrix."""
    dtn, dfp, dfn, dtp = _cells(Gt)
    s = dtn.sum()
    G = dfp[None, :] + dfn[:, None] + (s - dtn[None, :] - dtn[:, None])
    G.reshape(-1)[:: dtn.shape[0] + 1] = dtp + s - dtn
    return G


# --- registry and name grammar

_BASE_TOKENS = {
    "accuracy": "accuracy",
    "balanced-acc": "balanced_accuracy",
    "recall": "recall",
    "precision": "precision",
    "f1": "f_beta",
    "jaccard": "jaccard",
    "gmean": "g_mean",
    "hmean": "h_mean",
    "qmean": "q_mean",
    "matthews": "matthews",
}

# Concavity holds over confusion matrices sharing label marginals (row sums /
# per-block positive mass), the set a fixed data distribution can reach;
# linear-fractional bases (precision, F-beta, jaccard) and Matthews fail it.
_CONCAVE = {"accuracy", "balanced_accuracy", "recall", "g_mean", "h_mean", "q_mean"}
# q_mean has a kink where both error rates vanish.
_NONSMOOTH = {"q_mean"}


@dataclass(frozen=True)
class MetricInfo:
    name: str
    base: str
    averaging: str
    concave: bool
    smooth: bool


def list_metrics() -> list[MetricInfo]:
    """Stable listing of every (base, averaging) pair the CLI accepts."""
    out = []
    for avg, prefix in ((BINARY, ""), (MACRO, "macro-"), (MICRO, "micro-")):
        for token, base in _BASE_TOKENS.items():
            out.append(MetricInfo(prefix + token, base, avg,
                                  base in _CONCAVE, base not in _NONSMOOTH))
    for token, base in _BASE_TOKENS.items():
        if base in _NATIVE_BASES:
            out.append(MetricInfo("mc-" + token, base, MULTICLASS_NATIVE,
                                  base in _CONCAVE, base not in _NONSMOOTH))
    return out


def lookup(name: str) -> MetricInfo:
    for info in list_metrics():
        if info.name == name:
            return info
    raise KeyError(name)


def parse_metric(name: str, epsilon: float = 1e-9) -> Metric:
    """Parse ``[macro-|micro-|mc-]<base>[:beta][@k]`` into a Metric."""
    spec = name.strip()
    budget = None
    if "@" in spec:
        spec, _, tail = spec.partition("@")
        try:
            budget = int(tail)
        except ValueError:
            raise ValueError(f"bad budget suffix in metric name: {name!r}") from None
        if budget < 1:
            raise ValueError(f"budget must be positive in {name!r}")
    averaging = BINARY
    for prefix, avg in (("macro-", MACRO), ("micro-", MICRO), ("mc-", MULTICLASS_NATIVE)):
        if spec.startswith(prefix):
            averaging = avg
            spec = spec[len(prefix):]
            break
    beta = 1.0
    if spec.startswith("fbeta:"):
        try:
            beta = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad beta in metric name: {name!r}") from None
        base = "f_beta"
    elif spec in _BASE_TOKENS:
        base = _BASE_TOKENS[spec]
    else:
        raise ValueError(f"unknown metric: {name!r}")
    return Metric(name=name.strip(), base=base, averaging=averaging, beta=beta,
                  epsilon=epsilon, budget_k=budget)


def min_tn_tp(epsilon: float = 0.0) -> Metric:
    """The worst-diagonal utility min(tn, tp) on a single binary block."""
    return Metric(name="min-tn-tp", base="min_tn_tp", averaging=BINARY, epsilon=epsilon)
