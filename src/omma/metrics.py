"""Confusion-matrix utility metrics: values, analytic gradients, averaging modes.

Every metric is a scalar function of a confusion matrix.  Binary formulas act
on a single ``tn/fp/fn/tp`` block; they extend to m labels through macro
averaging (mean of per-block values) and micro averaging (value of the mean
block).  A handful of metrics additionally have native ``(m, m)`` multiclass
forms built from per-class recalls.  A recall depends only on its own row, so
each native gradient is a per-row constant plus a diagonal; its kernel returns
the recall chain ``(dpsi/dr, num, d)`` of ``r_j = num_j / d_j`` from one pass
over the diagonal and row sums, and the row and diagonal terms follow from it.

Each binary base returns the gradient's four partials ``(dtn, dfp, dfn, dtp)``
per block, a structural zero as the Python float 0.0 (every other partial is
a numpy scalar or an array), already divided by the
averaging's scale: m for macro and micro averaging, 1 for binary.  A base
folds the scale into the factor its partials share, such as F-beta's ``(1 +
b2) / (d * d * m)``, so that no partial takes a division of its own.  Values
and partials read macro and binary blocks as given and micro averaging's
mean block, shared by the m labels: one confusion's as numpy scalars, a
stack's on a label axis of length 1.  The bases square as ``x * x``, never
``x ** 2`` (a numpy scalar's ``** 2`` is ``pow(x, 2)``, which can round one
unit apart from an array's), so one confusion and an (R, ...) stack run the
same formulas to the same bits.
:meth:`Metric.gradient` packs the partials into the gradient;
:meth:`Metric.coefficients` forms the decision rule's ``alpha = dtp + dtn -
dfp - dfn`` and ``beta = dtn - dfp`` from them directly, per label or,
through the one-vs-rest blocks, per class.  A native metric's coefficients
are its diagonal term ``dpsi/dr_j / d_j`` and 0; no row term is formed for
them.

Every numpy operation of a step takes array operands (numpy scalars where
the cells are numpy scalars), since numpy converts a Python number operand
on every call:

* Constants are resolved once.  Each :class:`Metric` resolves its base
  functions and its constants when it is built: epsilon, F-beta's ``b2 =
  beta**2`` and ``1 + b2``, and the literals 0.5, 1, 2 and -2 that the bases
  use, as read-only 0-d float64 arrays (``confusion._const``), and the
  task's scale m is ``Task.scale``.  On float64 operands a 0-d float64 array
  computes the same bits as the Python float.  Micro averaging's mean block
  of one confusion has numpy scalar cells, for which a 0-d operand costs ten
  times a scalar one, so it reads the same constants as numpy scalars.
* Structural zeros take no arithmetic.  ``coefficients`` takes ``dtp`` where
  ``dtn`` is a structural zero and ``-dfp`` where it would form ``0.0 -
  dfp``, and it subtracts no structural zero.  ``x + 0.0`` and ``0.0 - x``
  differ from ``x`` and ``-x`` only in the sign of a zero x: a -0.0 tp cell,
  which no run makes (``confusion.init_state`` stores a regularizer of -0.0
  as +0.0), gives a beta of -0.0 there and decides as the +0.0 cell.
* Inputs are converted to float64 where they enter: ``value``, ``gradient``,
  ``coefficients``, ``block_values`` and ``block_gradient`` read a float32
  or integer confusion as its float64 copy, bit for bit.  Without that rule
  a 0-d float64 operand would upcast a float32 confusion partway through a
  base, where a Python float did not.

All denominators are stabilized by adding ``epsilon``, and the ratio factors of
the mean-family metrics (G/H/Q-mean) are stabilized as ``(num + eps) /
(den + eps)`` so values and gradients stay finite on every nonnegative matrix,
including the all-zero one.  Gradients square the stabilized denominators,
and for epsilon below about 1e-154 that square leaves the normal float64
range, so a positive epsilon is at least ``EPSILON_FLOOR``; 0 turns the
stabilizer off.  F-beta's gradient squares its denominator, about beta**2
times the regularized counts: with beta at most ``BETA_MAX`` = 1e30 and the
regularizer at most ``confusion.LAM_MAX`` = 1e50 that square is about 1e220,
far inside the float64 range (a run at beta = 1e77 overflowed), and at the
stabilizer floor every partial is below (1 + beta**2) / epsilon = 1e160.
Gradients differentiate exactly the stabilized expression that the value
computes, which is what makes finite-difference checks exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .confusion import Task, _cells, _const, _pack, is_integer, multiclass_to_multilabel

BINARY = "binary"
MACRO = "macro"
MICRO = "micro"
MULTICLASS_NATIVE = "multiclass"

# the name prefix of each averaging, in the order list_metrics gives them
_PREFIXES = {BINARY: "", MACRO: "macro-", MICRO: "micro-", MULTICLASS_NATIVE: "mc-"}

# the smallest positive stabilizer; its square and products with 1e6-scale
# counts stay well inside the float64 range
EPSILON_FLOOR = 1e-100

# the largest F-beta beta (see the module docstring)
BETA_MAX = 1e30

_FLOAT64 = np.dtype(np.float64)


class CostCoefficients(NamedTuple):
    """Weights of the decision rule: predict label j when alpha_j eta_j >= beta_j;
    score class l as alpha_l eta_l - beta_l sum(eta).  beta is an array, or the
    scalar 0.0 where every beta is a structural zero."""

    alpha: np.ndarray
    beta: np.ndarray | float


def _coefficients(dtn, dfp, dfn, dtp, shape) -> CostCoefficients:
    """(alpha, beta) of the given shape from the four partials; a scalar, or a
    micro stack's (R, 1) partial, is shared by the labels it covers."""
    # a structural zero (a python float; every other partial is a numpy
    # scalar or an array) takes no arithmetic: x + 0.0 is x and 0.0 - x is
    # -x, but for the sign of a zero x
    zero_tn = type(dtn) is float
    alpha = dtp if zero_tn else dtp + dtn
    beta = dtn
    if type(dfp) is not float:
        alpha = alpha - dfp
        beta = -dfp if zero_tn else dtn - dfp
    if type(dfn) is not float:
        alpha = alpha - dfn
    # python floats have no shape
    if getattr(alpha, "shape", ()) != shape:
        alpha = _filled(shape, alpha)
    if getattr(beta, "shape", ()) != shape:
        beta = _filled(shape, beta)
    return CostCoefficients(alpha, beta)


def _filled(shape, x) -> np.ndarray:
    """A float64 array of the shape with x broadcast into it: np.full without
    its Python wrapper, which infers a dtype from x."""
    out = np.empty(shape)
    out[...] = x
    return out


def _safe_div(den, *nums):
    """Each num / den, with 0/0 -> 0 (used only where each num vanishes with
    den); den is an array or a numpy scalar."""
    # count_nonzero skips the Python wrapper of np.any; NaN counts as nonzero,
    # as it compares unequal to 0
    if np.count_nonzero(den) < den.size:
        zero = den == 0.0
        den = np.where(zero, 1.0, den)
        return [np.where(zero, 0.0, num / den) for num in nums]
    return [num / den for num in nums]


class _Constants(NamedTuple):
    """The operands a base reads besides the blocks, resolved once per metric:
    the stabilizer, F-beta's b2 = beta**2 and 1 + b2, and the literals."""

    eps: np.ndarray
    b2: np.ndarray
    b2p1: np.ndarray
    half: np.ndarray
    one: np.ndarray
    two: np.ndarray
    minus_two: np.ndarray


# --- binary bases: value(blocks, c) and the gradient's four partials (dtn,
# dfp, dfn, dtp) divided by the averaging's scale (m, or 1 for binary),
# vectorized over leading axes; a structural zero is a scalar 0.0.  A base
# folds the scale into a factor its partials share, or divides each one by
# it.  c holds the metric's constants, and every operand is an array, or
# every one a numpy scalar (micro averaging's mean block of one confusion)


def _acc_v(blocks, c):
    tn, fp, fn, tp = _cells(blocks)
    return tp + tn


def _acc_g(blocks, c, scale):
    # one number, divided as numpy scalars: a 0-d division is a ufunc call
    one = c.one[()] / scale[()]
    return one, 0.0, 0.0, one


def _bacc_v(blocks, c):
    tn, fp, fn, tp = _cells(blocks)
    return tp / (c.two * (tp + fn) + c.eps) + tn / (c.two * (tn + fp) + c.eps)


def _bacc_g(blocks, c, scale):
    tn, fp, fn, tp = _cells(blocks)
    d1, d2 = c.two * (tp + fn) + c.eps, c.two * (tn + fp) + c.eps
    d1, d2 = d1 * d1 * scale, d2 * d2 * scale
    return ((c.two * fp + c.eps) / d2, c.minus_two * tn / d2, c.minus_two * tp / d1,
            (c.two * fn + c.eps) / d1)


def _recall_v(blocks, c):
    tn, fp, fn, tp = _cells(blocks)
    return tp / (tp + fn + c.eps)


def _recall_g(blocks, c, scale):
    tn, fp, fn, tp = _cells(blocks)
    d = tp + fn + c.eps
    d2 = d * d * scale
    return 0.0, 0.0, -tp / d2, (fn + c.eps) / d2


def _precision_v(blocks, c):
    tn, fp, fn, tp = _cells(blocks)
    return tp / (tp + fp + c.eps)


def _precision_g(blocks, c, scale):
    tn, fp, fn, tp = _cells(blocks)
    d = tp + fp + c.eps
    d2 = d * d * scale
    return 0.0, -tp / d2, 0.0, (fp + c.eps) / d2


def _fbeta_v(blocks, c):
    tn, fp, fn, tp = _cells(blocks)
    wtp = c.b2p1 * tp
    return wtp / (wtp + c.b2 * fn + fp + c.eps)


def _fbeta_g(blocks, c, scale):
    tn, fp, fn, tp = _cells(blocks)
    rest = c.b2 * fn + fp + c.eps
    d = c.b2p1 * tp + rest
    k = c.b2p1 / (d * d * scale)
    dfp = -tp * k
    return 0.0, dfp, c.b2 * dfp, rest * k


def _jaccard_v(blocks, c):
    tn, fp, fn, tp = _cells(blocks)
    return tp / (tp + fp + fn + c.eps)


def _jaccard_g(blocks, c, scale):
    tn, fp, fn, tp = _cells(blocks)
    d = tp + fp + fn + c.eps
    d2 = d * d * scale
    dfp = -tp / d2
    return 0.0, dfp, dfp, (fp + fn + c.eps) / d2


def _rates(blocks, eps):
    """Stabilized true-positive and true-negative rates, and what
    :func:`_rate_partials` chains through, from one read of the cells."""
    tn, fp, fn, tp = _cells(blocks)
    dp = tp + fn + eps
    dn = tn + fp + eps
    tpe = tp + eps
    tne = tn + eps
    return tpe / dp, tne / dn, (fp, fn, tpe, tne, dp, dn)


def _rate_partials(chain, scale, dv_drp, dv_drn):
    """Chain dv/drp and dv/drn through the two stabilized rates to the cells."""
    fp, fn, tpe, tne, dp, dn = chain
    dp2 = dp * dp * scale
    dn2 = dn * dn * scale
    return dv_drn * fp / dn2, dv_drn * (-tne) / dn2, dv_drp * (-tpe) / dp2, dv_drp * fn / dp2


def _gmean_v(blocks, c):
    rp, rn, _ = _rates(blocks, c.eps)
    return np.sqrt(rp * rn)


def _gmean_g(blocks, c, scale):
    rp, rn, chain = _rates(blocks, c.eps)
    return _rate_partials(chain, scale, *_safe_div(c.two * np.sqrt(rp * rn), rn, rp))


def _hmean_v(blocks, c):
    rp, rn, _ = _rates(blocks, c.eps)
    return c.two * rp * rn / (rp + rn)


def _hmean_g(blocks, c, scale):
    rp, rn, chain = _rates(blocks, c.eps)
    s = rp + rn
    s2 = s * s
    return _rate_partials(chain, scale, c.two * (rn * rn) / s2, c.two * (rp * rp) / s2)


def _qmean_v(blocks, c):
    rp, rn, _ = _rates(blocks, c.eps)
    up, un = c.one - rp, c.one - rn
    return c.one - np.sqrt(c.half * (up * up + un * un))


def _qmean_g(blocks, c, scale):
    rp, rn, chain = _rates(blocks, c.eps)
    up, un = c.one - rp, c.one - rn
    root = np.sqrt(c.half * (up * up + un * un))
    return _rate_partials(chain, scale, *_safe_div(root, c.half * up, c.half * un))


def _matthews_v(blocks, c):
    tn, fp, fn, tp = _cells(blocks)
    eps = c.eps
    den = np.sqrt((tp + fp + eps) * (tp + fn + eps) * (tn + fp + eps) * (tn + fn + eps))
    return _safe_div(den, tp * tn - fp * fn)[0]


def _matthews_g(blocks, c, scale):
    tn, fp, fn, tp = _cells(blocks)
    eps = c.eps
    f1 = tp + fp + eps
    f2 = tp + fn + eps
    f3 = tn + fp + eps
    f4 = tn + fn + eps
    den = np.sqrt(f1 * f2 * f3 * f4)
    v, tn_den, tp_den, fn_den, fp_den = _safe_div(den, tp * tn - fp * fn, tn, tp, -fn, -fp)
    half_v = c.half * v
    i1, i2, i3, i4 = c.one / f1, c.one / f2, c.one / f3, c.one / f4
    dtp = tn_den - half_v * (i1 + i2)
    dtn = tp_den - half_v * (i3 + i4)
    dfp = fn_den - half_v * (i1 + i3)
    dfn = fp_den - half_v * (i2 + i4)
    return dtn / scale, dfp / scale, dfn / scale, dtp / scale


_TIE_WIDTH = _const(1e-12)


def _min_tn_tp_v(blocks, c):
    tn, fp, fn, tp = _cells(blocks)
    return np.minimum(tn, tp)


def _min_tn_tp_g(blocks, c, scale):
    """Supergradient of min(tn, tp): indicator of the smaller entry, split at ties."""
    # tn < tp exactly where tn - tp < 0: a difference of finite floats is 0
    # only where they are equal.  The weight w of tn is 0, 1/2 or 1, so
    # (1 - w) / scale is 1 / scale - w / scale bit for bit
    tn, _, _, tp = _cells(blocks)
    w = np.where(abs(tn - tp) <= _TIE_WIDTH, c.half, tn < tp)
    return w / scale, 0.0, 0.0, (c.one - w) / scale


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
# wrapper, which costs more than the reduction at these sizes.  Each kernel
# takes (C, c, scale) with scale the 0-d class count m.


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


# the values read one (m, m) matrix; the gradient kernels return the recall
# chain (dpsi/dr, num, d), also of an (R, m, m) stack, reducing over the class
# axis so that a per-matrix scalar stays aligned with its own matrix


def _mc_acc_v(C, c, scale):
    return float(np.trace(C))


def _mc_acc_g(C, c, scale):
    # r_j = C_jj, with num 0 (an int, so the row term is +0.0) and d 1
    return np.ones(C.shape[:-1]), 0, c.one


# balanced accuracy sums r_j = C_jj / (m row_j + eps): only the denominator
# is stabilized


def _mc_bacc_v(C, c, scale):
    d = scale * C.sum(axis=1) + c.eps
    return float(np.add.reduce(np.diagonal(C) / d))


def _mc_bacc_g(C, c, scale):
    return c.one, scale * C.diagonal(0, -2, -1), scale * C.sum(axis=-1) + c.eps


def _mc_gmean_v(C, c, scale):
    r = _mc_recalls(C, c.eps)[0]
    return float(np.exp(np.add.reduce(np.log(r)) / C.shape[0]))


def _mc_gmean_g(C, c, scale):
    r, num, d = _mc_recalls(C, c.eps)
    v = np.exp(np.add.reduce(np.log(r), axis=-1, keepdims=True) / scale)
    return v / (scale * r), num, d


def _mc_hmean_v(C, c, scale):
    r = _mc_recalls(C, c.eps)[0]
    return float(C.shape[0] / np.add.reduce(c.one / r))


def _mc_hmean_g(C, c, scale):
    r, num, d = _mc_recalls(C, c.eps)
    s = np.add.reduce(c.one / r, axis=-1, keepdims=True)
    # pow(s, 2): how s ** 2 rounds where s is a numpy scalar, as it is for
    # one matrix without keepdims; an array's ** 2 is s * s, which can round
    # one unit apart
    return scale / (np.float_power(s, c.two) * (r * r)), num, d


def _mc_qmean_v(C, c, scale):
    u = c.one - _mc_recalls(C, c.eps)[0]
    return float(1.0 - np.sqrt(np.add.reduce(u * u) / C.shape[0]))


def _mc_qmean_g(C, c, scale):
    r, num, d = _mc_recalls(C, c.eps)
    u = c.one - r
    # the root of one matrix is a numpy scalar, for which Python operands
    # are the fast ones
    root = np.sqrt(np.add.reduce(u * u, -1) / C.shape[-1])
    # at the kink (root 0) every recall is 1 and every 1 - r is +0.0, so
    # dividing by 1 there instead gives the gradient taken there, 0
    return u / scale / (root + (root == 0.0))[..., None], num, d


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
        if self.averaging not in _PREFIXES:
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
        if self.beta > BETA_MAX:
            raise ValueError(f"beta must be at most {BETA_MAX:g}")
        if self.budget_k is not None and not (is_integer(self.budget_k) and self.budget_k >= 1):
            raise ValueError("budget must be a positive integer")
        # resolved once: the base functions, and their constants as 0-d
        # float64 arrays, and as numpy scalars for micro averaging's mean
        # block of one confusion, whose cells are numpy scalars
        b2 = self.beta * self.beta
        consts = _Constants(*map(_const, (self.epsilon, b2, 1.0 + b2, 0.5, 1.0, 2.0, -2.0)))
        native = self.averaging == MULTICLASS_NATIVE
        value_fn, gradient_fn = (_NATIVE_BASES if native else _BINARY_BASES)[self.base]
        for name, attr in (("_consts", consts), ("_scalars", _Constants(*(x[()] for x in consts))),
                           ("_value_fn", value_fn), ("_gradient_fn", gradient_fn)):
            object.__setattr__(self, name, attr)

    @property
    def concave(self) -> bool:
        """Concave over the confusions a fixed label distribution can reach."""
        return self.base in _CONCAVE

    @property
    def smooth(self) -> bool:
        """Continuously differentiable: no kink."""
        return self.base not in _NONSMOOTH

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
            return float(self._value_fn(C, self._consts, _const(C.shape[0])))
        blocks = self.blocks(C)
        read, consts, _ = self._read(blocks, _const(blocks.shape[-3]))
        return float(np.mean(self._value_fn(read, consts)))

    def gradient(self, C: np.ndarray) -> np.ndarray:
        """Analytic gradient with respect to every entry of C, same shape as C:
        an (m, m) matrix or (k, 2, 2) label blocks."""
        C = np.asarray(C, dtype=np.float64)
        if self.averaging == MULTICLASS_NATIVE:
            if C.ndim != 2 or C.shape[0] != C.shape[1]:
                raise ValueError("native multiclass metrics expect an (m, m) matrix")
            dpsi_dr, num, d = self._gradient_fn(C, self._consts, _const(C.shape[0]))
            return _row_plus_diagonal(dpsi_dr * (-num) / d**2, dpsi_dr / d)
        blocks = self.blocks(C)
        Gt = _pack(*self._partials(blocks, blocks.shape[0], _const(blocks.shape[0])),
                   blocks.shape)
        if C.ndim == 2:
            return Gt[0] if self.averaging == BINARY else _tensor_grad_to_matrix(Gt)
        return Gt

    def _read(self, blocks: np.ndarray, scale: np.ndarray):
        """(what the base formula reads of (..., k, 2, 2) blocks, its constants,
        its scale): micro averaging's mean block of the k = m labels (``scale``,
        0-d), of one confusion as numpy scalars (fast) with the constants as
        numpy scalars, of a stack on a label axis of length 1; else the blocks."""
        if self.averaging != MICRO:
            return blocks, self._consts, scale
        # the mean's own arithmetic (see the native forms), without its wrapper
        mean = np.add.reduce(blocks, axis=-3) / scale
        if mean.ndim == 2:
            return mean, self._scalars, scale[()]
        return mean[..., None, :, :], self._consts, scale

    def _partials(self, blocks: np.ndarray, m: int, scale: np.ndarray):
        """The partials (dtn, dfp, dfn, dtp) at k of the m labels' (..., k, 2, 2)
        float64 blocks as :meth:`_read` reads them (micro: at the mean block of
        all m), as the base returns them with the averaging's scale: 1 / m for
        macro and micro averaging, ``scale`` the 0-d m; binary averaging has
        one block and scale 1."""
        if self.averaging == MACRO:  # the blocks as they are
            return self._gradient_fn(blocks, self._consts, scale)
        if self.averaging == BINARY:
            if m != 1:
                raise ValueError("binary averaging expects a single block")
            return self._gradient_fn(blocks, self._consts, self._consts.one)
        if self.averaging != MICRO:
            raise ValueError("native multiclass metrics have no per-label coefficients")
        if blocks.shape[-3] != m:
            raise ValueError("micro averaging needs the blocks of all m labels")
        return self._gradient_fn(*self._read(blocks, scale))

    def block_gradient(self, blocks: np.ndarray, m: int) -> np.ndarray:
        """Gradient of selected per-label blocks (macro/binary), incl. the 1/m factor."""
        if not self.per_label:
            raise ValueError("per-block gradients exist only for macro/binary averaging")
        blocks = blocks.astype(np.float64, copy=False)
        return _pack(*self._partials(blocks, m, _const(m)), blocks.shape)

    def coefficients(self, C: np.ndarray, task: Task) -> CostCoefficients:
        """(alpha, beta) of the decision rule at a normalized confusion of
        ``task``, or at each of an (R, *task.shape) stack, bit for bit its
        own call; the task, not the shape, says how C reads.  Multilabel C
        holds k of the m labels' blocks (all m for micro averaging).  Every
        multiclass gradient is ``a 1^T - 1 beta^T + diag(alpha)``: ``eta @ G``
        is ``eta . a`` plus the class scores.  A binary metric reads two
        classes as one block, class 1 positive: ([0, alpha], [0, beta]).
        """
        # the dtype rule: a confusion enters as float64, so that the 0-d float64
        # constants compute as on a float64 copy (a run's confusions are)
        if C.dtype is not _FLOAT64:
            C = C.astype(np.float64, copy=False)
        if not task.is_multiclass:
            return _coefficients(*self._partials(C, task.m, task.scale), C.shape[:-2])
        if C.ndim not in (2, 3) or C.shape[-2:] != task.shape:
            raise ValueError(f"expected an ({task.m}, {task.m}) matrix or an (R, {task.m}, "
                             f"{task.m}) stack of multiclass confusions, got {C.shape}")
        if self.averaging == MULTICLASS_NATIVE:
            dpsi_dr, _, d = self._gradient_fn(C, self._consts, task.scale)
            return CostCoefficients(dpsi_dr / d, 0.0)
        if self.averaging == BINARY:
            if task.m != 2:
                raise ValueError("binary averaging expects a single block: two classes")
            # class 0 scores 0; class 1 takes the block's own (alpha, beta)
            pair = np.zeros((2, *C.shape[:-2], 2))
            pair[..., 1:] = _coefficients(*self._partials(C[..., None, :, :], 1, task.scale),
                                          C.shape[:-2] + (1,))
            return CostCoefficients(*pair)
        return _coefficients(*self._partials(multiclass_to_multilabel(C), task.m, task.scale),
                             C.shape[:-1])

    def block_values(self, blocks: np.ndarray) -> np.ndarray:
        """Base-formula values of individual blocks, without the macro 1/m factor."""
        if not self.per_label:
            raise ValueError("per-block values exist only for macro/binary averaging")
        if blocks.dtype is not _FLOAT64:
            blocks = blocks.astype(np.float64, copy=False)
        return self._value_fn(blocks, self._consts)


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
# min(tn, tp) is the minimum of two linear functions.
_CONCAVE = {"accuracy", "balanced_accuracy", "recall", "g_mean", "h_mean", "q_mean",
            "min_tn_tp"}
# q_mean has a kink where both error rates vanish, min(tn, tp) where tn = tp.
_NONSMOOTH = {"q_mean", "min_tn_tp"}


def list_metrics() -> list[Metric]:
    """The parsed Metric of every (base, averaging) pair the CLI accepts, in a
    stable order."""
    return [parse_metric(prefix + token)
            for avg, prefix in _PREFIXES.items() for token, base in _BASE_TOKENS.items()
            if avg != MULTICLASS_NATIVE or base in _NATIVE_BASES]


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
    averaging = next((avg for avg, prefix in _PREFIXES.items()
                      if prefix and spec.startswith(prefix)), BINARY)
    spec = spec[len(_PREFIXES[averaging]):]
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
