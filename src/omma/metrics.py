"""Confusion-matrix utility metrics: values, analytic gradients, averaging modes.

Every metric is a scalar function of a confusion matrix.  Binary formulas act
on a single ``tn/fp/fn/tp`` block; they extend to m labels through macro
averaging (mean of per-block values) and micro averaging (value of the mean
block).  A handful of metrics additionally have native ``(m, m)`` multiclass
forms built from per-class recalls.

Each binary base has a value function and a gradient function; the gradient
function returns the four partials ``(dtn, dfp, dfn, dtp)`` per block, a
structural zero as the scalar 0.0.  :meth:`Metric.gradient` packs them into the
gradient tensor (divided by m for macro and micro averaging), and
:meth:`Metric.coefficients` forms the multilabel rule's per-label ``alpha =
dtp + dtn - dfp - dfn`` and ``beta = dtn - dfp`` from them directly, bit for
bit equal to ``policy.cost_coefficients`` of the tensor.

All denominators are stabilized by adding ``epsilon``, and the ratio factors of
the mean-family metrics (G/H/Q-mean) are stabilized as ``(num + eps) /
(den + eps)`` so values and gradients stay finite on every nonnegative matrix,
including the all-zero one.  Gradients differentiate exactly the stabilized
expression that the value computes, which is what makes finite-difference
checks exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .confusion import multiclass_to_multilabel

BINARY = "binary"
MACRO = "macro"
MICRO = "micro"
MULTICLASS_NATIVE = "multiclass"

_AVERAGINGS = (BINARY, MACRO, MICRO, MULTICLASS_NATIVE)


def _cells(blocks):
    return blocks[..., 0, 0], blocks[..., 0, 1], blocks[..., 1, 0], blocks[..., 1, 1]


def _pack(dtn, dfp, dfn, dtp, shape):
    out = np.empty(shape)
    out[..., 0, 0] = dtn
    out[..., 0, 1] = dfp
    out[..., 1, 0] = dfn
    out[..., 1, 1] = dtp
    return out


class CostCoefficients(NamedTuple):
    """Per-label weights of the multilabel rule: predict j when alpha_j eta_j >= beta_j."""

    alpha: np.ndarray
    beta: np.ndarray


def _coefficients(dtn, dfp, dfn, dtp, k: int) -> CostCoefficients:
    """(alpha, beta) of k labels from the four partials; a scalar is shared by all."""
    alpha = dtp + dtn - dfp - dfn
    beta = dtn - dfp
    # python floats have no ndim; numpy scalars and 0-d arrays have ndim 0
    if getattr(alpha, "ndim", 0) == 0:
        alpha = np.full(k, alpha)
    if getattr(beta, "ndim", 0) == 0:
        beta = np.full(k, beta)
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
    d1 = (2.0 * (tp + fn) + eps) ** 2
    d2 = (2.0 * (tn + fp) + eps) ** 2
    return (2.0 * fp + eps) / d2, -2.0 * tn / d2, -2.0 * tp / d1, (2.0 * fn + eps) / d1


def _recall_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    return tp / (tp + fn + eps)


def _recall_g(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    d2 = (tp + fn + eps) ** 2
    return 0.0, 0.0, -tp / d2, (fn + eps) / d2


def _precision_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    return tp / (tp + fp + eps)


def _precision_g(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    d2 = (tp + fp + eps) ** 2
    return 0.0, -tp / d2, 0.0, (fp + eps) / d2


def _fbeta_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    b2 = beta * beta
    return (1.0 + b2) * tp / ((1.0 + b2) * tp + b2 * fn + fp + eps)


def _fbeta_g(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    b2 = beta * beta
    b2fn = b2 * fn
    d2 = ((1.0 + b2) * tp + b2fn + fp + eps) ** 2
    return (0.0, -(1.0 + b2) * tp / d2, -(1.0 + b2) * b2 * tp / d2,
            (1.0 + b2) * (b2fn + fp + eps) / d2)


def _jaccard_v(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    return tp / (tp + fp + fn + eps)


def _jaccard_g(blocks, eps, beta):
    tn, fp, fn, tp = _cells(blocks)
    d2 = (tp + fp + fn + eps) ** 2
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
    dp2 = dp**2
    dn2 = dn**2
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
    s2 = (rp + rn) ** 2
    return _rate_partials(blocks, eps, 2.0 * rn**2 / s2, 2.0 * rp**2 / s2, dp, dn)


def _qmean_v(blocks, eps, beta):
    rp, rn, _, _ = _rates(blocks, eps)
    return 1.0 - np.sqrt(0.5 * ((1.0 - rp) ** 2 + (1.0 - rn) ** 2))


def _qmean_g(blocks, eps, beta):
    rp, rn, dp, dn = _rates(blocks, eps)
    root = np.sqrt(0.5 * ((1.0 - rp) ** 2 + (1.0 - rn) ** 2))
    return _rate_partials(blocks, eps, _safe_div(0.5 * (1.0 - rp), root),
                          _safe_div(0.5 * (1.0 - rn), root), dp, dn)


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


# --- multiclass-native forms, built from per-class recalls r_j = C_jj / row_j


def _mc_recalls(C, eps):
    diag = np.diagonal(C)
    row = C.sum(axis=1)
    return (diag + eps) / (row + eps), row


def _mc_recall_grad(C, eps, dpsi_dr):
    """Chain dpsi/dr_j back to the (m, m) matrix for recall-based metrics."""
    m = C.shape[0]
    diag = np.diagonal(C)
    row = C.sum(axis=1)
    d = row + eps
    # dr_a/dC_ab = (1{a=b} * d_a - (C_aa + eps)) / d_a^2, zero off-row
    G = (dpsi_dr * (-(diag + eps)) / d**2)[:, None] * np.ones((m, m))
    G[np.arange(m), np.arange(m)] += dpsi_dr * 1.0 / d
    return G


def _mc_acc_v(C, eps, beta):
    return float(np.trace(C))


def _mc_acc_g(C, eps, beta):
    return np.eye(C.shape[0])


def _mc_bacc_v(C, eps, beta):
    m = C.shape[0]
    diag = np.diagonal(C)
    row = C.sum(axis=1)
    return float(np.sum(diag / (m * row + eps)))


def _mc_bacc_g(C, eps, beta):
    m = C.shape[0]
    diag = np.diagonal(C)
    d = m * C.sum(axis=1) + eps
    G = (-(diag) * m / d**2)[:, None] * np.ones((m, m))
    G[np.arange(m), np.arange(m)] += 1.0 / d
    return G


def _mc_gmean_v(C, eps, beta):
    r, _ = _mc_recalls(C, eps)
    return float(np.exp(np.mean(np.log(r))))


def _mc_gmean_g(C, eps, beta):
    r, _ = _mc_recalls(C, eps)
    v = np.exp(np.mean(np.log(r)))
    return _mc_recall_grad(C, eps, v / (C.shape[0] * r))


def _mc_hmean_v(C, eps, beta):
    r, _ = _mc_recalls(C, eps)
    return float(C.shape[0] / np.sum(1.0 / r))


def _mc_hmean_g(C, eps, beta):
    r, _ = _mc_recalls(C, eps)
    s = np.sum(1.0 / r)
    return _mc_recall_grad(C, eps, C.shape[0] / (s**2 * r**2))


def _mc_qmean_v(C, eps, beta):
    r, _ = _mc_recalls(C, eps)
    return float(1.0 - np.sqrt(np.mean((1.0 - r) ** 2)))


def _mc_qmean_g(C, eps, beta):
    r, _ = _mc_recalls(C, eps)
    m = C.shape[0]
    root = np.sqrt(np.mean((1.0 - r) ** 2))
    return _mc_recall_grad(C, eps, _safe_div((1.0 - r) / m, root))


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
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and positive")
        if self.budget_k is not None and self.budget_k < 1:
            raise ValueError("budget must be a positive integer")

    def _blocks(self, C: np.ndarray) -> np.ndarray:
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
        blocks = self._blocks(C)
        vfn = _BINARY_BASES[self.base][0]
        if self.averaging == MICRO:
            return float(vfn(blocks.mean(axis=0), self.epsilon, self.beta))
        vals = vfn(blocks, self.epsilon, self.beta)
        return float(np.mean(vals))

    def gradient(self, C: np.ndarray) -> np.ndarray:
        """Analytic gradient with respect to every entry of C, same shape as C."""
        C = np.asarray(C, dtype=np.float64)
        if self.averaging == MULTICLASS_NATIVE:
            if C.ndim != 2 or C.shape[0] != C.shape[1]:
                raise ValueError("native multiclass metrics expect an (m, m) matrix")
            return _NATIVE_BASES[self.base][1](C, self.epsilon, self.beta)
        blocks = self._blocks(C)
        gfn = _BINARY_BASES[self.base][1]
        m = blocks.shape[0]
        if self.averaging == MICRO:
            Gt = np.broadcast_to(_pack(*gfn(blocks.mean(axis=0), self.epsilon, self.beta),
                                       (2, 2)) / m, blocks.shape).copy()
        elif self.averaging == MACRO:
            Gt = _pack(*gfn(blocks, self.epsilon, self.beta), blocks.shape) / m
        else:
            Gt = _pack(*gfn(blocks, self.epsilon, self.beta), blocks.shape)
        if C.ndim == 2 and self.averaging != BINARY:
            return _tensor_grad_to_matrix(Gt)
        if C.ndim == 2:
            return Gt[0]
        return Gt

    def block_gradient(self, blocks: np.ndarray, m: int) -> np.ndarray:
        """Gradient of selected per-label blocks (macro/binary), incl. the 1/m factor."""
        if self.averaging not in (MACRO, BINARY):
            raise ValueError("per-block gradients exist only for macro/binary averaging")
        scale = m if self.averaging == MACRO else 1
        return _pack(*_BINARY_BASES[self.base][1](blocks, self.epsilon, self.beta),
                     blocks.shape) / scale

    def coefficients(self, blocks: np.ndarray, m: int) -> CostCoefficients:
        """Per-label (alpha, beta) of the multilabel rule at normalized blocks.

        ``blocks`` is a (k, 2, 2) float array of the blocks of k of the m
        labels (all m for micro averaging, m = 1 for binary).  The result
        equals ``cost_coefficients`` of the gradient's rows for those labels
        bit for bit, without building the gradient tensor: each partial is
        divided by m on its own (macro and micro), then combined.
        """
        gfn = _BINARY_BASES[self.base][1]
        # the same division as by the int m, without numpy's int-scalar path
        scale = float(m)
        if self.averaging == MACRO:
            parts = [p / scale for p in gfn(blocks, self.epsilon, self.beta)]
        elif self.averaging == MICRO:
            if blocks.shape[0] != m:
                raise ValueError("micro averaging needs the blocks of all m labels")
            parts = [p / scale for p in gfn(blocks.mean(axis=0), self.epsilon, self.beta)]
        elif self.averaging == BINARY:
            if m != 1:
                raise ValueError("binary averaging expects a single block")
            parts = gfn(blocks, self.epsilon, self.beta)
        else:
            raise ValueError("native multiclass metrics have no per-label coefficients")
        return _coefficients(*parts, blocks.shape[0])

    def block_values(self, blocks: np.ndarray) -> np.ndarray:
        """Base-formula values of individual blocks, without the macro 1/m factor."""
        if self.averaging not in (MACRO, BINARY):
            raise ValueError("per-block values exist only for macro/binary averaging")
        return _BINARY_BASES[self.base][0](blocks, self.epsilon, self.beta)


def _tensor_grad_to_matrix(Gt: np.ndarray) -> np.ndarray:
    """Adjoint of the multiclass-to-multilabel conversion applied to a gradient."""
    dtn = Gt[:, 0, 0]
    dfp = Gt[:, 0, 1]
    dfn = Gt[:, 1, 0]
    dtp = Gt[:, 1, 1]
    s = dtn.sum()
    G = dfp[None, :] + dfn[:, None] + (s - dtn[None, :] - dtn[:, None])
    np.fill_diagonal(G, dtp + s - dtn)
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

_NATIVE_TOKENS = ("accuracy", "balanced-acc", "gmean", "hmean", "qmean")

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
    for token in _NATIVE_TOKENS:
        base = _BASE_TOKENS[token]
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
    if averaging == MULTICLASS_NATIVE and spec not in _NATIVE_TOKENS:
        raise ValueError(f"{spec!r} has no native multiclass form; use macro-/micro-")
    return Metric(name=name.strip(), base=base, averaging=averaging, beta=beta,
                  epsilon=epsilon, budget_k=budget)


def min_tn_tp(epsilon: float = 0.0) -> Metric:
    """The worst-diagonal utility min(tn, tp) on a single binary block."""
    return Metric(name="min-tn-tp", base="min_tn_tp", averaging=BINARY, epsilon=epsilon)
