"""Turning a utility gradient plus a probability estimate into a prediction.

The linearized objective of a candidate prediction is the dot product between
the gradient tensor and the expected single-instance confusion.  For
multilabel tasks this reduces to per-label gains ``g_j = alpha_j * eta_j -
beta_j`` with ``alpha_j = d_tp + d_tn - d_fp - d_fn`` and ``beta_j = d_tn -
d_fp``; for multiclass it reduces to per-class column scores.  Ties are broken
toward the smaller label index everywhere, and a gain of exactly zero predicts
positive.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .confusion import Labels, ProbEstimate


class CostCoefficients(NamedTuple):
    alpha: np.ndarray
    beta: np.ndarray


def cost_coefficients(G: np.ndarray) -> CostCoefficients:
    """Per-label (alpha, beta) from a multilabel gradient tensor."""
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 3 or G.shape[1:] != (2, 2):
        raise ValueError("expected an (m, 2, 2) gradient tensor")
    alpha = G[:, 1, 1] + G[:, 0, 0] - G[:, 0, 1] - G[:, 1, 0]
    beta = G[:, 0, 0] - G[:, 0, 1]
    return CostCoefficients(alpha, beta)


def gains(coeffs: CostCoefficients, eta: ProbEstimate | np.ndarray) -> np.ndarray:
    """Dense per-label gains of an estimate or of (n, m) rows; unlisted eta_j = 0."""
    dense = eta.dense() if isinstance(eta, ProbEstimate) else np.asarray(eta, float)
    return coeffs.alpha * dense - coeffs.beta


def decide(scores: np.ndarray, budget: int | None = None, *,
           argmax: bool = False) -> np.ndarray:
    """The decision kernel: an (n, m) score matrix to an (n, m) boolean decision.

    Under a budget every row keeps its k highest scores; otherwise a row
    predicts its argmax (multiclass) or every label with a gain >= 0
    (multilabel).  Ties go to the smaller index (a stable sort).  A single
    instance is n = 1.
    """
    n, m = scores.shape
    if budget is None:
        if argmax:
            return np.arange(m) == scores.argmax(axis=1)[:, None]
        return scores >= 0.0
    if budget > m:
        raise ValueError(f"budget {budget} exceeds the {m} candidate labels")
    dec = np.zeros((n, m), dtype=bool)
    dec[np.arange(n)[:, None], (-scores).argsort(axis=1, kind="stable")[:, :budget]] = True
    return dec


def decide_one(scores: np.ndarray, budget: int | None = None, *,
               argmax: bool = False) -> Labels:
    """The kernel on one instance's score vector, as a sorted label tuple."""
    return _labels(decide(scores[None], budget, argmax=argmax))


def _labels(dec: np.ndarray) -> Labels:
    """Positive labels of a one-row decision matrix."""
    return tuple(dec.nonzero()[1].tolist())


def decide_multilabel(g: np.ndarray, budget: int | None = None) -> Labels:
    """Positive set from gains: thresholded at zero, or the top-k under a budget."""
    return _labels(decide(np.asarray(g, dtype=np.float64)[None], budget))


def decide_multiclass(G: np.ndarray, eta: ProbEstimate | np.ndarray,
                      budget: int | None = None) -> Labels:
    """Class(es) maximizing the column scores sum_j G[j, l] * eta_j."""
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError("expected an (m, m) gradient matrix")
    dense = eta.dense() if isinstance(eta, ProbEstimate) else np.asarray(eta, float)
    if dense.shape[0] != G.shape[0]:
        raise ValueError("estimate length does not match the gradient")
    # a one-row product, so the scores equal dense @ G bit for bit
    return _labels(decide(dense[None] @ G, budget, argmax=True))


def decide_sparse(coeffs: CostCoefficients, eta: ProbEstimate,
                  budget: int | None = None) -> Labels:
    """Gain decision restricted to the estimate's support.

    ``coeffs`` holds (alpha, beta) for exactly the support labels, in support
    order.  Labels outside the support are treated as eta_j = 0 and are never
    predicted positive, even where a negative beta would flip the dense rule.
    """
    support = eta.indices
    if coeffs.alpha.shape[0] != support.shape[0]:
        raise ValueError("coefficients must align with the estimate support")
    g = coeffs.alpha * eta.values - coeffs.beta
    return tuple(support[decide(g[None], budget)[0]].tolist())
