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

import numpy as np

from .confusion import Labels, ProbEstimate, _cells
from .metrics import CostCoefficients, _coefficients


def cost_coefficients(G: np.ndarray) -> CostCoefficients:
    """Per-label (alpha, beta) from a multilabel gradient tensor.

    ``Metric.coefficients`` forms the same pair from the metric's partials
    without the tensor; this form serves callers that hold a tensor.
    """
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 3 or G.shape[1:] != (2, 2):
        raise ValueError("expected an (m, 2, 2) gradient tensor")
    return _coefficients(*_cells(G), G.shape[0])


def gains(coeffs: CostCoefficients, eta: ProbEstimate | np.ndarray) -> np.ndarray:
    """Dense per-label gains of an estimate or of (n, m) rows; unlisted eta_j = 0."""
    dense = eta.dense() if isinstance(eta, ProbEstimate) else np.asarray(eta, float)
    return coeffs.alpha * dense - coeffs.beta


def decide(scores: np.ndarray, budget: int | None = None, *,
           argmax: bool = False) -> np.ndarray:
    """The decision kernel: scores of shape (..., m) to boolean decisions of
    the same shape; one instance is an (m,) row, a batch an (n, m) matrix.

    Under a budget every row keeps its k highest scores; otherwise a row
    predicts its argmax (multiclass) or every label with a gain >= 0
    (multilabel).  Ties go to the smaller index (a stable sort).  A budget
    of 1 keeps the first item of a stable descending sort, which for finite
    scores is the first maximum: the argmax.
    """
    m = scores.shape[-1]
    if budget is None and not argmax:
        return scores >= 0.0
    if budget is not None and budget > m:
        raise ValueError(f"budget {budget} exceeds the {m} candidate labels")
    if budget is None or budget == 1:
        return np.arange(m) == scores.argmax(axis=-1)[..., None]
    # each score's rank in a stable descending sort; the first k ranks win
    return (-scores).argsort(axis=-1, kind="stable").argsort(axis=-1) < budget


def decide_gradient(G: np.ndarray, eta: np.ndarray, budget: int | None = None) -> np.ndarray:
    """Decisions of the classifier with gradient ``G`` on an (m,) estimate row or
    an (n, m) buffer, as booleans of eta's shape: the column scores eta @ G of
    an (m, m) G, or the gains of :func:`cost_coefficients` of an (m, 2, 2) one,
    go to :func:`decide`.  Nothing is checked."""
    if G.ndim == 2:
        # matmul takes a 1-d eta as one row: a row is scored by a one-row product
        return decide(eta @ G, budget, argmax=True)
    return decide(gains(cost_coefficients(G), eta), budget)


def _labels(dec: np.ndarray) -> Labels:
    """Positive labels of an (m,) decision row."""
    return tuple(dec.nonzero()[0].tolist())


def decide_multilabel(g: np.ndarray, budget: int | None = None) -> Labels:
    """Positive set from gains: thresholded at zero, or the top-k under a budget."""
    return _labels(decide(np.asarray(g, dtype=np.float64), budget))


def decide_multiclass(G: np.ndarray, eta: ProbEstimate | np.ndarray,
                      budget: int | None = None) -> Labels:
    """Class(es) maximizing the column scores sum_j G[j, l] * eta_j."""
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError("expected an (m, m) gradient matrix")
    dense = eta.dense() if isinstance(eta, ProbEstimate) else np.asarray(eta, float)
    if dense.shape[0] != G.shape[0]:
        raise ValueError("estimate length does not match the gradient")
    return _labels(decide_gradient(G, dense, budget))


def decide_support(coeffs: CostCoefficients, indices: np.ndarray, values: np.ndarray,
                   m: int, budget: int | None = None) -> np.ndarray:
    """(m,) boolean row of the gain decision restricted to the listed ``indices``.

    ``coeffs`` holds (alpha, beta) for exactly the listed labels, in their
    order, and ``values`` their probabilities.  Unlisted labels are treated as
    eta_j = 0 and are never predicted positive, even where a negative beta
    would flip the dense rule.
    """
    if coeffs.alpha.shape[0] != indices.shape[0]:
        raise ValueError("coefficients must align with the estimate support")
    dec = np.zeros(m, dtype=bool)
    dec[indices[decide(coeffs.alpha * values - coeffs.beta, budget)]] = True
    return dec


def decide_sparse(coeffs: CostCoefficients, eta: ProbEstimate,
                  budget: int | None = None) -> Labels:
    """:func:`decide_support` on an estimate's support, as a sorted label tuple."""
    return _labels(decide_support(coeffs, eta.indices, eta.values, eta.m, budget))
