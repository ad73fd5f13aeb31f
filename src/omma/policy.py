"""Turning per-label or per-class coefficients plus an estimate into a prediction.

The linearized objective reduces to one (alpha, beta) pair per label or class
(``Metric.coefficients``): multilabel gains ``alpha_j * eta_j - beta_j`` are
thresholded at zero, multiclass class scores ``alpha_l * eta_l - beta_l *
sum(eta)`` are ranked.  One scoring function (:func:`gains`) and one decision
kernel (:func:`decide`) serve both, and a buffer decides as its rows do, bit
for bit, in any layout.  Without a budget a multilabel decision is the one
comparison ``alpha * eta >= beta``, which for finite operands is the gain
threshold exactly.  Ties go to the smaller label index everywhere, and a
gain of exactly zero predicts positive.
"""

from __future__ import annotations

import math

import numpy as np

from .confusion import _ZERO, Labels, ProbEstimate, _cells
from .metrics import CostCoefficients, _coefficients


def cost_coefficients(G: np.ndarray) -> CostCoefficients:
    """Per-label (alpha, beta) of an (m, 2, 2) multilabel gradient tensor: the
    pair that ``Metric.coefficients`` forms without the tensor."""
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 3 or G.shape[1:] != (2, 2):
        raise ValueError("expected an (m, 2, 2) gradient tensor")
    return _coefficients(*_cells(G), G.shape[:1])


def class_mass(eta: np.ndarray) -> np.ndarray:
    """sum(eta) of an (m,) row as a 0-d float64 array, or of each row of an
    (n, m) buffer as an (n, 1) column, correctly rounded (``math.fsum``): the
    same bits for a row alone and in any buffer, whatever its layout.  A row's
    mass is an array, not a Python float, because numpy converts a Python
    number operand on every call and takes a faster path for an array."""
    if eta.ndim == 1:
        return np.array(math.fsum(eta.tolist()))
    return np.array(list(map(math.fsum, eta.tolist())))[:, None]


def gains(coeffs: CostCoefficients, eta: ProbEstimate | np.ndarray,
          mass: np.ndarray | None = None) -> np.ndarray:
    """Scores of an estimate, an (m,) row or (n, m) rows (unlisted eta_j = 0):
    ``alpha * eta - beta`` without ``mass`` (multilabel gains), ``alpha * eta
    - beta * mass`` with the rows' :func:`class_mass` (class scores).  A
    structural zero beta, the scalar 0.0, is skipped: x - 0.0 is x."""
    if isinstance(eta, ProbEstimate):
        eta = eta.dense()
    alpha, beta = coeffs
    scores = alpha * eta
    if isinstance(beta, np.ndarray):  # in place: one temporary fewer on a buffer
        scores -= beta if mass is None else beta * mass
    return scores


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
        return scores >= _ZERO
    if budget is not None and budget > m:
        raise ValueError(f"budget {budget} exceeds the {m} candidate labels")
    if budget is None or budget == 1:
        return np.arange(m) == scores.argmax(axis=-1)[..., None]
    # each score's rank in a stable descending sort; the first k ranks win
    return (-scores).argsort(axis=-1, kind="stable").argsort(axis=-1) < budget


def decide_coefficients(coeffs: CostCoefficients, eta: np.ndarray,
                        budget: int | None = None, *, multiclass: bool = False,
                        mass: np.ndarray | None = None) -> np.ndarray:
    """Decisions of the classifier ``coeffs`` on an (m,) row or an (n, m) buffer:
    thresholded gains or ranked class scores.  The rows' :func:`class_mass` is
    taken here unless given as ``mass`` or beta is 0.0.  Nothing is checked.

    An unbudgeted multilabel decision is ``alpha * eta >= beta``.  For finite
    x and y, x - y is 0 only where x == y and has the sign of the exact
    difference, so this equals ``decide(gains(coeffs, eta))`` bit for bit.
    The one exception is both sides the same infinity, where the gain is NaN
    (not >= 0) and the comparison true; a run raises on the overflow first.
    """
    if not multiclass:
        if budget is None:
            return coeffs.alpha * eta >= coeffs.beta
        return decide(gains(coeffs, eta), budget)
    if mass is None and isinstance(coeffs.beta, np.ndarray):
        mass = class_mass(eta)
    return decide(gains(coeffs, eta, mass), budget, argmax=True)


def _labels(dec: np.ndarray) -> Labels:
    """Positive labels of an (m,) decision row."""
    return tuple(dec.nonzero()[0].tolist())


def decide_multilabel(g: np.ndarray, budget: int | None = None) -> Labels:
    """Positive set from gains: thresholded at zero, or the top-k under a budget."""
    return _labels(decide(np.asarray(g, dtype=np.float64), budget))


def decide_multiclass(G: np.ndarray, eta: ProbEstimate | np.ndarray,
                      budget: int | None = None) -> Labels:
    """Class(es) maximizing the column scores sum_j G[j, l] * eta_j of any (m, m)
    G, by one one-row product: the definition the coefficient rule follows."""
    G = np.asarray(G, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError("expected an (m, m) gradient matrix")
    dense = eta.dense() if isinstance(eta, ProbEstimate) else np.asarray(eta, float)
    if dense.shape[0] != G.shape[0]:
        raise ValueError("estimate length does not match the gradient")
    return _labels(decide(dense @ G, budget, argmax=True))


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
    dec[indices[decide_coefficients(coeffs, values, budget)]] = True
    return dec


def decide_sparse(coeffs: CostCoefficients, eta: ProbEstimate,
                  budget: int | None = None) -> Labels:
    """:func:`decide_support` on an estimate's support, as a sorted label tuple."""
    return _labels(decide_support(coeffs, eta.indices, eta.values, eta.m, budget))
