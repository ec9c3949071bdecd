"""Loss functions."""
from __future__ import annotations

import numpy as np

from ..errors import NonPositiveWeightSum


def weighted_mse(pred, target, weights):
    """Weighted mean squared error and its gradient w.r.t. predictions.

    loss = sum(w * (y - yhat)^2) / sum(w); reduces to plain MSE when all
    weights are one.
    """
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    wsum = weights.sum()
    if wsum <= 0:
        raise NonPositiveWeightSum(f"weight sum {wsum}")
    err = pred - target
    loss = float((weights * err * err).sum() / wsum)
    grad = 2.0 * weights * err / wsum
    return loss, grad
