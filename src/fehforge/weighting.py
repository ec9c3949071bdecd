"""Density-dependent sample weights for the imbalanced [Fe/H] distribution.

A Gaussian kernel density estimate is fit to the target values of the
training split; each sample is weighted by the inverse of its (normalized)
density so that rare metal-rich and metal-poor stars are not swamped by the
peak of the distribution. Weights are rescaled to mean one and optionally
capped for training stability.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import gaussian_kde

from .errors import DegenerateDistribution, InvalidConfig, ZeroDensity


@dataclass
class DensityModel:
    kde: gaussian_kde
    bandwidth: float       # effective kernel std-dev in dex
    support: np.ndarray    # sample the KDE was fit on

    def density(self, values):
        return self.kde(np.atleast_1d(np.asarray(values, dtype=np.float64)))


def fit_density(values, bandwidth=None) -> DensityModel:
    """Fit a Gaussian KDE; bandwidth defaults to Scott's rule.

    `bandwidth`, when given, is the kernel standard deviation in dex.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or len(values) < 2:
        raise DegenerateDistribution("need at least two values")
    std = values.std(ddof=1)
    if std == 0.0:
        raise DegenerateDistribution("all values identical")
    if bandwidth is None:
        kde = gaussian_kde(values)  # Scott's rule
        eff_bw = kde.factor * std
    else:
        if bandwidth <= 0:
            raise InvalidConfig(f"bandwidth must be positive, got {bandwidth}")
        kde = gaussian_kde(values, bw_method=bandwidth / std)
        eff_bw = bandwidth
    return DensityModel(kde=kde, bandwidth=float(eff_bw), support=values)


def compute_weights(model: DensityModel, values, cap=20.0):
    """Inverse-density weights, rescaled to mean one.

    With a cap, weights are clipped after the first normalization and the
    mean is restored afterwards. Raises `ZeroDensity` if the density
    underflows at any evaluation point.
    """
    values = np.asarray(values, dtype=np.float64)
    dens = model.density(values)
    if np.any(dens <= 0) or not np.all(np.isfinite(dens)):
        bad = values[(dens <= 0) | ~np.isfinite(dens)]
        raise ZeroDensity(f"density underflow at {bad[:5]!r}")
    w = 1.0 / dens
    w /= w.mean()
    if cap is not None:
        w = np.minimum(w, cap)
        w /= w.mean()
    return w
