"""Light-curve preprocessing: phase folding, smoothing-spline resampling, and
`build_datasets`, which folds each curve once, at its brightest observation,
fits each star's spline at most once, records each fit's lambda, residual or
error (`FitRecord`) and writes the arrays of the three dataset variants
directly:
  RAW_PADDED      phase-folded observations, brightest at phase 0, padded to
                  the corpus maximum length with PAD_VALUE and a validity mask.
  SPLINE_NO_MEAN  spline-resampled magnitudes on a uniform phase grid,
                  without mean-magnitude centering.
  FULL            spline-resampled, mean-centered magnitudes.
The second channel is phase times period in every variant.

Smoothing splines are solved in Reinsch's form (Reinsch 1967; Green &
Silverman 1994, sec. 2.3), on knots that weigh tied phases: each run of
phases closer than _MERGE_GAP is one knot, weighted by its count
(`_merge_knots`). With Q the m x (m - 2) second-difference matrix of the m
knots, R the tridiagonal matrix of their gaps (`_second_differences`) and
W = diag(w), (R + lambda Q^T W^-1 Q) gamma = Q^T y gives the fitted values
g = y - lambda W^-1 Q gamma and, in gamma, the spline's second derivatives at
the interior knots; y holds the knots' mean magnitudes. The spline is the
piecewise cubic with values g and second derivatives m = [0, gamma, 0] at the
knots, built from them without a second solve: the natural cubic through g,
up to rounding. Q^T W^-1 Q is positive definite, so the solve keeps its
digits at every lambda, and a large lambda gives the weighted least-squares
line. At small lambda a fit is within 1e-6 mag of `make_smoothing_spline`'s
on the resample grid, not bit for bit. With every weight 1 each product and
quotient by w is exact, so an unmerged curve is fitted as if W were absent.

Under GCV (Craven & Wahba 1979) lambda comes from the eigenbasis of the
weighted penalty K~ = W^-1/2 K W^-1/2, K = Q R^-1 Q^T: one symmetric
eigensolve K~ = U diag(kappa) U^T, by LAPACK's divide and conquer (`syevd`,
through `np.linalg.eigh`), turns the hat matrix of the n observations
(wrapped copies included, n = sum w) into closed form. With
z = U^T W^1/2 r, r the knot means less their weighted least-squares line
(which K leaves free), and S the sum of squares within the merged runs,
counted once more for each wrapped copy,

    GCV(lambda) = n (S + sum(a^2 z^2)) / (n - m + sum a)^2,
    a = lambda kappa / (1 + lambda kappa).

It is scored on the log grid lambda = n 10^k, k = -12, -11.875, ..., 3, and
refined by bounded Brent in log10 lambda between the best grid point's two
neighbours. The fit then ends in the same fixed-lambda solve, and
`SplineFit.lam` records the lambda used. A GCV fit whose residual disagrees
with the closed form raises `SingularFit`.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.interpolate import PPoly
from scipy.linalg import LinAlgError, solveh_banded
from scipy.optimize import minimize_scalar

from .catalog import LightCurve
from .container import ArrayDataset
from .errors import (InsufficientPoints, InvalidConfig, NonFinitePhase,
                     SingularFit)


# The value of RAW_PADDED's padded steps; no prediction depends on it, nor on
# how many a row has: the model zeroes padded steps at its input and in every
# layer's output (`nn.model.Sequential`).
PAD_VALUE = -1.0


class Variant(enum.Enum):
    RAW_PADDED = "raw_padded"
    SPLINE_NO_MEAN = "spline_no_mean"
    FULL = "full"


@dataclass(frozen=True)
class PhasedCurve:
    source_id: int
    phases: np.ndarray     # in [0, 1), sorted ascending
    mags: np.ndarray
    period: float          # days
    mean_mag: float        # arithmetic mean of the input magnitudes

    def __len__(self):
        return len(self.phases)


@dataclass
class SplineFit:
    spline: PPoly          # piecewise cubic with the solve's own second
                           # derivatives: the natural cubic through the
                           # fitted values, on [0, 1)
    lam: float             # smoothing parameter used, also when GCV chose it
    residual_rms: float


class FitRecord(NamedTuple):
    """One star's spline fit in `build_datasets`: lambda and residual_rms
    are None, and error holds the message, when the fit failed."""
    source_id: int
    lam: Optional[float]
    residual_rms: Optional[float]
    error: str


@dataclass(frozen=True)
class PreprocessConfig:
    resample_length: int = 100
    lambda_strategy: str = "gcv"   # "gcv" or "fixed"
    lam: float = 1e-4              # used when lambda_strategy == "fixed"

    def __post_init__(self):
        if self.resample_length < 8:
            raise InvalidConfig("resample_length must be >= 8")
        if self.lambda_strategy not in ("gcv", "fixed"):
            raise InvalidConfig(f"unknown lambda strategy {self.lambda_strategy!r}")
        if not self.lam >= 0.0:
            raise InvalidConfig(f"lam must be >= 0, got {self.lam}")


def phase_fold(curve: LightCurve, period: float, epoch: float) -> PhasedCurve:
    """Fold observation times onto pulsation phase in [0, 1).

    phase(t) = frac((t - epoch) / period), with negative offsets wrapped
    into [0, 1). Output is sorted by phase.
    """
    if not (period > 0 and math.isfinite(period)):
        raise ValueError(f"period must be positive and finite, got {period}")
    if not math.isfinite(epoch):
        raise ValueError(f"epoch must be finite, got {epoch}")
    if not np.all(np.isfinite(curve.times)):
        raise NonFinitePhase(f"non-finite time in curve {curve.source_id}")
    cycles = (curve.times - epoch) / period
    phases = np.mod(cycles, 1.0)
    phases[phases >= 1.0] = 0.0  # guard against mod returning exactly 1.0
    order = np.argsort(phases, kind="stable")
    return PhasedCurve(
        source_id=curve.source_id,
        phases=phases[order],
        mags=curve.mags[order],
        period=period,
        mean_mag=float(np.mean(curve.mags)),
    )


# phases closer than this merge into one knot: about 0.04 s at P = 0.5 d
_MERGE_GAP = 1e-6


def _merge_knots(x, y):
    """The knots of the sorted phases x with magnitudes y: each run of gaps
    below _MERGE_GAP, the seam from x[-1] to x[0] + 1 included, is one knot
    at its mean phase (members near 1 taken less one across the seam) with
    its mean magnitude. Returns (knots, mean magnitudes, weights: the runs'
    counts, each run's sum of squares about its mean magnitude)."""
    new = np.diff(x) >= _MERGE_GAP      # a run starts after each True
    if len(x) == 0 or x[0] + 1.0 - x[-1] >= _MERGE_GAP:
        if new.all():   # the common case: no two phases merge
            return x, y, np.ones(len(x)), np.zeros(len(x))
    elif new.any():
        k = len(new) - int(np.argmax(new[::-1]))   # the last run's start
        x = np.concatenate([x[k:] - 1.0, x[:k]])
        y = np.concatenate([y[k:], y[:k]])
        new = np.concatenate([new[k:], [False], new[:k - 1]])
    starts = np.flatnonzero(np.concatenate([[True], new]))
    counts = np.diff(np.append(starts, len(x)))
    mean_y = np.add.reduceat(y, starts) / counts
    scatter = np.add.reduceat((y - np.repeat(mean_y, counts)) ** 2, starts)
    return (np.add.reduceat(x, starts) / counts, mean_y,
            counts.astype(np.float64), scatter)


# log10(lambda / n) of the GCV grid: -12 to 3 in steps of 1/8
_LOG_LAMBDA_GRID = np.linspace(-12.0, 3.0, 121)
# a GCV fit whose residual sum of squares strays further than this from the
# closed form's prediction has lost its digits
_GCV_RSS_RTOL = 0.1


def _second_differences(x):
    """The diagonals of the n x (n - 2) second-difference matrix Q of the
    knots x, with gaps h: Q[j, j] = a[j] = 1 / h[j], Q[j + 2, j] = c[j] =
    1 / h[j + 1], Q[j + 1, j] = b[j] = -a[j] - c[j]; and the tridiagonal R,
    diagonal (h[j] + h[j + 1]) / 3 and off-diagonal h[j + 1] / 6, in
    `solveh_banded` upper storage."""
    h = np.diff(x)
    a, c = 1.0 / h[:-1], 1.0 / h[1:]
    R = np.zeros((2, len(x) - 2))
    R[0, 1:] = h[1:-1] / 6.0
    R[1] = (h[:-1] + h[1:]) / 3.0
    return (a, -a - c, c), R


def _q_times(q, g):
    """Q g for Q's diagonals q and g of n - 2 rows (a vector or a matrix)."""
    a, b, c = (d.reshape((-1,) + (1,) * (g.ndim - 1)) for d in q)
    out = np.zeros((len(g) + 2,) + g.shape[1:])
    out[:-2] += a * g
    out[1:-1] += b * g
    out[2:] += c * g
    return out


def _solve_spline(x, q, R, y, w, lam):
    """The smoothing spline at `lam` of the knots x with means y and weights
    w, in Reinsch's form: (R + lam Q^T W^-1 Q) gamma = Q^T y, fitted values
    g = y - lam W^-1 Q gamma. gamma holds the second derivatives at the
    interior knots, so with m = [0, gamma, 0] each gap [x[i], x[i + 1]] of
    width h has the cubic with coefficients (m[i + 1] - m[i]) / 6h, m[i] / 2,
    (g[i + 1] - g[i]) / h - h (2 m[i] + m[i + 1]) / 6 and g[i]. Returns
    (spline, g)."""
    a, b, c = q
    qw = aw, bw, cw = a / w[:-2], b / w[1:-1], c / w[2:]   # W^-1 Q
    ab = np.zeros((3, len(a)))
    ab[2] = R[1] + lam * (a * aw + b * bw + c * cw)
    ab[1, 1:] = R[0, 1:] + lam * (b[:-1] * aw[1:] + c[:-1] * bw[1:])
    ab[0, 2:] = lam * c[:-2] * aw[2:]
    gamma = solveh_banded(ab, a * y[:-2] + b * y[1:-1] + c * y[2:],
                          check_finite=False)
    g = y - lam * _q_times(qw, gamma)
    m = np.concatenate([[0.0], gamma, [0.0]])
    h = np.diff(x)
    coeffs = np.empty((4, len(h)))
    coeffs[0] = np.diff(m) / (6.0 * h)
    coeffs[1] = m[:-1] / 2.0
    coeffs[2] = np.diff(g) / h - h * (2.0 * m[:-1] + m[1:]) / 6.0
    coeffs[3] = g[:-1]
    return PPoly.construct_fast(coeffs, x), g


def _detrend(x, y, w):
    """y minus its least-squares line in x, weighted by w, which the penalty
    leaves free."""
    xc, yc = (v - np.sum(w * v) / np.sum(w) for v in (x, y))
    wxc = w * xc
    return yc - xc * ((wxc @ yc) / (wxc @ xc))


def _gcv_scores(q, R, r, w, scatter):
    """GCV as a function of log10 lambda, and the weighted residual sum of
    squares at the knots that the eigenbasis predicts, from one eigensolve
    of the weighted penalty K~ (see the module docstring): w holds the
    knots' weights and `scatter` the sum of squares within them.

    r is the knot means less their weighted least-squares line (`_detrend`),
    which lies in K's null space: scored on y itself, the mean level of some
    16 mag leaked through the rounding of U into the components GCV weighs."""
    n, m = np.sum(w), len(w)
    sw = np.sqrt(w)
    a, b, c = q
    qs = (a / sw[:-2], b / sw[1:-1], c / sw[2:])   # W^-1/2 Q
    Qt = _q_times(qs, np.eye(m - 2)).T
    kappa, U = np.linalg.eigh(_q_times(qs, solveh_banded(R, Qt,
                                                         check_finite=False)))
    kappa = np.maximum(kappa, 0.0)   # the penalty is positive semi-definite
    z2 = (U.T @ (sw * r)) ** 2

    def shrinkage(log_lam):
        a = np.multiply.outer(10.0 ** np.asarray(log_lam), kappa)
        return a / (1.0 + a)

    def gcv(log_lam):
        a = shrinkage(log_lam)
        return n * (scatter + (a * a) @ z2) / (n - m + a.sum(axis=-1)) ** 2

    return gcv, lambda log_lam: shrinkage(log_lam) ** 2 @ z2


def _gcv_lambda(q, R, r, w, scatter):
    """The lambda minimizing `_gcv_scores`' GCV, and its fit's predicted rss."""
    gcv, rss = _gcv_scores(q, R, r, w, scatter)
    grid = _LOG_LAMBDA_GRID + math.log10(np.sum(w))
    scores = gcv(grid)
    k = int(np.argmin(scores))
    best = minimize_scalar(gcv, bounds=(grid[max(k - 1, 0)],
                                        grid[min(k + 1, len(grid) - 1)]),
                           method="bounded")
    log_lam = best.x if best.fun < scores[k] else grid[k]
    return float(10.0 ** log_lam), float(rss(log_lam))


def _check_gcv_fit(y, g, r, w, lam, rss_predicted):
    """Raise LinAlgError unless the fit at the GCV lambda is one the exact
    smoothing spline could be: no worse than the weighted least-squares
    line, which the penalty leaves free (r is y less that line), and in
    agreement with the eigenbasis. The spline takes the fitted values g at
    the knots, whose means are y and weights w."""
    rss = float(np.sum(w * (y - g) ** 2))
    rss_line = float((w * r) @ r)
    if not (rss <= (1.0 + _GCV_RSS_RTOL) * rss_line
            and abs(rss - rss_predicted) <= _GCV_RSS_RTOL * rss_predicted):
        raise LinAlgError(
            f"fit at GCV lambda = {lam:.3g} is numerically unreliable "
            f"(residual sum of squares {rss:.3g}, predicted "
            f"{rss_predicted:.3g}, straight line {rss_line:.3g})")


def fit_smoothing_spline(curve: PhasedCurve, config: PreprocessConfig = PreprocessConfig()) -> SplineFit:
    """Fit a cubic smoothing spline minimizing squared residuals plus a
    curvature penalty weighted by lambda.

    Phases closer than _MERGE_GAP make one weighted knot (`_merge_knots`),
    and three knots are wrapped in from each end by one period so the fit
    behaves sensibly at the period boundary. lambda is either fixed or
    chosen per curve by generalized cross-validation, and either way the fit
    is solved in Reinsch's form (see the module docstring). A GCV fit is
    checked, and one that its eigenbasis leaves numerically unreliable
    raises `SingularFit`. `residual_rms` is taken over the observations.
    """
    x, y, w, scatter = _merge_knots(curve.phases, curve.mags)
    if len(x) < 4:
        raise InsufficientPoints(
            f"curve {curve.source_id}: {len(x)} distinct phases, a cubic "
            f"spline needs >= 4")
    # wrap boundary knots for a roughly periodic fit
    xe = np.concatenate([x[-3:] - 1.0, x, x[:3] + 1.0])
    ye, we, se = (np.concatenate([v[-3:], v, v[:3]]) for v in (y, w, scatter))
    try:
        q, R = _second_differences(xe)
        if config.lambda_strategy == "gcv":
            r = _detrend(xe, ye, we)
            lam, rss_predicted = _gcv_lambda(q, R, r, we, np.sum(se))
            spline, g = _solve_spline(xe, q, R, ye, we, lam)
            _check_gcv_fit(ye, g, r, we, lam, rss_predicted)
        else:
            lam = config.lam
            spline, g = _solve_spline(xe, q, R, ye, we, lam)
    except LinAlgError as exc:
        raise SingularFit(f"curve {curve.source_id}: {exc}") from exc
    # each observation's residual: about its knot's mean, and that mean
    # about the spline, which takes g at its knots
    rss = np.sum(scatter) + np.sum(w * (y - g[3:-3]) ** 2)
    return SplineFit(spline=spline, lam=lam,
                     residual_rms=float(np.sqrt(rss / len(curve))))


def resample(fit: SplineFit, length: int):
    """Evaluate the spline on the uniform grid k/length, k = 0..length-1."""
    if length < 2:
        raise ValueError("resample length must be >= 2")
    grid = np.arange(length, dtype=np.float64) / length
    return grid, np.asarray(fit.spline(grid), dtype=np.float64)


def build_datasets(pairs, variants, config: PreprocessConfig = PreprocessConfig()):
    """The dataset of each of `variants` from (StarRecord, LightCurve) pairs,
    and the spline fit of each star: ({variant: ArrayDataset}, fits), rows
    in input order, `meta` empty.

    Each curve is folded once, at its brightest observation (the first in
    time order on ties), which so sits at phase 0; `epoch_max` is not read.
    Each star's spline is fitted at most once.
    The channels are (magnitude, phase times period) per step. RAW_PADDED:
    the observations, magnitude minus the curve mean, padded to the longest
    curve with PAD_VALUE and mask False. SPLINE_NO_MEAN: the spline on
    `resample_length` uniform phases. FULL: that minus its mean magnitude.
    `fits` holds one `FitRecord` per star when a spline variant is asked
    for, and is empty otherwise. A star whose fit fails is left out of both
    spline variants; its record has no lambda or residual, and the error.
    """
    curves = [phase_fold(lc, star.period, lc.times[int(np.argmin(lc.mags))])
              for star, lc in pairs]
    stars = [star for star, _ in pairs]
    built = {}
    if Variant.RAW_PADDED in variants:
        length = max((len(pc) for pc in curves), default=0)
        values = np.full((len(curves), length, 2), PAD_VALUE, dtype=np.float64)
        mask = np.zeros((len(curves), length), dtype=bool)
        for row, pc in enumerate(curves):
            n = len(pc)
            values[row, :n, 0] = pc.mags - pc.mean_mag
            values[row, :n, 1] = pc.phases * pc.period
            mask[row, :n] = True
        built[Variant.RAW_PADDED] = _dataset(Variant.RAW_PADDED, stars, values, mask)

    spline_variants = [v for v in (Variant.SPLINE_NO_MEAN, Variant.FULL)
                       if v in variants]
    fits = []
    if spline_variants:
        length = config.resample_length
        values = {v: np.empty((len(curves), length, 2)) for v in spline_variants}
        fitted = []
        for star, pc in zip(stars, curves):
            try:
                fit = fit_smoothing_spline(pc, config)
            except (InsufficientPoints, SingularFit) as exc:
                fits.append(FitRecord(star.source_id, None, None, str(exc)))
                continue
            fits.append(FitRecord(star.source_id, fit.lam, fit.residual_rms, ""))
            grid, mags = resample(fit, length)
            for variant, rows in values.items():
                rows[len(fitted), :, 0] = (mags - np.mean(mags)
                                           if variant is Variant.FULL else mags)
                rows[len(fitted), :, 1] = grid * pc.period
            fitted.append(star)
        for variant, rows in values.items():
            mask = np.ones((len(fitted), length), dtype=bool)
            built[variant] = _dataset(variant, fitted, rows[:len(fitted)], mask)
    return built, fits


def _dataset(variant, stars, values, mask):
    """The ArrayDataset of `stars`' rows; with no star, values (0, 0, 2)."""
    if not stars:
        values, mask = np.zeros((0, 0, 2)), np.zeros((0, 0), dtype=bool)
    return ArrayDataset(
        source_ids=np.array([s.source_id for s in stars], dtype=np.int64),
        values=values, mask=mask,
        targets=np.array([s.feh for s in stars], dtype=np.float64),
        variant=variant.value, meta={})
