"""Light-curve preprocessing: phase folding, alignment to maximum light,
smoothing-spline resampling, and assembly of the three dataset variants.

Variants:
  RAW_PADDED      phase-folded/aligned observations, padded to the corpus
                  maximum length with a sentinel value and a validity mask.
  SPLINE_NO_MEAN  spline-resampled magnitudes on a uniform phase grid,
                  without mean-magnitude centering.
  FULL            spline-resampled, mean-centered magnitudes; second channel
                  is phase times period for both spline variants.

Smoothing splines: the cubic smoothing spline is solved in the basis of
natural splines, as `scipy.interpolate.make_smoothing_spline` does, with the
design band X and the penalty band W^-1 E assembled by the same
floating-point operations, so a fit at a fixed lambda is bit-identical to
`make_smoothing_spline(x, y, lam)`. Under GCV (Craven & Wahba 1979) lambda
comes from the Demmler-Reinsch eigenbasis: one generalized eigensolve
Omega V = X^T X V diag(mu), Omega = X^T W^-1 E, turns the hat matrix into
diag(1 / (1 + lambda mu)), so with z = (X V)^T y

    GCV(lambda) = n sum(a^2 z^2) / (sum a)^2,   a = lambda mu / (1 + lambda mu).

It is scored on the log grid lambda = n 10^k, k = -12, -11.875, ..., 3, and
refined by bounded Brent in log10 lambda between the best grid point's two
neighbours. The fit then ends in the same fixed-lambda solve, and
`SplineFit.lam` records the lambda used. A GCV fit whose residual disagrees
with the closed form, as near-duplicate phases make it do, raises
`SingularFit`.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.interpolate import BSpline
from scipy.linalg import LinAlgError, eigh, solve_banded
from scipy.optimize import minimize_scalar

from .catalog import LightCurve, StarRecord
from .errors import (InsufficientPoints, InvalidConfig, NonFinitePhase,
                     SingularFit)


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
    spline: object         # scipy BSpline, evaluable on [0, 1)
    lam: float             # smoothing parameter used, also when GCV chose it
    residual_rms: float


@dataclass(frozen=True)
class FeatureSeries:
    source_id: int
    values: np.ndarray     # (L, 2): magnitude channel, phase*period channel
    mask: np.ndarray       # (L,) bool, True = valid timestep
    variant: Variant
    target: float          # [Fe/H], dex


@dataclass(frozen=True)
class PreprocessConfig:
    resample_length: int = 100
    spline_degree: int = 3
    lambda_strategy: str = "gcv"   # "gcv" or "fixed"
    lam: float = 1e-4              # used when lambda_strategy == "fixed"
    pad_value: float = -1.0

    def __post_init__(self):
        if self.resample_length < 8:
            raise InvalidConfig("resample_length must be >= 8")
        if self.lambda_strategy not in ("gcv", "fixed"):
            raise InvalidConfig(f"unknown lambda strategy {self.lambda_strategy!r}")
        if not self.lam >= 0.0:
            raise InvalidConfig(f"lam must be >= 0, got {self.lam}")


def phase_fold(curve: LightCurve, period: float, epoch_max: float) -> PhasedCurve:
    """Fold observation times onto pulsation phase in [0, 1).

    phase(t) = frac((t - epoch_max) / period), with negative offsets wrapped
    into [0, 1). Output is sorted by phase.
    """
    if not (period > 0 and math.isfinite(period)):
        raise ValueError(f"period must be positive and finite, got {period}")
    if not math.isfinite(epoch_max):
        raise ValueError(f"epoch_max must be finite, got {epoch_max}")
    if not np.all(np.isfinite(curve.times)):
        raise NonFinitePhase(f"non-finite time in curve {curve.source_id}")
    cycles = (curve.times - epoch_max) / period
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


def align_to_maximum(curve: PhasedCurve) -> PhasedCurve:
    """Rotate phases so the brightest point (minimum magnitude) sits at 0.

    Identity when the curve is already brightest at phase 0; ties broken by
    lowest phase. Idempotent.
    """
    if len(curve) == 0:
        raise ValueError("empty curve")
    brightest = int(np.argmin(curve.mags))  # argmin returns first on ties
    shift = curve.phases[brightest]
    if shift == 0.0:
        return curve
    phases = np.mod(curve.phases - shift, 1.0)
    phases[phases >= 1.0] = 0.0
    order = np.argsort(phases, kind="stable")
    return PhasedCurve(curve.source_id, phases[order], curve.mags[order],
                       curve.period, curve.mean_mag)


def _dedupe(x, y):
    """Average y over duplicate x values; x must be sorted."""
    ux, inverse = np.unique(x, return_inverse=True)
    if len(ux) == len(x):
        return x, y
    sums = np.zeros(len(ux))
    counts = np.zeros(len(ux))
    np.add.at(sums, inverse, y)
    np.add.at(counts, inverse, 1.0)
    return ux, sums / counts


# log10(lambda / n) of the GCV grid: -12 to 3 in steps of 1/8
_LOG_LAMBDA_GRID = np.linspace(-12.0, 3.0, 121)
# a GCV fit whose residual sum of squares strays further than this from the
# closed form's prediction has lost its digits to near-duplicate phases
_GCV_RSS_RTOL = 0.1


def _divided_difference_coeffs(windows):
    """Row-wise coefficients 1 / prod_{k != i} (x_i - x_k) of the divided
    difference over each row of `windows`, multiplied in scipy's order."""
    out = np.empty(windows.shape)
    for i in range(windows.shape[1]):
        prod = np.ones(len(windows))
        for k in range(windows.shape[1]):
            if k != i:
                prod *= windows[:, i] - windows[:, k]
        out[:, i] = 1.0 / prod
    return out


def _spline_bands(x):
    """Knots t and the natural-spline design band X and penalty band
    W^-1 E (unit weights) of `make_smoothing_spline`, both in LAPACK (2, 2)
    band storage, built with the same floating-point operations."""
    n = len(x)
    t = np.r_[[x[0]] * 3, x, [x[-1]] * 3]
    B = BSpline.design_matrix(x, t, 3).toarray()
    X = np.zeros((5, n))
    rows = np.arange(n - 4)
    for i in range(1, 4):
        X[i, 2:-2] = B[rows + i, rows + 3]
    X[1, 1] = B[0, 0]
    X[2, :2] = ((x[2] + x[1] - 2 * x[0]) * B[0, 0], B[1, 1] + B[1, 2])
    X[3, :2] = ((x[2] - x[0]) * B[1, 1], B[2, 2])
    X[1, -2:] = (B[-3, -3], (x[-1] - x[-3]) * B[-2, -2])
    X[2, -2:] = (B[-2, -3] + B[-2, -2], (2 * x[-1] - x[-2] - x[-3]) * B[-1, -1])
    X[3, -2] = B[-1, -1]

    wE = np.zeros((5, n))
    wE[2:, 0] = _divided_difference_coeffs(x[None, :3])[0]
    wE[1:, 1] = _divided_difference_coeffs(x[None, :4])[0]
    wE[:, 2:-2] = ((x[4:] - x[:-4])[:, None]
                   * _divided_difference_coeffs(sliding_window_view(x, 5))).T
    wE[:-1, -2] = -_divided_difference_coeffs(x[None, -4:])[0]
    wE[:-2, -1] = _divided_difference_coeffs(x[None, -3:])[0]
    wE *= 6
    return t, X, wE


def _band_to_dense(ab):
    """The square matrix A held in (2, 2) band storage, ab[2 + i - j, j] = A[i, j]."""
    n = ab.shape[1]
    A = np.zeros((n, n))
    for d in range(5):
        j = np.arange(max(0, 2 - d), min(n, n + 2 - d))
        A[j + d - 2, j] = ab[d, j]
    return A


def _tridiagonal_t_times(X, M):
    """X^T M for the tridiagonal X held in band storage and a dense M."""
    out = X[2][:, None] * M
    out[:-1] += X[3, :-1][:, None] * M[1:]
    out[1:] += X[1, 1:][:, None] * M[:-1]
    return out


def _gcv_lambda(X, wE, y):
    """The lambda that minimizes GCV, from the Demmler-Reinsch eigenbasis
    (see the module docstring), and the residual sum of squares that the
    eigenbasis predicts for the fit at that lambda."""
    n = len(y)
    omega = _tridiagonal_t_times(X, _band_to_dense(wE))
    omega = 0.5 * (omega + omega.T)
    mu, V = eigh(omega, _tridiagonal_t_times(X, _band_to_dense(X)),
                 check_finite=False)
    mu = np.maximum(mu, 0.0)   # the penalty is positive semi-definite
    z2 = (V.T @ _tridiagonal_t_times(X, y[:, None])[:, 0]) ** 2

    def shrinkage(log_lam):
        a = np.multiply.outer(10.0 ** np.asarray(log_lam), mu)
        return a / (1.0 + a)

    def gcv(log_lam):
        a = shrinkage(log_lam)
        return n * ((a * a) @ z2) / a.sum(axis=-1) ** 2

    grid = _LOG_LAMBDA_GRID + math.log10(n)
    scores = gcv(grid)
    k = int(np.argmin(scores))
    best = minimize_scalar(gcv, bounds=(grid[max(k - 1, 0)],
                                        grid[min(k + 1, len(grid) - 1)]),
                           method="bounded")
    log_lam = best.x if best.fun < scores[k] else grid[k]
    return float(10.0 ** log_lam), float(shrinkage(log_lam) ** 2 @ z2)


def _solve_spline(t, X, wE, y, lam):
    """The smoothing spline at `lam`, as `make_smoothing_spline` builds it."""
    c = solve_banded((2, 2), X + lam * wE, y)
    c_ = np.r_[c[0] * (t[5] + t[4] - 2 * t[3]) + c[1],
               c[0] * (t[5] - t[3]) + c[1],
               c[1:-1],
               c[-1] * (t[-4] - t[-6]) + c[-2],
               c[-1] * (2 * t[-4] - t[-5] - t[-6]) + c[-2]]
    return BSpline.construct_fast(t, c_, 3)


def _check_gcv_fit(x, y, spline, lam, rss_predicted):
    """Raise LinAlgError unless the fit at the GCV lambda is one the exact
    smoothing spline could be: no worse than the least-squares line, which
    the penalty leaves free, and in agreement with the eigenbasis."""
    rss = float(np.sum((y - spline(x)) ** 2))
    xc, yc = x - x.mean(), y - y.mean()
    rss_line = float(yc @ yc - (xc @ yc) ** 2 / (xc @ xc))
    if not (rss <= (1.0 + _GCV_RSS_RTOL) * rss_line
            and abs(rss - rss_predicted) <= _GCV_RSS_RTOL * rss_predicted):
        raise LinAlgError(
            f"fit at GCV lambda = {lam:.3g} is numerically unreliable "
            f"(residual sum of squares {rss:.3g}, predicted "
            f"{rss_predicted:.3g}, straight line {rss_line:.3g})")


def fit_smoothing_spline(curve: PhasedCurve, config: PreprocessConfig = PreprocessConfig()) -> SplineFit:
    """Fit a cubic smoothing spline minimizing squared residuals plus a
    curvature penalty weighted by lambda.

    The first and last phase points are duplicated at phase +/- 1 so the fit
    behaves sensibly at the period boundary. lambda is either fixed or chosen
    per curve by generalized cross-validation (see the module docstring).
    A fixed lambda gives exactly `make_smoothing_spline`'s fit, numerical
    limits included. A GCV fit is checked, and near-duplicate phases that
    leave it numerically unreliable raise `SingularFit`.
    """
    x, y = _dedupe(curve.phases, curve.mags)
    if len(x) < config.spline_degree + 1:
        raise InsufficientPoints(
            f"curve {curve.source_id}: {len(x)} distinct phases, "
            f"need >= {config.spline_degree + 1}")
    # wrap boundary points for a roughly periodic fit
    n_wrap = min(3, len(x))
    xe = np.concatenate([x[-n_wrap:] - 1.0, x, x[:n_wrap] + 1.0])
    ye = np.concatenate([y[-n_wrap:], y, y[:n_wrap]])
    if not np.all(np.diff(xe) > 0):
        raise SingularFit(f"curve {curve.source_id}: distinct phases "
                          f"collapse when wrapped by one period")
    try:
        t, X, wE = _spline_bands(xe)
        if config.lambda_strategy == "gcv":
            lam, rss_predicted = _gcv_lambda(X, wE, ye)
            spline = _solve_spline(t, X, wE, ye, lam)
            _check_gcv_fit(xe, ye, spline, lam, rss_predicted)
        else:
            lam = config.lam
            spline = _solve_spline(t, X, wE, ye, lam)
    except LinAlgError as exc:
        raise SingularFit(f"curve {curve.source_id}: {exc}") from exc
    resid = y - spline(x)
    return SplineFit(spline=spline, lam=lam,
                     residual_rms=float(np.sqrt(np.mean(resid ** 2))))


def resample(fit: SplineFit, length: int):
    """Evaluate the spline on the uniform grid k/length, k = 0..length-1."""
    if length < 2:
        raise ValueError("resample length must be >= 2")
    grid = np.arange(length, dtype=np.float64) / length
    return grid, np.asarray(fit.spline(grid), dtype=np.float64)


def build_feature_series(star: StarRecord, curve: PhasedCurve, variant: Variant,
                         config: PreprocessConfig = PreprocessConfig(),
                         pad_to: Optional[int] = None) -> FeatureSeries:
    """Assemble the two-channel input sequence for one star.

    FULL: channel 1 = resampled magnitude minus its mean, channel 2 = phase
    times period. SPLINE_NO_MEAN: same without the mean subtraction.
    RAW_PADDED: per-observation channels (magnitude minus curve mean, phase
    times period) padded to `pad_to` with the sentinel and mask=False.
    """
    if variant is Variant.RAW_PADDED:
        n = len(curve)
        total = pad_to if pad_to is not None else n
        if total < n:
            raise ValueError(f"pad_to {total} < curve length {n}")
        values = np.full((total, 2), config.pad_value, dtype=np.float64)
        values[:n, 0] = curve.mags - curve.mean_mag
        values[:n, 1] = curve.phases * curve.period
        mask = np.zeros(total, dtype=bool)
        mask[:n] = True
        return FeatureSeries(star.source_id, values, mask, variant, star.feh)

    fit = fit_smoothing_spline(curve, config)
    grid, mags = resample(fit, config.resample_length)
    values = np.empty((config.resample_length, 2), dtype=np.float64)
    values[:, 0] = mags
    values[:, 1] = grid * curve.period
    mask = np.ones(config.resample_length, dtype=bool)
    series = FeatureSeries(star.source_id, values, mask, Variant.SPLINE_NO_MEAN,
                           star.feh)
    return center_series(series) if variant is Variant.FULL else series


def center_series(series: FeatureSeries) -> FeatureSeries:
    """The FULL series of a SPLINE_NO_MEAN one: the magnitude channel minus
    its mean, the phase channel as it is."""
    mags = series.values[:, 0].copy()
    values = series.values.copy()
    values[:, 0] = mags - np.mean(mags)
    return FeatureSeries(series.source_id, values, series.mask, Variant.FULL,
                         series.target)


@dataclass
class DatasetManifest:
    variant: str
    config: PreprocessConfig
    n_requested: int
    n_built: int
    failures: list = field(default_factory=list)  # (source_id, message)


def build_dataset(pairs, variant: Variant,
                  config: PreprocessConfig = PreprocessConfig()):
    """Build one FeatureSeries per (StarRecord, LightCurve) pair.

    Per-star failures are recorded in the manifest instead of aborting the
    batch. Output order follows input order.
    """
    phased = []
    for star, lc in pairs:
        epoch_max = star.epoch_max if star.epoch_max is not None else (
            lc.times[int(np.argmin(lc.mags))] if len(lc) else 0.0)
        pc = phase_fold(lc, star.period, epoch_max)
        phased.append((star, align_to_maximum(pc)))

    pad_to = None
    if variant is Variant.RAW_PADDED and phased:
        pad_to = max(len(pc) for _, pc in phased)

    series, failures = [], []
    for star, pc in phased:
        try:
            series.append(build_feature_series(star, pc, variant, config, pad_to=pad_to))
        except (InsufficientPoints, SingularFit) as exc:
            failures.append((star.source_id, str(exc)))
    manifest = DatasetManifest(variant=variant.value, config=config,
                               n_requested=len(pairs), n_built=len(series),
                               failures=failures)
    return series, manifest


def build_datasets(pairs, variants, config: PreprocessConfig = PreprocessConfig()):
    """`build_dataset` for each of `variants`, fitting each spline once: when
    both spline variants are asked for, FULL is derived from the
    SPLINE_NO_MEAN series by `center_series`. Returns
    {variant: (series, manifest)}."""
    built = {}
    for variant in sorted(variants, key=lambda v: v is Variant.FULL):
        source = built.get(Variant.SPLINE_NO_MEAN)
        if variant is Variant.FULL and source is not None:
            series, manifest = source
            built[variant] = ([center_series(s) for s in series],
                              replace(manifest, variant=variant.value,
                                      failures=list(manifest.failures)))
        else:
            built[variant] = build_dataset(pairs, variant, config)
    return built
