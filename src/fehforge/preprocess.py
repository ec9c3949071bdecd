"""Light-curve preprocessing: phase folding, alignment to maximum light,
smoothing-spline resampling, and assembly of the three dataset variants.

Variants:
  RAW_PADDED      phase-folded/aligned observations, padded to the corpus
                  maximum length with a sentinel value and a validity mask.
  SPLINE_NO_MEAN  spline-resampled magnitudes on a uniform phase grid,
                  without mean-magnitude centering.
  FULL            spline-resampled, mean-centered magnitudes; second channel
                  is phase times period for both spline variants.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.interpolate import make_smoothing_spline

from .catalog import LightCurve, StarRecord
from .errors import InsufficientPoints, NonFinitePhase, SingularFit


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
    lam: Optional[float]   # smoothing parameter; None means chosen by GCV
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
            raise ValueError("resample_length must be >= 8")
        if self.lambda_strategy not in ("gcv", "fixed"):
            raise ValueError(f"unknown lambda strategy {self.lambda_strategy!r}")


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


def fit_smoothing_spline(curve: PhasedCurve, config: PreprocessConfig = PreprocessConfig()) -> SplineFit:
    """Fit a cubic smoothing spline minimizing squared residuals plus a
    curvature penalty weighted by lambda.

    The first and last phase points are duplicated at phase +/- 1 so the fit
    behaves sensibly at the period boundary. lambda is either fixed or chosen
    per curve by generalized cross-validation.
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
    lam = None if config.lambda_strategy == "gcv" else config.lam
    try:
        spline = make_smoothing_spline(xe, ye, lam=lam)
    except np.linalg.LinAlgError as exc:
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
