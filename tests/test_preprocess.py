import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline, make_smoothing_spline

from fehforge import preprocess
from fehforge.catalog import LightCurve, StarRecord
from fehforge.errors import InsufficientPoints
from fehforge.preprocess import (PAD_VALUE, PhasedCurve, PreprocessConfig,
                                 Variant, build_datasets,
                                 fit_smoothing_spline, phase_fold, resample)
from fehforge.synthetic import make_corpus, sawtooth_mag


def make_curve(n=60, period=0.55, seed=0, epoch_max=0.0):
    rng = np.random.default_rng(seed)
    times = np.sort(epoch_max + rng.uniform(0.0, 500.0, size=n))
    phases = np.mod((times - epoch_max) / period, 1.0)
    mags = 16.0 + sawtooth_mag(phases, 0.8, 0.2) + rng.normal(0, 0.005, n)
    return LightCurve(1, times, mags)


def failed(fits):
    """The source_ids of the failed fits among `build_datasets`' records."""
    return [fit.source_id for fit in fits if fit.error]


def fold_at_brightest(lc, period):
    """The curve folded as `build_datasets` folds it."""
    return phase_fold(lc, period, lc.times[int(np.argmin(lc.mags))])


def make_star(**kw):
    base = dict(id=0, source_id=1, period=0.55, amp_g=0.8, n_epochs=60,
                feh=-1.3, feh_sigma=0.2)
    base.update(kw)
    return StarRecord(**base)


def test_phase_fold_range_and_sorted():
    lc = make_curve()
    pc = phase_fold(lc, 0.55, 10.0)
    assert np.all(pc.phases >= 0.0) and np.all(pc.phases < 1.0)
    assert np.all(np.diff(pc.phases) >= 0)
    assert len(pc) == len(lc)
    assert pc.mean_mag == pytest.approx(np.mean(lc.mags))


def test_phase_fold_periodicity():
    # shifting every time by an integer number of periods leaves phases
    # unchanged to well below 1e-9
    lc = make_curve(n=40)
    period = 0.6173
    pc1 = phase_fold(lc, period, 5.0)
    lc2 = LightCurve(1, lc.times + 7 * period, lc.mags)
    pc2 = phase_fold(lc2, period, 5.0)
    np.testing.assert_allclose(pc1.phases, pc2.phases, atol=1e-9)


def test_phase_fold_rejects_bad_inputs():
    lc = make_curve(n=10)
    with pytest.raises(ValueError):
        phase_fold(lc, -0.5, 0.0)
    with pytest.raises(ValueError):
        phase_fold(lc, 0.5, float("nan"))


def test_align_puts_brightest_at_zero_and_is_idempotent():
    # build_datasets puts the brightest observation at phase exactly 0, the
    # first in time order on ties, and folding the folded curve again at its
    # brightest observation changes no byte
    lc = make_curve(n=60, seed=7)
    ds = build_datasets([(make_star(), lc)],
                        [Variant.RAW_PADDED])[0][Variant.RAW_PADDED]
    values = ds.values[0]
    assert values[0, 1] == 0.0 and values[0, 0] == values[:, 0].min()
    folded = LightCurve(1, values[:, 1], values[:, 0] + np.mean(lc.mags))
    again = build_datasets([(make_star(), folded)],
                           [Variant.RAW_PADDED])[0][Variant.RAW_PADDED]
    assert again.values.tobytes() == ds.values.tobytes()
    brightest = int(np.argmin(lc.mags))
    other = (brightest + 30) % 60
    mags = lc.mags.copy()
    mags[other] = mags[brightest]
    tied = LightCurve(1, lc.times, mags)
    ds = build_datasets([(make_star(), tied)],
                        [Variant.RAW_PADDED])[0][Variant.RAW_PADDED]
    pc = phase_fold(tied, 0.55, tied.times[min(brightest, other)])
    assert np.array_equal(ds.values[0, :, 1], pc.phases * 0.55)
    assert np.array_equal(ds.values[0, :, 0], pc.mags - pc.mean_mag)


def test_build_dataset_epoch_max_fallback():
    # the record's epoch_max, unknown, as given or shifted, changes no byte
    # of raw_padded: the brightest observation defines phase zero
    lc = make_curve(n=60, seed=7)
    raws = [build_datasets([(make_star(epoch_max=epoch_max), lc)],
                           [Variant.RAW_PADDED])[0][Variant.RAW_PADDED]
            for epoch_max in (None, 0.0, 37.1)]
    assert raws[0].values[0, 0, 1] == 0.0   # first phase is exactly zero
    for ds in raws[1:]:
        assert ds.values.tobytes() == raws[0].values.tobytes()


def test_spline_lambda_zero_interpolates():
    # with no curvature penalty the spline passes through the data
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.02, 0.98, size=25))
    y = np.sin(2 * np.pi * x)
    pc = PhasedCurve(1, x, y, 0.5, float(np.mean(y)))
    fit = fit_smoothing_spline(pc, PreprocessConfig(lambda_strategy="fixed",
                                                    lam=0.0))
    np.testing.assert_allclose(fit.spline(x), y, atol=1e-8)
    assert fit.residual_rms < 1e-8


def test_spline_lambda_large_approaches_line():
    # a huge curvature penalty forces an affine fit: second differences of
    # the resampled values vanish
    rng = np.random.default_rng(4)
    x = np.sort(rng.uniform(0.0, 1.0, size=40))
    y = 15.0 + 0.3 * x + rng.normal(0, 0.05, size=40)
    pc = PhasedCurve(1, x, y, 0.5, float(np.mean(y)))
    fit = fit_smoothing_spline(pc, PreprocessConfig(lambda_strategy="fixed",
                                                    lam=1e9))
    grid = np.linspace(0.1, 0.9, 50)
    vals = fit.spline(grid)
    second = np.diff(vals, 2)
    assert np.max(np.abs(second)) < 1e-6
    # and that line is the least-squares one through the fitted points
    xw, yw = wrapped(pc)
    assert np.sum((yw - fit.spline(xw)) ** 2) <= (1 + 1e-9) * line_rss(xw, yw)


def test_spline_insufficient_points():
    pc = PhasedCurve(1, np.array([0.1, 0.5]), np.array([15.0, 15.5]), 0.5, 15.25)
    with pytest.raises(InsufficientPoints):
        fit_smoothing_spline(pc)
    with pytest.raises(InsufficientPoints):
        fit_smoothing_spline(PhasedCurve(1, np.zeros(0), np.zeros(0), 0.5, 0.0))


def test_spline_duplicate_phases_averaged():
    x = np.array([0.1, 0.3, 0.3, 0.5, 0.7, 0.9])
    y = np.array([1.0, 2.0, 4.0, 3.0, 2.0, 1.0])
    pc = PhasedCurve(1, x, y, 0.5, float(np.mean(y)))
    fit = fit_smoothing_spline(pc, PreprocessConfig(lambda_strategy="fixed",
                                                    lam=0.0))
    # the interpolating fit passes through the averaged duplicate, and the
    # residual counts both observations
    assert fit.spline(0.3) == pytest.approx(3.0, abs=1e-8)
    assert fit.residual_rms == pytest.approx(np.sqrt(2.0 / 6.0), rel=1e-12)
    # an observation repeated fits as the curve with that point at weight
    # 2: scipy's weighted fit, and the weighted dense GCV score
    curve = fold_at_brightest(make_curve(), 0.55)
    i = 17
    doubled = PhasedCurve(1, np.insert(curve.phases, i, curve.phases[i]),
                          np.insert(curve.mags, i, curve.mags[i]), 0.55,
                          curve.mean_mag)
    xw, yw = wrapped(curve)
    w = np.ones(len(xw))
    w[i + 3] = 2.0
    assert np.array_equal(knots(doubled)[2], w)
    grid = np.arange(100) / 100
    for lam in (1e-6, 1e-4):
        ours = fit_smoothing_spline(doubled, fixed(lam)).spline(grid)
        ref = make_smoothing_spline(xw, yw, w=w, lam=lam)(grid)
        assert np.max(np.abs(ours - ref)) <= 1e-6
        assert gcv_score(doubled, lam) == pytest.approx(
            dense_gcv(xw, yw, lam, w), rel=1e-6)
    lam = fit_smoothing_spline(doubled).lam
    best = min(dense_gcv(xw, yw, lam * f, w) for f in np.logspace(-1, 1, 41))
    assert dense_gcv(xw, yw, lam, w) <= best * (1 + 1e-4)


def test_resample_grid():
    pc = fold_at_brightest(make_curve(), 0.55)
    fit = fit_smoothing_spline(pc)
    grid, vals = resample(fit, 100)
    assert grid.shape == vals.shape == (100,)
    np.testing.assert_allclose(grid, np.arange(100) / 100)


def test_full_variant_mean_centered_and_phase_channel():
    star = make_star()
    built, fits = build_datasets([(star, make_curve())], [Variant.FULL])
    ds = built[Variant.FULL]
    assert failed(fits) == [] and ds.values.shape == (1, 100, 2)
    assert abs(ds.values[0, :, 0].mean()) < 1e-9
    np.testing.assert_allclose(ds.values[0, :, 1],
                               np.arange(100) / 100 * star.period)
    assert ds.mask.all()
    assert ds.targets.tolist() == [star.feh]
    assert ds.source_ids.tolist() == [star.source_id]


def test_spline_no_mean_keeps_absolute_level():
    star = make_star()
    built, _ = build_datasets([(star, make_curve())],
                              [Variant.FULL, Variant.SPLINE_NO_MEAN])
    full = built[Variant.FULL].values[0]
    raw = built[Variant.SPLINE_NO_MEAN].values[0]
    offset = raw[:, 0].mean()
    assert offset == pytest.approx(16.0, abs=0.1)
    np.testing.assert_allclose(raw[:, 0] - offset, full[:, 0], atol=1e-12)
    np.testing.assert_array_equal(raw[:, 1], full[:, 1])


def test_raw_padded_variant():
    star = make_star()
    pc = fold_at_brightest(make_curve(n=30), star.period)
    longer = (make_star(source_id=2), make_curve(n=48, seed=1))
    built, fits = build_datasets([(star, make_curve(n=30)), longer],
                                 [Variant.RAW_PADDED])
    ds = built[Variant.RAW_PADDED]
    assert fits == [] and ds.values.shape == (2, 48, 2)
    assert ds.mask[0, :30].all() and not ds.mask[0, 30:].any()
    assert ds.mask[1].all()
    assert (ds.values[0, 30:] == PAD_VALUE).all() and PAD_VALUE == -1.0
    assert np.array_equal(ds.values[0, :30, 0], pc.mags - pc.mean_mag)
    assert np.array_equal(ds.values[0, :30, 1], pc.phases * pc.period)


def test_build_dataset_records_failures():
    good = (make_star(source_id=1), make_curve(n=50, seed=1))
    # two observations -> too few distinct phases for a cubic fit
    bad_lc = LightCurve(2, np.array([0.0, 0.3]), np.array([15.0, 15.4]))
    bad = (make_star(source_id=2), bad_lc)
    built, fits = build_datasets([good, bad], list(Variant))
    for variant in (Variant.FULL, Variant.SPLINE_NO_MEAN):
        ds = built[variant]
        assert ds.source_ids.tolist() == [1] and len(ds.targets) == 1
        assert ds.values.shape == (1, 100, 2) and ds.mask.shape == (1, 100)
    assert failed(fits) == [2]
    # one record per star, in input order; the failed one has no lambda
    assert [fit.source_id for fit in fits] == [1, 2]
    assert fits[0].lam > 0 and fits[0].residual_rms > 0 and fits[0].error == ""
    assert fits[1].lam is None and fits[1].residual_rms is None
    assert "distinct phases" in fits[1].error
    raw = built[Variant.RAW_PADDED]
    assert raw.source_ids.tolist() == [1, 2]


def test_every_fit_failing_leaves_empty_arrays():
    bad_lc = LightCurve(2, np.array([0.0, 0.3]), np.array([15.0, 15.4]))
    built, fits = build_datasets([(make_star(source_id=2), bad_lc)],
                                 [Variant.FULL])
    ds = built[Variant.FULL]
    assert failed(fits) == [2]
    assert ds.values.shape == (0, 0, 2) and ds.mask.shape == (0, 0)
    assert ds.source_ids.dtype == np.int64 and ds.targets.shape == (0,)


def test_raw_padded_pad_to_corpus_maximum():
    pairs, _ = make_corpus(5, seed=11)
    ds = build_datasets(pairs, [Variant.RAW_PADDED])[0][Variant.RAW_PADDED]
    n_max = max(len(lc) for _, lc in pairs)
    assert ds.values.shape == (5, n_max, 2)
    for (rec, lc), mask in zip(pairs, ds.mask):
        assert mask.sum() == len(lc)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.2, 0.9), st.floats(-1000.0, 1000.0), st.integers(0, 10))
def test_phase_fold_shift_invariance(period, epoch, k):
    lc = make_curve(n=25, seed=5)
    pc1 = phase_fold(lc, period, epoch)
    pc2 = phase_fold(lc, period, epoch + k * period)
    np.testing.assert_allclose(np.sort(pc1.phases), np.sort(pc2.phases),
                               atol=1e-7)


# --- the smoothing-spline solver ----------------------------------------------

def corpus_curves(n, seed=0):
    """Phase-folded curves of `make_corpus(n, seed)`, by source_id."""
    pairs, _ = make_corpus(n, seed=seed)
    return {rec.source_id: fold_at_brightest(lc, rec.period)
            for rec, lc in pairs}


def knots(curve):
    """The knots, mean magnitudes, weights and sums of squares within that
    `fit_smoothing_spline` fits: three wrapped in from either end by one
    period."""
    x, *rest = preprocess._merge_knots(curve.phases, curve.mags)
    return (np.concatenate([x[-3:] - 1.0, x, x[:3] + 1.0]),
            *(np.concatenate([v[-3:], v, v[:3]]) for v in rest))


def wrapped(curve):
    """The observations `fit_smoothing_spline` fits, unmerged: those of the
    three knots at either end wrapped in by one period. Phases must be
    distinct, and no run of merged phases may cross the seam."""
    x, y = curve.phases, curve.mags
    assert len(np.unique(x)) == len(x)
    counts = preprocess._merge_knots(x, y)[2].astype(int)
    head, tail = counts[:3].sum(), counts[-3:].sum()
    return (np.concatenate([x[-tail:] - 1.0, x, x[:head] + 1.0]),
            np.concatenate([y[-tail:], y, y[:head]]))


def dense_gcv(x, y, lam, w=None):
    """GCV score n |(I - H) y|^2 / (n - tr H)^2 with the hat matrix H built
    column by column from scipy's smoothing spline of the unit vectors. With
    weights w, each point i stands for w[i] observations at y[i]: n is the
    sum of w and the residual is weighted by it."""
    w = np.ones(len(y)) if w is None else w
    H = make_smoothing_spline(x, np.eye(len(y)), w=w, lam=lam)(x)
    r = y - H @ y
    return np.sum(w) * (w @ r ** 2) / (np.sum(w) - np.trace(H)) ** 2


def gcv_score(curve, lam):
    """The program's own GCV score of `curve` at `lam`."""
    x, y, w, scatter = knots(curve)
    q, R = preprocess._second_differences(x)
    gcv, _ = preprocess._gcv_scores(q, R, preprocess._detrend(x, y, w), w,
                                    np.sum(scatter))
    return float(gcv(np.log10(lam)))


def lambda_of(spline, x, y):
    """The lambda of a natural cubic smoothing spline through (x, y), from
    its Euler-Lagrange equations: y_i - f(x_i) = lambda * (jump of the third
    derivative at x_i), which is zero outside [x_0, x_-1]."""
    third = spline.derivative(3)(0.5 * (x[1:] + x[:-1]))
    jumps = np.diff(np.concatenate([[0.0], third, [0.0]]))
    resid = y - spline(x)
    return float(resid @ jumps / (jumps @ jumps))


def line_rss(x, y, w=None):
    """Residual sum of squares of the least-squares line through (x, y),
    weighted by w."""
    w = np.ones(len(x)) if w is None else w
    xc, yc = x - np.average(x, weights=w), y - np.average(y, weights=w)
    return w @ yc ** 2 - (w @ (xc * yc)) ** 2 / (w @ xc ** 2)


def fixed(lam):
    return PreprocessConfig(lambda_strategy="fixed", lam=lam)


def test_fixed_lambda_matches_scipy_and_never_loses_to_the_line():
    # at small lambda, scipy's weighted fit of the same knots on the
    # resample grid; at large lambda, no worse than the weighted
    # least-squares line, which the penalty leaves free and which an exact
    # smoothing spline never loses to. Close knots (gaps down to 2.2e-6)
    # cost some digits, so the bound is 1e-2, not 1e-9
    grid = np.arange(100) / 100
    for curve in corpus_curves(100).values():
        x, y, w, _ = knots(curve)
        for lam in (0.0, 1e-4):
            ours = fit_smoothing_spline(curve, fixed(lam)).spline(grid)
            ref = make_smoothing_spline(x, y, w=w, lam=lam)(grid)
            assert np.max(np.abs(ours - ref)) <= 1e-6
        for lam in (1e3, 1e5, 1e9):
            spline = fit_smoothing_spline(curve, fixed(lam)).spline
            assert np.sum(w * (y - spline(x)) ** 2) <= (1 + 1e-2) * line_rss(x, y, w)


def test_spline_is_the_natural_cubic_through_the_fitted_values():
    # the piecewise cubic built from the solve's own second derivatives
    # against scipy's natural cubic through the same fitted values g, on the
    # resample grid: 5.5e-11 mag at small lambda, 5.8e-8 at large lambda,
    # where knot gaps down to 1.2e-6 cost digits. Slopes at the knots match
    # only to rounding: by 2.3e-8 mag/phase at lambda = 1e-4 and 7.3e-5 at
    # lambda >= 1e3, at close knots
    grid = np.arange(100) / 100
    for curve in corpus_curves(300, seed=3).values():
        x, y, w, _ = knots(curve)
        q, R = preprocess._second_differences(x)
        for lam, bound in ((0.0, 1e-9), (1e-4, 1e-9), (1e3, 1e-6),
                           (1e5, 1e-6), (1e9, 1e-6)):
            spline, g = preprocess._solve_spline(x, q, R, y, w, lam)
            assert np.array_equal(
                spline.c, fit_smoothing_spline(curve, fixed(lam)).spline.c)
            natural = CubicSpline(x, g, bc_type="natural")
            assert np.max(np.abs(spline(grid) - natural(grid))) <= bound
            assert np.max(np.abs(spline(x) - g)) <= 1e-12
            # m = 0 at both ends: exactly at the first knot, and at the last
            # to the rounding of the last piece's cubic
            second = spline.derivative(2)
            assert second(x[0]) == 0.0
            assert abs(second(x[-1])) <= 1e-14 * np.max(np.abs(2 * spline.c[1]))


def test_lambda_of_recovers_a_fixed_lambda():
    curve = next(iter(corpus_curves(3).values()))
    x, y = wrapped(curve)
    for lam in (1e-7, 1e-5, 1e-3):
        assert lambda_of(make_smoothing_spline(x, y, lam=lam), x, y) \
            == pytest.approx(lam, rel=1e-6)


def test_gcv_lambda_never_scores_worse_than_scipy():
    for curve in corpus_curves(100).values():
        x, y = wrapped(curve)
        lam_scipy = lambda_of(make_smoothing_spline(x, y), x, y)
        lam = fit_smoothing_spline(curve).lam
        assert dense_gcv(x, y, lam) <= dense_gcv(x, y, lam_scipy) * (1 + 1e-9)


def test_gcv_finds_the_dense_minimum_at_near_duplicate_phases():
    # phase gaps of 1.7e-8 and 2.6e-7, as separate knots, pushed the
    # penalty's largest eigenvalues to 4e18 and 4e16, and the data's mean
    # level leaked into the eigenbasis score: lambda landed 0.73 and 0.23 dex
    # off, at dense scores 8.4% and 1.2% above the minimum. With the close
    # phases merged, no lambda within a decade of the pick scores lower
    curves = corpus_curves(2000, seed=3)
    for source_id in (1001176, 1001578):
        curve = curves[source_id]
        x, y = wrapped(curve)
        lam = fit_smoothing_spline(curve).lam
        best = min(dense_gcv(x, y, lam * f) for f in np.logspace(-1, 1, 41))
        assert dense_gcv(x, y, lam) <= best * (1 + 1e-4)


def test_gcv_keeps_lambda_and_ends_in_the_fixed_solve():
    for curve in corpus_curves(20, seed=5).values():
        fit = fit_smoothing_spline(curve)
        assert isinstance(fit.lam, float) and fit.lam > 0
        refit = fit_smoothing_spline(curve, fixed(fit.lam))
        assert np.array_equal(refit.spline.x, fit.spline.x)
        assert np.array_equal(refit.spline.c, fit.spline.c)


def test_gcv_no_longer_collapses_to_a_line():
    # scipy's linear-scale search picked a near-linear fit here (0.106 mag)
    curve = corpus_curves(400, seed=1)[1000154]
    assert fit_smoothing_spline(curve).residual_rms <= 0.02


def test_gcv_fits_every_curve_of_a_corpus():
    pairs, _ = make_corpus(300, seed=3)
    built, fits = build_datasets(pairs, [Variant.SPLINE_NO_MEAN])
    assert failed(fits) == [] and len(built[Variant.SPLINE_NO_MEAN]) == 300


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 3])
def test_gcv_fits_every_curve_of_a_large_corpus(seed):
    # no fit fails, SingularFit included; seed 0 is acceptance test 06's
    # corpus, checked here without its minutes of training
    pairs, _ = make_corpus(2000, seed=seed)
    built, fits = build_datasets(pairs, [Variant.SPLINE_NO_MEAN])
    assert failed(fits) == [] and len(built[Variant.SPLINE_NO_MEAN]) == 2000


@pytest.mark.slow
@pytest.mark.parametrize("seed, merged", [(0, 17), (3, 14)])
def test_gcv_scores_merged_knots_as_the_dense_hat_matrix(seed, merged):
    # every curve of a large corpus with a phase gap below 1e-6, none of them
    # across the seam: the score of its merged knots against the dense score
    # of its observations, within 2.1e-5. With each observation its own
    # knot, curve 1001176 of seed 3 (gap 1.7e-8) scored +139% at 1e-3
    checked = 0
    for curve in corpus_curves(2000, seed).values():
        x = curve.phases
        if min(np.diff(x).min(), x[0] + 1.0 - x[-1]) >= 1e-6:
            continue
        checked += 1
        xw, yw = wrapped(curve)
        for lam in (1e-5, 3.2e-5, 1e-4, 1e-3):
            assert gcv_score(curve, lam) == pytest.approx(
                dense_gcv(xw, yw, lam), rel=1e-4)
    assert checked == merged


@pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
@pytest.mark.parametrize("seed", [0, 1])
def test_near_duplicate_phases_fit_or_are_recorded(gap, seed):
    # an ordinary curve plus a cluster of 20 phases `gap` apart: a fixed
    # lambda and GCV fit every gap, and none is recorded as failed. Below
    # 1e-6 the cluster merges into weighted knots; with each phase its own
    # knot, GCV's eigenbasis lost its digits at gaps <= 1e-7
    rng = np.random.default_rng(seed)
    period = 0.55
    phases = np.concatenate([rng.uniform(0.0, 1.0, 60),
                             0.4 + gap * np.arange(20)])
    times = np.sort((rng.integers(0, 900, len(phases)) + phases) * period)
    folded = np.mod(times / period, 1.0)
    mags = 16.0 + sawtooth_mag(folded, 0.8, 0.2) + rng.normal(0, 0.01, len(times))
    star = make_star(source_id=7, n_epochs=len(times))
    lc = LightCurve(7, times, mags)
    pc = fold_at_brightest(lc, period)
    for config in (fixed(1e-4), PreprocessConfig()):
        built, fits = build_datasets([(star, lc)], [Variant.FULL], config)
        assert failed(fits) == [] and len(built[Variant.FULL]) == 1
        assert fit_smoothing_spline(pc, config).residual_rms <= 0.05


def test_phases_that_collapse_or_meet_at_the_seam_merge_into_one_knot():
    # 1e-17 and 2e-17 are distinct phases, but both round to 1.0 plus one,
    # which left the wrapped knots out of order: they and 0 now fit as one
    # knot of weight 3. A phase 5e-7 below 1 lies 5e-7 from the phase at 0
    # across the seam, and the two merge into one knot at -2.5e-7
    for x, members, phase in (
            (np.array([0.0, 1e-17, 2e-17, 0.3, 0.6, 0.9]), [0, 1, 2], 1e-17),
            (np.array([0.0, 0.3, 0.6, 0.9, 1.0 - 5e-7]), [0, 4], -2.5e-7)):
        y = np.sin(2 * np.pi * x)
        pc = PhasedCurve(1, x, y, 0.5, float(np.mean(y)))
        xk, yk, w, _ = knots(pc)
        assert np.array_equal(w[3:-3], [len(members), 1.0, 1.0, 1.0])
        assert xk[3] == pytest.approx(phase, rel=1e-9)
        assert yk[3] == pytest.approx(np.mean(y[members]), rel=1e-12)
        np.testing.assert_array_equal(xk[3:-3][1:], [0.3, 0.6, 0.9])
        for config in (fixed(1e-4), PreprocessConfig()):
            assert np.array_equal(fit_smoothing_spline(pc, config).spline.x, xk)


def test_negative_fixed_lambda_rejected():
    with pytest.raises(ValueError):
        PreprocessConfig(lambda_strategy="fixed", lam=-1e-4)
