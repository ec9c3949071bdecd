"""Acceptance gate: one test per release criterion, each printing a single
PASS line on success. Run with `pytest -v -s tests/test_acceptance.py`.

The end-to-end learnability check (criterion 6) trains a real model on
2,000 synthetic curves and takes several minutes; everything else is fast.
"""
import time

import numpy as np
import pytest

from fehforge.container import (from_feature_series, load_dataset,
                                restore_model, save_dataset, save_snapshot)
from fehforge.evaluate import (GridSpec, TrainConfig, cross_validate,
                               grid_search, metric_suite, predict, r2,
                               run_matrix, stratified_kfold)
from fehforge.nn.recurrent import GRU, LSTM
from fehforge.preprocess import (PhasedCurve, PreprocessConfig, Variant,
                                 build_dataset, build_feature_series,
                                 fit_smoothing_spline, phase_fold)
from fehforge.catalog import LightCurve, StarRecord
from fehforge.synthetic import make_corpus
from fehforge.weighting import compute_weights, fit_density
from fehforge.zoo import (build, build_conv_rnn, build_default, build_fcn,
                          build_inception_time, build_resnet, build_rnn,
                          layer_param_counts)
from tests.conftest import check_model_gradients


def _pass(n, text):
    print(f"\n[ACCEPTANCE {n:02d}] PASS - {text}")


def test_01_parameter_count_oracle():
    t0 = time.time()
    model = build(build_default("gru"), (100, 2), seed=0)
    counts = layer_param_counts(model)
    assert counts == [1440, 1824, 624, 9]
    assert model.param_count() == 3897
    assert time.time() - t0 < 1.0
    _pass(1, "GRU per-layer parameter counts exactly 1440/1824/624/9 (3897)")


def test_02_gradient_correctness_all_architectures():
    t0 = time.time()
    tiny = {
        "fcn": build_fcn(filters=(4, 6, 4), kernels=(8, 5, 3)),
        "resnet": build_resnet(filters=4, kernels=(8, 5, 3), blocks=2),
        "inception": build_inception_time(blocks=1, modules_per_block=2,
                                          bottleneck_filters=3,
                                          branch_filters=3,
                                          branch_kernels=(3, 5, 8)),
        "lstm": build_rnn("lstm", units=(6, 4), dropout=(0.0, 0.0)),
        "bilstm": build_rnn("bilstm", units=(5, 3), dropout=(0.0, 0.0)),
        "gru": build_rnn("gru", units=(6, 4), dropout=(0.0, 0.0)),
        "bigru": build_rnn("bigru", units=(5, 3), dropout=(0.0, 0.0)),
        "convlstm": build_conv_rnn("convlstm", filters=(4, 4, 4),
                                   kernels=(8, 5, 3), pool_size=2,
                                   units=(4, 3), dropout=(0.0, 0.0)),
        "convgru": build_conv_rnn("convgru", filters=(4, 4, 4),
                                  kernels=(8, 5, 3), pool_size=2,
                                  units=(4, 3), dropout=(0.0, 0.0)),
    }
    worst = 0.0
    for kind, spec in tiny.items():
        for seed in (0, 1, 2):
            rel = check_model_gradients(spec, (16, 2), seed=seed,
                                        per_param=2, h=1e-6, tol=1e-4)
            worst = max(worst, rel)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _pass(2, f"9 architectures x 3 seeds: worst gradient rel. error "
             f"{worst:.2e} < 1e-4 in {elapsed:.1f}s")


def test_03_metric_identities():
    rng = np.random.default_rng(0)
    y = rng.normal(size=50)
    yhat = y + rng.normal(size=50)
    m = metric_suite(y, yhat, np.ones(50))
    assert abs(m["wrmse"] - m["rmse"]) < 1e-12
    assert abs(m["wmae"] - m["mae"]) < 1e-12
    assert abs(r2(y, y) - 1.0) < 1e-12
    assert abs(r2(y, np.full(50, y.mean()))) < 1e-12
    assert abs(r2([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) - 0.5) < 1e-12
    _pass(3, "wRMSE=RMSE, wMAE=MAE under unit weights; R2 cases "
             "(perfect=1, mean=0, [1,2,3]/[1,2,4]=0.5) exact to 1e-12")


def test_04_preprocessing_invariants():
    rng = np.random.default_rng(1)
    period, epoch_max = 0.6173, 11.3
    times = np.sort(rng.uniform(0, 300, size=60))
    mags = 16.0 + 0.4 * np.sin(2 * np.pi * (times / period))
    lc = LightCurve(1, times, mags)
    pc = phase_fold(lc, period, epoch_max)
    assert np.all((pc.phases >= 0) & (pc.phases < 1))
    shifted = phase_fold(LightCurve(1, times + 9 * period, mags),
                         period, epoch_max)
    assert np.max(np.abs(pc.phases - shifted.phases)) < 1e-9

    x = np.sort(rng.uniform(0.02, 0.98, size=30))
    y = np.cos(2 * np.pi * x)
    curve = PhasedCurve(1, x, y, period, float(y.mean()))
    interp = fit_smoothing_spline(curve, PreprocessConfig(
        lambda_strategy="fixed", lam=0.0))
    assert interp.residual_rms < 1e-9
    line = fit_smoothing_spline(curve, PreprocessConfig(
        lambda_strategy="fixed", lam=1e9))
    grid = np.linspace(0.1, 0.9, 40)
    assert np.max(np.abs(np.diff(line.spline(grid), 2))) < 1e-6

    star = StarRecord(0, 1, period, 0.8, 60, -1.3, 0.2)
    fs = build_feature_series(star, pc, Variant.FULL)
    assert abs(fs.values[:, 0].mean()) < 1e-9

    # padded timesteps must not leak into recurrent outputs
    for cls in (GRU, LSTM):
        layer = cls(2, 5, np.random.default_rng(0), return_sequences=False)
        seq = rng.normal(size=(1, 10, 2))
        short = layer.forward(seq[:, :7], mask=np.ones((1, 7), bool))
        padded = seq.copy()
        padded[0, 7:] = 1e6
        mask = np.ones((1, 10), bool)
        mask[0, 7:] = False
        assert np.max(np.abs(layer.forward(padded, mask=mask) - short)) < 1e-9
    _pass(4, "folding periodicity, phase range, lambda=0 interpolation, "
             "lambda->inf line limit, mean-centering, mask invariance")


def test_05_weighting_properties():
    rng = np.random.default_rng(2)
    sample = np.concatenate([rng.normal(-1.5, 0.15, 800),
                             rng.uniform(-3.0, 0.0, 200)])
    model = fit_density(sample)
    w = compute_weights(model, sample, cap=None)
    assert abs(w.mean() - 1.0) < 1e-9
    dens = model.density(sample)
    order = np.argsort(dens)
    assert np.all(np.diff(w[order]) <= 1e-12)        # order preserving
    scaled = 2.5 * sample - 0.7
    w2 = compute_weights(fit_density(scaled), scaled, cap=None)
    assert np.max(np.abs(w - w2) / w) < 1e-9          # scale invariant
    w_peak, w_tail_lo, w_tail_hi = compute_weights(
        model, np.array([-1.5, -2.9, -0.1]))
    assert w_peak < min(w_tail_lo, w_tail_hi)
    _pass(5, "inverse-density weights: mean 1, order preserving, scale "
             "invariant, -1.5 dex peak weighted below tails")


@pytest.mark.slow
def test_06_synthetic_end_to_end_learnability():
    t0 = time.time()
    noise = 0.1
    pairs, _ = make_corpus(2000, seed=0, target_noise=noise)
    series, manifest = build_dataset(pairs, Variant.FULL)
    assert manifest.n_built == 2000
    ds = from_feature_series(series, Variant.FULL)
    weights = compute_weights(fit_density(ds.targets), ds.targets)
    # published training scheme with the epoch budget reduced to fit the
    # 15-minute allowance; early stopping still governs
    config = TrainConfig(batch_size=256, learning_rate=0.01, max_epochs=50,
                         patience=15, folds=5, repeats=1, bins=10, seed=0)
    report = cross_validate(build_default("gru"), ds, weights, config)
    mean_r2 = report.summary["r2"]["validation"][0]
    mean_rmse = report.summary["rmse"]["validation"][0]
    elapsed = time.time() - t0
    assert mean_r2 >= 0.85
    assert mean_rmse <= 1.5 * noise
    assert elapsed <= 900.0
    _pass(6, f"GRU on 2000 synthetic curves (FULL, 5-fold): val R2 "
             f"{mean_r2:.4f} >= 0.85, RMSE {mean_rmse:.4f} <= {1.5 * noise} "
             f"in {elapsed / 60:.1f} min")


@pytest.mark.skip(reason="optional data-dependent check: supply the real "
                         "catalog and photometry to enable "
                         "(tolerances: R2 +/-0.02, MAE +/-0.01 dex)")
def test_06b_real_catalog_reproduction():
    pass


def test_07_cv_machinery():
    rng = np.random.default_rng(3)
    y = rng.normal(size=120)
    folds = stratified_kfold(y, 5, bins=10, repeats=2, seed=0)
    edges = np.quantile(y, np.linspace(0, 1, 11)[1:-1])
    bins = np.searchsorted(edges, y, side="right")
    for rep in range(2):
        for b in np.unique(bins):
            counts = np.bincount(folds[rep][bins == b], minlength=5)
            assert counts.max() - counts.min() <= 1

    X = rng.normal(size=(45, 10, 2))
    targets = X[:, :, 0].mean(axis=1)
    ds = from_feature_series([], Variant.FULL)
    ds.source_ids = np.arange(45, dtype=np.int64)
    ds.values, ds.mask, ds.targets = X, np.ones((45, 10), bool), targets
    spec = build_rnn("gru", units=(4,), dropout=(0.0,))
    config = TrainConfig(batch_size=16, learning_rate=0.02, max_epochs=4,
                         patience=2, folds=3, repeats=2, bins=3, seed=0,
                         threads=1)
    a = cross_validate(spec, ds, np.ones(45), config)
    assert len(a.fold_reports) == 3 * 2          # k x repeats
    b = cross_validate(spec, ds, np.ones(45), config)
    for fa, fb in zip(a.fold_reports, b.fold_reports):
        assert fa.train_loss_curve == fb.train_loss_curve
        assert fa.val_metrics == fb.val_metrics   # bit-identical rerun
    _pass(7, "per-bin fold balance within 1, k x repeats fold reports, "
             "bit-identical rerun at threads=1")


def test_08_grid_search_correctness():
    assert len(GridSpec().cells()) == 60          # 4 dropout x 3 lr x 5 batch
    assert GridSpec().dropout_rates == (0.1, 0.2, 0.4, 0.6)
    assert GridSpec().learning_rates == (0.001, 0.01, 0.1)
    assert GridSpec().batch_sizes == (32, 64, 128, 256, 512)

    rng = np.random.default_rng(4)
    ds = from_feature_series([], Variant.FULL)
    ds.source_ids = np.arange(45, dtype=np.int64)
    ds.values = rng.normal(size=(45, 10, 2))
    ds.mask = np.ones((45, 10), bool)
    ds.targets = ds.values[:, :, 0].mean(axis=1)
    spec = build_rnn("gru", units=(4,), dropout=(0.0,))
    config = TrainConfig(batch_size=16, learning_rate=0.02, max_epochs=4,
                         patience=2, folds=3, repeats=1, bins=3, seed=0)

    one = GridSpec(dropout_rates=(0.0,), learning_rates=(0.02,),
                   batch_sizes=(16,))
    ranked, failed = grid_search(spec, ds, np.ones(45), one, config)
    direct = cross_validate(spec.with_overrides(dropout=0.0), ds,
                            np.ones(45), config)
    assert failed == [] and ranked[0].report.summary == direct.summary

    # injected winner: a sane learning rate must outrank an absurd one
    two = GridSpec(dropout_rates=(0.0,), learning_rates=(0.02, 50.0),
                   batch_sizes=(16,))
    ranked, failed = grid_search(spec, ds, np.ones(45), two, config)
    assert ranked[0].learning_rate == 0.02
    if len(ranked) == 2:
        assert ranked[0].val_wrmse <= ranked[1].val_wrmse
    _pass(8, "one-cell grid == plain CV, 60-cell enumeration on the "
             "published axes, injected winner ranked first")


def test_09_container_roundtrips(tmp_path):
    pairs, _ = make_corpus(6, seed=5)
    series, _ = build_dataset(pairs, Variant.FULL)
    ds = from_feature_series(series, Variant.FULL)
    p1, p2 = tmp_path / "d1.zip", tmp_path / "d2.zip"
    save_dataset(p1, ds)
    save_dataset(p2, ds)
    assert p1.read_bytes() == p2.read_bytes()     # byte-identical rerun
    loaded = load_dataset(p1)
    np.testing.assert_array_equal(loaded.values, ds.values)
    np.testing.assert_array_equal(loaded.targets, ds.targets)

    model = build(build_default("gru"), (100, 2), seed=7)
    before = predict(model, ds)
    snap = tmp_path / "snap.zip"
    save_snapshot(snap, model)
    after = predict(restore_model(snap), ds)
    np.testing.assert_array_equal(before, after)  # bit-exact predictions
    _pass(9, "dataset container byte-identical on rerun; snapshot "
             "save->load->predict bit-exact")


def test_10_matrix_driver_complete():
    pairs, _ = make_corpus(60, seed=6)
    kinds = list(__import__("fehforge.zoo", fromlist=["KINDS"]).KINDS)
    datasets, weights = {}, {}
    for variant in (Variant.RAW_PADDED, Variant.SPLINE_NO_MEAN, Variant.FULL):
        series, _ = build_dataset(pairs, variant)
        ds = from_feature_series(series, variant)
        datasets[variant.value] = ds
        weights[variant.value] = compute_weights(fit_density(ds.targets),
                                                 ds.targets)
    config = TrainConfig(batch_size=32, learning_rate=0.01, max_epochs=2,
                         patience=1, folds=2, repeats=1, bins=3, seed=0)
    rows, reports = run_matrix(datasets, kinds, config, weights)
    # 3 variants x 9 models x 5 metrics x 2 phases, no missing cells
    assert len(rows) == 3 * 9 * 5 * 2
    assert set(reports) == {(v, k) for v in datasets for k in kinds}
    assert all(np.isfinite(r["mean"]) for r in rows)
    _pass(10, "9-model x 3-variant matrix complete: "
              f"{len(rows)} report rows, no missing cells")
