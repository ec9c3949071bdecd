import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fehforge.container import ArrayDataset, from_feature_series
from fehforge.errors import TooFewSamples, ZeroVariance
from fehforge.evaluate import (GridSpec, TrainConfig, cross_validate,
                               grid_search, metric_suite, predict, r2,
                               run_matrix, stratified_kfold, summarize_folds,
                               train)
from fehforge.preprocess import PreprocessConfig, Variant, build_datasets
from fehforge.synthetic import make_corpus
from fehforge.zoo import build_default, build_rnn

TINY_SPEC = build_rnn("gru", units=(6,), dropout=(0.0,))
TINY_CONFIG = TrainConfig(batch_size=16, learning_rate=0.02, max_epochs=8,
                          patience=4, folds=3, repeats=1, bins=4, seed=0)


def toy_dataset(n=60, L=12, seed=0):
    """Targets linearly readable from the sequence mean."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, L, 2))
    y = X[:, :, 0].mean(axis=1) + 0.05 * rng.normal(size=n)
    mask = np.ones((n, L), dtype=bool)
    return ArrayDataset(np.arange(n, dtype=np.int64), X, mask, y, "full", {})


def as_tuple(ds, w=None):
    if w is None:
        w = np.ones(len(ds))
    return ds.values, ds.mask, ds.targets, w


# --- metrics -----------------------------------------------------------------

def test_r2_known_value():
    assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5, abs=1e-12)


def test_r2_perfect_and_mean_predictor(rng):
    y = rng.normal(size=20)
    assert r2(y, y) == 1.0
    assert r2(y, np.full(20, y.mean())) == pytest.approx(0.0, abs=1e-12)


def test_r2_zero_variance():
    with pytest.raises(ZeroVariance):
        r2([2.0, 2.0], [1.0, 3.0])


def test_metric_suite_identities(rng):
    y = rng.normal(size=30)
    yhat = y + rng.normal(size=30)
    m = metric_suite(y, yhat)
    err = y - yhat
    assert m["rmse"] == pytest.approx(np.sqrt(np.mean(err ** 2)), abs=1e-12)
    assert m["mae"] == pytest.approx(np.mean(np.abs(err)), abs=1e-12)
    # with unit weights the weighted forms equal the plain ones
    assert m["wrmse"] == pytest.approx(m["rmse"], abs=1e-12)
    assert m["wmae"] == pytest.approx(m["mae"], abs=1e-12)
    assert m["mae"] <= m["rmse"] + 1e-12


def test_metric_suite_weighted(rng):
    y, yhat = rng.normal(size=10), rng.normal(size=10)
    w = rng.uniform(0.1, 5.0, size=10)
    m = metric_suite(y, yhat, w)
    err = y - yhat
    assert m["wrmse"] == pytest.approx(
        np.sqrt((w * err ** 2).sum() / w.sum()), abs=1e-12)
    assert m["wmae"] == pytest.approx((w * np.abs(err)).sum() / w.sum(),
                                      abs=1e-12)


# --- folds -------------------------------------------------------------------

def test_stratified_kfold_shapes_and_balance(rng):
    y = rng.normal(size=100)
    folds = stratified_kfold(y, 5, bins=10, repeats=3, seed=1)
    assert folds.shape == (3, 100)
    for rep in range(3):
        counts = np.bincount(folds[rep], minlength=5)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 100


def test_stratified_kfold_per_bin_balance(rng):
    y = rng.normal(size=200)
    folds = stratified_kfold(y, 4, bins=8, repeats=1, seed=0)[0]
    edges = np.quantile(y, np.linspace(0, 1, 9)[1:-1])
    bins = np.searchsorted(edges, y, side="right")
    for b in np.unique(bins):
        sel = bins == b
        counts = np.bincount(folds[sel], minlength=4)
        assert counts.max() - counts.min() <= 1


def test_stratified_kfold_deterministic_and_repeat_varies(rng):
    y = rng.normal(size=60)
    a = stratified_kfold(y, 5, repeats=2, seed=3)
    b = stratified_kfold(y, 5, repeats=2, seed=3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a[0], a[1])     # repeats reshuffle


def test_stratified_kfold_too_few():
    with pytest.raises(TooFewSamples):
        stratified_kfold(np.arange(3.0), 5)


# --- training ----------------------------------------------------------------

def test_train_learns_and_early_stops():
    ds = toy_dataset(80)
    val = toy_dataset(30, seed=1)
    cfg = TrainConfig(batch_size=16, learning_rate=0.02, max_epochs=60,
                      patience=5, folds=3, repeats=1, bins=4, seed=0)
    result = train(TINY_SPEC, as_tuple(ds), as_tuple(val), cfg)
    assert result.epochs_run <= 60
    assert len(result.train_loss_curve) == result.epochs_run
    assert result.val_loss_curve[-1] >= result.best_val_loss
    preds = predict(result.model, val)
    assert r2(val.targets, preds) > 0.5



def test_early_stopping_after_patience_plus_one_stale_epochs():
    # with a zero learning rate no epoch after the first sets a new best;
    # training stops once `stale > patience`, after 1 + (patience + 1)
    # epochs, where Keras' EarlyStopping would stop after 1 + patience
    cfg = TrainConfig(batch_size=16, learning_rate=0.0, max_epochs=50,
                      patience=3, folds=3, repeats=1, bins=4, seed=0)
    result = train(TINY_SPEC, as_tuple(toy_dataset(40)),
                   as_tuple(toy_dataset(16, seed=1)), cfg)
    assert result.epochs_run == 1 + cfg.patience + 1
    assert len(set(result.val_loss_curve)) == 1

def test_train_bit_identical_rerun():
    ds, val = toy_dataset(40), toy_dataset(16, seed=2)
    runs = [train(TINY_SPEC, as_tuple(ds), as_tuple(val), TINY_CONFIG)
            for _ in range(2)]
    assert runs[0].train_loss_curve == runs[1].train_loss_curve
    np.testing.assert_array_equal(predict(runs[0].model, val),
                                  predict(runs[1].model, val))


def test_train_seed_index_changes_outcome():
    ds, val = toy_dataset(40), toy_dataset(16, seed=2)
    a = train(TINY_SPEC, as_tuple(ds), as_tuple(val), TINY_CONFIG, seed_index=0)
    b = train(TINY_SPEC, as_tuple(ds), as_tuple(val), TINY_CONFIG, seed_index=1)
    assert a.train_loss_curve != b.train_loss_curve


@pytest.fixture(scope="module")
def corpus_datasets():
    pairs, _ = make_corpus(24, seed=3)
    built = build_datasets(pairs, [Variant.FULL, Variant.RAW_PADDED],
                           PreprocessConfig(lambda_strategy="fixed"))
    return {v: from_feature_series(series, v) for v, (series, _) in built.items()}


@pytest.mark.parametrize("variant", [Variant.FULL, Variant.RAW_PADDED])
@pytest.mark.parametrize("kind", ["fcn", "gru"])
def test_best_epoch_validation_predictions_reused(corpus_datasets, kind, variant):
    # the CV scores the validation predictions `train` made at the best
    # epoch; they must be exactly what the restored model predicts, so the
    # report is the one a second validation forward would give
    ds = corpus_datasets[variant]
    w = np.linspace(0.5, 1.5, len(ds))
    cfg = TrainConfig(batch_size=8, learning_rate=0.01, max_epochs=4,
                      patience=1, folds=2, repeats=1, bins=3, seed=0)
    report, results = cross_validate(build_default(kind), ds, w, cfg,
                                     return_models=True)
    folds = stratified_kfold(ds.targets, cfg.folds, bins=cfg.bins, seed=cfg.seed)[0]
    for fr, res in zip(report.fold_reports, results):
        val = folds == fr.fold
        again = predict(res.model, ArrayDataset(ds.source_ids[val], ds.values[val],
                                                ds.mask[val], ds.targets[val],
                                                ds.variant, {}))
        np.testing.assert_array_equal(res.val_predictions, again)
        assert fr.val_metrics == metric_suite(ds.targets[val], again, w[val])


# --- cross-validation ----------------------------------------------------------

def test_cross_validate_report_shape():
    ds = toy_dataset(60)
    report = cross_validate(TINY_SPEC, ds, np.ones(60), TINY_CONFIG)
    assert len(report.fold_reports) == 3      # folds * repeats
    assert report.model_kind == "gru"
    assert report.variant == "full"
    for metric in ("r2", "rmse", "mae", "wrmse", "wmae"):
        for phase in ("training", "validation"):
            mean, std = report.summary[metric][phase]
            assert np.isfinite(mean) and std >= 0.0


def test_cross_validate_rerun_identical_single_thread():
    ds = toy_dataset(45)
    a = cross_validate(TINY_SPEC, ds, np.ones(45), TINY_CONFIG)
    b = cross_validate(TINY_SPEC, ds, np.ones(45), TINY_CONFIG)
    for fa, fb in zip(a.fold_reports, b.fold_reports):
        assert fa.val_metrics == fb.val_metrics
        assert fa.train_loss_curve == fb.train_loss_curve


def test_cross_validate_threaded_matches_serial():
    ds = toy_dataset(45)
    import dataclasses
    serial = cross_validate(TINY_SPEC, ds, np.ones(45), TINY_CONFIG)
    threaded = cross_validate(
        TINY_SPEC, ds, np.ones(45),
        dataclasses.replace(TINY_CONFIG, threads=3))
    for fa, fb in zip(serial.fold_reports, threaded.fold_reports):
        assert (fa.repeat, fa.fold) == (fb.repeat, fb.fold)
        assert fa.val_metrics == fb.val_metrics


def test_summarize_folds_mean_std():
    ds = toy_dataset(45)
    report = cross_validate(TINY_SPEC, ds, np.ones(45), TINY_CONFIG)
    vals = np.array([fr.val_metrics["rmse"] for fr in report.fold_reports])
    mean, std = report.summary["rmse"]["validation"]
    assert mean == pytest.approx(vals.mean())
    assert std == pytest.approx(vals.std())


# --- grid search ---------------------------------------------------------------

def test_grid_cells_full_enumeration():
    grid = GridSpec()
    cells = grid.cells()
    assert len(cells) == 4 * 3 * 5 == 60
    assert len(set(cells)) == 60
    assert cells[0] == (0.1, 0.001, 32)


def test_grid_search_single_cell_equals_plain_cv():
    ds = toy_dataset(45)
    grid = GridSpec(dropout_rates=(0.0,), learning_rates=(0.02,),
                    batch_sizes=(16,))
    ranked, failed = grid_search(TINY_SPEC, ds, np.ones(45), grid, TINY_CONFIG)
    assert failed == [] and len(ranked) == 1
    direct = cross_validate(TINY_SPEC.with_overrides(dropout=0.0), ds,
                            np.ones(45), TINY_CONFIG)
    assert ranked[0].report.summary == direct.summary


def test_grid_search_ranking_order():
    ds = toy_dataset(45)
    # a second cell with an absurd learning rate should rank below (or fail)
    grid = GridSpec(dropout_rates=(0.0,), learning_rates=(0.02, 20.0),
                    batch_sizes=(16,))
    ranked, failed = grid_search(TINY_SPEC, ds, np.ones(45), grid, TINY_CONFIG)
    assert ranked[0].learning_rate == 0.02
    if len(ranked) == 2:
        assert ranked[0].val_wrmse <= ranked[1].val_wrmse
    else:
        assert len(failed) == 1 and failed[0].learning_rate == 20.0


# --- matrix --------------------------------------------------------------------

def test_run_matrix_rows_complete():
    ds = toy_dataset(45)
    datasets = {"full": ds, "spline_no_mean": ds}
    weights = {k: np.ones(45) for k in datasets}
    rows, reports = run_matrix(datasets, ["fcn"], TINY_CONFIG, weights,
                               spec_overrides=None)
    # 2 variants x 1 model x 5 metrics x 2 phases
    assert len(rows) == 20
    assert set(reports) == {("full", "fcn"), ("spline_no_mean", "fcn")}


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(0, 100))
def test_kfold_every_fold_nonempty(k, seed):
    y = np.random.default_rng(seed).normal(size=6 * k)
    folds = stratified_kfold(y, k, bins=3, seed=seed)[0]
    assert set(folds) == set(range(k))
