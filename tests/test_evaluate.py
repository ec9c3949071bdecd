import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fehforge import evaluate
from fehforge.container import ArrayDataset
from fehforge.errors import (DivergedLoss, FehForgeError, TooFewSamples,
                             ZeroVariance)
from fehforge.evaluate import (GridSpec, TrainConfig, cross_validate,
                               grid_search, metric_suite, predict, r2,
                               run_matrix, stratified_kfold, summarize_folds,
                               train)
from fehforge.preprocess import PreprocessConfig, Variant, build_datasets
from fehforge.synthetic import make_corpus
from fehforge.zoo import build_default

TINY_SPEC = build_default("gru", units=[6], dropout=[0.0])
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
    m = metric_suite(y, yhat, np.ones(30))
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
    assert result.val_loss_curve[-1] >= min(result.val_loss_curve)
    preds = predict(result.model, val)
    assert r2(val.targets, preds) > 0.5



def test_early_stopping_after_patience_plus_one_stale_epochs(monkeypatch):
    # with an optimizer that never steps no epoch after the first sets a new
    # best; training stops once `stale > patience`, after 1 + (patience + 1)
    # epochs, where Keras' EarlyStopping would stop after 1 + patience
    monkeypatch.setattr(evaluate.Adam, "step", lambda self: None)
    cfg = TrainConfig(batch_size=16, learning_rate=0.02, max_epochs=50,
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


def test_diverging_train_raises_without_numpy_warnings():
    # every loss is checked for finiteness, so the overflow on the way there
    # is no news: a diverging run warns nothing before `DivergedLoss`
    cfg = replace(TINY_CONFIG, learning_rate=1e38)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergedLoss):
            train(TINY_SPEC, as_tuple(toy_dataset(40)),
                  as_tuple(toy_dataset(16, seed=2)), cfg)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.fixture(scope="module")
def corpus_datasets():
    pairs, _ = make_corpus(24, seed=3)
    built, _ = build_datasets(pairs, [Variant.FULL, Variant.RAW_PADDED],
                              PreprocessConfig(lambda_strategy="fixed"))
    return built


def rows_of(ds, rows):
    return ArrayDataset(ds.source_ids[rows], ds.values[rows], ds.mask[rows],
                        ds.targets[rows], ds.variant, {})


@pytest.mark.parametrize("variant", [Variant.FULL, Variant.RAW_PADDED])
@pytest.mark.parametrize("kind", ["fcn", "gru"])
def test_best_epoch_validation_predictions_reused(corpus_datasets, kind, variant):
    # the CV and `train` score the predictions `train` returns for both
    # sides; they must be exactly what the restored best-epoch model
    # predicts, so the report is the one a second forward would give
    ds = corpus_datasets[variant]
    w = np.linspace(0.5, 1.5, len(ds))
    cfg = TrainConfig(batch_size=8, learning_rate=0.01, max_epochs=4,
                      patience=1, folds=2, repeats=1, bins=3, seed=0)
    val = stratified_kfold(ds.targets, cfg.folds, bins=cfg.bins, seed=cfg.seed)[0] == 0
    sides = [rows_of(ds, ~val), rows_of(ds, val)]
    result = train(build_default(kind), as_tuple(sides[0], w[~val]),
                   as_tuple(sides[1], w[val]), cfg)
    for side, pred in zip(sides, (result.train_predictions,
                                  result.val_predictions)):
        np.testing.assert_array_equal(pred, predict(result.model, side))


def test_cross_validate_scores_train_predictions(monkeypatch, lanes):
    # each fold's report is `metric_suite` of the predictions `train`
    # returned for that fold's two sides
    results, real_train = [], evaluate.train

    def recording_train(*args, **kwargs):
        results.append(real_train(*args, **kwargs))
        return results[-1]
    monkeypatch.setattr(evaluate, "train", recording_train)
    ds, w = toy_dataset(45), np.linspace(0.5, 1.5, 45)
    lanes(1)
    report = cross_validate(TINY_SPEC, ds, w, TINY_CONFIG)
    folds = stratified_kfold(ds.targets, 3, bins=4, seed=0)[0]
    for fr, res in zip(report.fold_reports, results):
        val = folds == fr.fold
        assert fr.train_metrics == metric_suite(ds.targets[~val],
                                                res.train_predictions, w[~val])
        assert fr.val_metrics == metric_suite(ds.targets[val],
                                              res.val_predictions, w[val])


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


def test_cross_validate_last_batch_of_one_row():
    # 3 folds of 45 stars leave 30 training rows, so at batch 29 each epoch
    # ends on a one-row batch, which the FCN's batch norm normalizes over
    # its steps
    spec = build_default("fcn", filters=[4, 4, 4], kernels=[3, 3, 3])
    report = cross_validate(spec, toy_dataset(45), np.ones(45),
                            replace(TINY_CONFIG, batch_size=29, max_epochs=2))
    assert len(report.fold_reports) == 3
    assert np.isfinite(report.summary["wrmse"]["validation"][0])


def test_cross_validate_rerun_identical_single_thread():
    ds = toy_dataset(45)
    a = cross_validate(TINY_SPEC, ds, np.ones(45), TINY_CONFIG)
    b = cross_validate(TINY_SPEC, ds, np.ones(45), TINY_CONFIG)
    for fa, fb in zip(a.fold_reports, b.fold_reports):
        assert fa.val_metrics == fb.val_metrics
        assert fa.train_loss_curve == fb.train_loss_curve


def test_cross_validate_threaded_matches_serial(lanes):
    # 6 jobs in 1, 2 and 3 lanes: fold reports (metrics of both sides and
    # loss curves) and the summary are bit-identical
    ds = toy_dataset(45)
    w = np.linspace(0.5, 1.5, 45)
    runs = {}
    for n in (1, 2, 3):
        lanes(n)
        runs[n] = cross_validate(TINY_SPEC, ds, w, replace(TINY_CONFIG, repeats=2))
    serial = runs[1]
    assert len(serial.fold_reports) == 6
    for n in (2, 3):
        assert runs[n].fold_reports == serial.fold_reports
        assert runs[n].summary == serial.summary


def _patch_train(monkeypatch, hook):
    """Call hook(config, seed_index) before each fold's `train`, in whichever
    process runs that fold."""
    real_train = evaluate.train

    def train(spec, train_data, val_data, config, seed_index=0):
        hook(config, seed_index)
        return real_train(spec, train_data, val_data, config, seed_index)

    monkeypatch.setattr(evaluate, "train", train)


def _patch_train_in_child(monkeypatch, hook,
                          wanted=lambda config, seed_index: seed_index == 1):
    """_patch_train(hook) in 2 lanes, with a handshake that puts the job
    `wanted` matches in the forked lane: the forked lane starts once the
    caller's lane holds a job, and that first job waits until the forked
    lane has started the wanted one, for at most 10 s each. So the forked
    lane takes every job from the second up to the wanted one."""
    caller = os.getpid()
    caller_took, child_took = evaluate._FORK.Event(), evaluate._FORK.Event()
    real_process = evaluate._FORK.Process

    def process(target, args):
        def after_caller(*args):
            assert caller_took.wait(10), "the caller's lane took no job"
            target(*args)
        return real_process(target=after_caller, args=args)

    def handshake(config, seed_index):
        if os.getpid() != caller and wanted(config, seed_index):
            child_took.set()
        elif os.getpid() == caller and not caller_took.is_set():
            caller_took.set()
            assert child_took.wait(10), "the forked lane took no wanted job"
        hook(config, seed_index)

    monkeypatch.setattr(evaluate._FORK, "Process", process)
    _patch_train(monkeypatch, handshake)


def test_error_in_child_lane_raised_once_in_caller(monkeypatch, tmp_path,
                                                   lanes):
    # 3 folds in 2 lanes: fold 1 runs in the forked child
    lanes(2)
    caller = os.getpid()

    def hook(config, seed_index):
        if seed_index == 1:
            assert os.getpid() != caller
            raise DivergedLoss(2, float("inf"))

    _patch_train_in_child(monkeypatch, hook)
    raised = tmp_path / "raised"
    try:
        cross_validate(TINY_SPEC, toy_dataset(45), np.ones(45), TINY_CONFIG)
    except FehForgeError as exc:
        with open(raised, "a") as fh:
            fh.write(f"{os.getpid()} {type(exc).__name__} {exc.exit_code} "
                     f"{exc.epoch} {exc.loss} {exc}\n")
    assert os.getpid() == caller
    assert raised.read_text().splitlines() == [
        f"{caller} DivergedLoss 4 2 inf non-finite loss inf at epoch 2"]


def test_first_failing_fold_in_job_order_is_raised(monkeypatch, lanes):
    # folds 1 and 2 fail, in whichever lanes take them: a serial run would
    # stop at fold 1, so that is the error raised
    lanes(2)
    def hook(config, seed_index):
        if seed_index in (1, 2):
            raise DivergedLoss(seed_index, float("inf"))

    _patch_train(monkeypatch, hook)
    with pytest.raises(DivergedLoss) as info:
        cross_validate(TINY_SPEC, toy_dataset(45), np.ones(45), TINY_CONFIG)
    assert info.value.epoch == 1


@pytest.mark.parametrize("fault", ["dies", "garbage"])
def test_broken_child_lane_names_its_fold(monkeypatch, lanes, fault):
    # 3 folds in 2 lanes: fold 1 runs in the forked child
    lanes(2)
    caller = os.getpid()
    if fault == "dies":
        def hook(config, seed_index):
            if seed_index == 1 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)

        why = f"killed by signal {int(signal.SIGKILL)}"
    else:
        # the child's pickle of its outcome is garbage; the caller only loads
        monkeypatch.setattr(ForkingPickler, "dumps",
                            classmethod(lambda cls, obj, protocol=None: b"garbage"))
        hook = lambda config, seed_index: None
        why = "sent garbage"
    _patch_train_in_child(monkeypatch, hook)
    with pytest.raises(FehForgeError) as info:
        cross_validate(TINY_SPEC, toy_dataset(45), np.ones(45), TINY_CONFIG)
    assert type(info.value) is FehForgeError and info.value.exit_code == 1
    assert why in str(info.value)
    assert "repeat 0 fold 1" in str(info.value)


@pytest.mark.parametrize("case", ["clean", "raises", "killed", "interrupted"])
def test_no_lane_outlives_a_cross_validation(monkeypatch, lanes, case):
    # 3 folds in 2 lanes: fold 1 runs in the forked child; an interrupt in
    # the caller's own lane leaves the child running until the caller's
    # cleanup kills and reaps it
    lanes(2)
    caller = os.getpid()

    def hook(config, seed_index):
        if case == "raises" and seed_index == 1:
            raise DivergedLoss(1, float("inf"))
        if case == "killed" and seed_index == 1 and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        if case == "interrupted" and os.getpid() == caller:
            raise KeyboardInterrupt

    _patch_train_in_child(monkeypatch, hook)
    raised = {"clean": None, "raises": DivergedLoss, "killed": FehForgeError,
              "interrupted": KeyboardInterrupt}[case]
    try:
        cross_validate(TINY_SPEC, toy_dataset(45), np.ones(45), TINY_CONFIG)
    except BaseException as exc:
        assert type(exc) is raised
    else:
        assert raised is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert multiprocessing.active_children() == []


def test_a_free_lane_takes_the_next_fold(monkeypatch, lanes):
    # 4 folds in 2 lanes: the lane holding fold 0 waits until folds 1-3 have
    # trained, so the other lane must take each next fold as it comes free
    # (dealt round-robin, fold 2 would wait behind fold 0)
    trained = [evaluate._FORK.Event() for _ in range(4)]
    real_train = evaluate.train

    def train(spec, train_data, val_data, config, seed_index=0):
        if seed_index == 0:
            assert all(e.wait(10) for e in trained[1:]), "folds 1-3 waited"
        result = real_train(spec, train_data, val_data, config, seed_index)
        trained[seed_index].set()
        return result

    monkeypatch.setattr(evaluate, "train", train)
    lanes(2)
    report = cross_validate(TINY_SPEC, toy_dataset(60), np.ones(60),
                            replace(TINY_CONFIG, folds=4))
    assert [fr.fold for fr in report.fold_reports] == [0, 1, 2, 3]


def test_one_set_of_lanes_per_command(monkeypatch, lanes):
    # a two-kind matrix and a two-cell grid each fork their lanes once
    started, real_process = [], evaluate._FORK.Process

    def process(*args, **kwargs):
        started.append(args or kwargs)
        return real_process(*args, **kwargs)

    monkeypatch.setattr(evaluate._FORK, "Process", process)
    lanes(2)
    ds, config = toy_dataset(30), replace(TINY_CONFIG, max_epochs=1)
    run_matrix({"full": ds}, ["fcn", "gru"], config, {"full": np.ones(30)})
    assert len(started) == 1
    grid = GridSpec(dropout_rates=(0.0,), learning_rates=(0.02, 0.05),
                    batch_sizes=(16,))
    ranked, failed = grid_search(TINY_SPEC, ds, np.ones(30), grid, config)
    assert len(ranked) == 2 and failed == [] and len(started) == 2


def test_failing_matrix_takes_no_job_after_its_first_failure(monkeypatch,
                                                            lanes):
    # one lane: the first cell's fold 1 fails, so it is the last of the
    # matrix's 6 folds to train
    calls = []

    def hook(config, seed_index):
        calls.append(seed_index)
        if len(calls) == 2:
            raise DivergedLoss(1, float("inf"))

    _patch_train(monkeypatch, hook)
    lanes(1)
    ds = toy_dataset(45)
    datasets = {"full": ds, "raw_padded": replace(ds, variant="raw_padded")}
    with pytest.raises(DivergedLoss):
        run_matrix(datasets, ["gru"], TINY_CONFIG,
                   {v: np.ones(45) for v in datasets})
    assert calls == [0, 1]


def test_matrix_and_failing_grid_identical_at_any_lane_count(monkeypatch,
                                                             lanes):
    # a 3-cell matrix, and a 3-cell grid whose second cell fails at fold 1,
    # give equal reports and errors in 1, 2 and 3 lanes
    def hook(config, seed_index):
        if config.learning_rate == 0.05 and seed_index == 1:
            raise DivergedLoss(seed_index, float("nan"))

    _patch_train(monkeypatch, hook)
    datasets = {v: replace(toy_dataset(45, seed=i), variant=v)
                for i, v in enumerate(("full", "raw_padded", "spline_no_mean"))}
    weights = {v: np.linspace(0.5, 1.5, 45) for v in datasets}
    grid = GridSpec(dropout_rates=(0.0,), learning_rates=(0.02, 0.05, 0.01),
                    batch_sizes=(16,))
    runs = {}
    for n in (1, 2, 3):
        lanes(n)
        runs[n] = (run_matrix(datasets, ["gru"], TINY_CONFIG, weights),
                   grid_search(TINY_SPEC, datasets["full"], weights["full"],
                               grid, TINY_CONFIG))
    matrix, (ranked, failed) = runs[1]
    assert len(matrix) == 3 and len(ranked) == 2
    assert [(c.learning_rate, c.error) for c in failed] == [
        (0.05, "DivergedLoss: non-finite loss nan at epoch 1")]
    assert runs[2] == runs[1] and runs[3] == runs[1]


def test_runs_serially_while_other_threads_run(monkeypatch, lanes):
    ds = toy_dataset(45)
    lanes(1)
    expected = cross_validate(TINY_SPEC, ds, np.ones(45), TINY_CONFIG)

    def no_fork():
        raise AssertionError("forked with another thread running")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(30,))
    waiter.start()
    lanes(2)
    try:
        report = cross_validate(TINY_SPEC, ds, np.ones(45), TINY_CONFIG)
    finally:
        release.set()
        waiter.join(timeout=30)
    assert not waiter.is_alive()
    assert report.fold_reports == expected.fold_reports


@pytest.mark.parametrize("env, jobs, expected", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 6, 4),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 6, 2),
    ({"OMP_NUM_THREADS": "1"}, 6, 4),
    ({}, 6, 1),                         # unpinned OpenBLAS takes every CPU
    ({"OMP_NUM_THREADS": "8"}, 6, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 3, 3),  # never more lanes than jobs
    # OpenBLAS reads 0, empty or a word as unset and falls through to
    # OMP_NUM_THREADS, then to every CPU
    ({"OPENBLAS_NUM_THREADS": "0"}, 6, 1),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 6, 4),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "2"}, 6, 2),
    ({"OPENBLAS_NUM_THREADS": "two", "OMP_NUM_THREADS": "0"}, 6, 1),
    ({"OPENBLAS_NUM_THREADS": " 2 "}, 6, 2),
], ids=["blas_1", "blas_2", "omp_1", "unpinned", "omp_8", "capped_by_jobs",
        "blas_0", "blas_0_omp_1", "blas_empty_omp_2", "blas_word_omp_0",
        "blas_2_spaced"])
def test_lane_count(monkeypatch, env, jobs, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert evaluate._lane_count(jobs) == expected


# Imports fehforge (after numpy with argv[1] "numpy_first") and scipy's
# LAPACK, then prints OPENBLAS_NUM_THREADS, the threads each loaded OpenBLAS
# reports where it has a get_num_threads symbol, and the lanes on 2 CPUs.
_BLAS_PROBE = """
import ctypes, json, os, sys
if sys.argv[1] == "numpy_first":
    import numpy
import fehforge
import scipy.linalg
threads = []
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in map(ctypes.CDLL, libs):
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = (), ctypes.c_int
                threads.append(get())
os.sched_getaffinity = lambda pid: {0, 1}
print(json.dumps({"var": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": threads,
                  "lanes": fehforge.evaluate._lane_count(5)}))
"""


@pytest.mark.parametrize("order, env, var, threads, expected", [
    ("import", {}, "1", 1, 2),
    ("import", {"OPENBLAS_NUM_THREADS": "2"}, "2", 2, 1),
    ("import", {"OMP_NUM_THREADS": "2"}, None, 2, 1),
    ("numpy_first", {}, None, None, 1),
], ids=["unset", "user_openblas_2", "user_omp_2", "numpy_first"])
def test_import_pins_one_blas_thread(order, env, var, threads, expected):
    # importing fehforge before numpy sets one OpenBLAS thread, unless the
    # user set a count; after numpy it sets nothing (OpenBLAS has read its
    # variables) and counts the unpinned BLAS as every CPU
    src = os.path.dirname(os.path.dirname(evaluate.__file__))
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    run = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE, order], capture_output=True,
        text=True, timeout=120, check=True, env=dict(base, **env, PYTHONPATH=(
            os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))))
    seen = json.loads(run.stdout)
    assert seen["var"] == var and seen["lanes"] == expected
    if threads is not None:
        assert seen["threads"] == [threads] * len(seen["threads"])


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


def test_grid_search_runs_each_distinct_cell_once(monkeypatch, lanes):
    # an FCN has no dropout, so its two dropout cells are one CV
    calls = []
    _patch_train(monkeypatch, lambda config, seed_index: calls.append(seed_index))
    spec = build_default("fcn", filters=[2, 2, 2], kernels=[3, 3, 3])
    grid = GridSpec(dropout_rates=(0.1, 0.4), learning_rates=(0.02,),
                    batch_sizes=(16,))
    lanes(1)
    ranked, failed = grid_search(spec, toy_dataset(30), np.ones(30), grid,
                                 TINY_CONFIG)
    assert len(calls) == TINY_CONFIG.folds * TINY_CONFIG.repeats
    assert failed == [] and [c.dropout for c in ranked] == [0.1, 0.4]
    assert ranked[0].report is ranked[1].report


def test_grid_search_records_cell_diverged_in_child_lane(monkeypatch, lanes):
    # the second cell's fold 1 diverges in the forked lane; the DivergedLoss
    # crosses to the caller intact, so the cell is recorded as failed
    lanes(2)
    caller = os.getpid()

    def diverges(config, seed_index):
        return config.learning_rate == 20.0 and seed_index == 1

    def hook(config, seed_index):
        if diverges(config, seed_index):
            assert os.getpid() != caller
            raise DivergedLoss(3, float("nan"))

    _patch_train_in_child(monkeypatch, hook, diverges)
    grid = GridSpec(dropout_rates=(0.0,), learning_rates=(0.02, 20.0),
                    batch_sizes=(16,))
    ranked, failed = grid_search(TINY_SPEC, toy_dataset(45), np.ones(45), grid,
                                 TINY_CONFIG)
    assert [c.learning_rate for c in ranked] == [0.02]
    assert [(c.learning_rate, c.error) for c in failed] == [
        (20.0, "DivergedLoss: non-finite loss nan at epoch 3")]


def test_grid_search_records_the_cells_of_a_dead_lane(monkeypatch, lanes):
    # the forked lane takes folds 1 and 2 of the first cell and folds 0 and
    # 1 of the second, and dies in the last: each cell records the first
    # fold it lost, and the grid returns
    lanes(2)
    caller = os.getpid()

    def dies(config, seed_index):
        return config.learning_rate == 20.0 and seed_index == 1

    def hook(config, seed_index):
        if dies(config, seed_index) and os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)

    _patch_train_in_child(monkeypatch, hook, dies)
    grid = GridSpec(dropout_rates=(0.0,), learning_rates=(0.02, 20.0),
                    batch_sizes=(16,))
    ranked, failed = grid_search(TINY_SPEC, toy_dataset(45), np.ones(45), grid,
                                 TINY_CONFIG)
    lost = (f"FehForgeError: cross-validation lane 1 was killed by signal "
            f"{int(signal.SIGKILL)} before it delivered cell")
    assert ranked == [] and [(c.learning_rate, c.error) for c in failed] == [
        (0.02, f"{lost} (0.0, 0.02, 16), repeat 0 fold 1"),
        (20.0, f"{lost} (0.0, 20.0, 16), repeat 0 fold 0")]


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

def test_run_matrix_rows_complete(tmp_path):
    ds = toy_dataset(45)
    datasets = {"full": ds, "spline_no_mean": replace(ds, variant="spline_no_mean")}
    weights = {k: np.ones(45) for k in datasets}
    reports = run_matrix(datasets, ["fcn"], TINY_CONFIG, weights)
    assert list(reports) == [("full", "fcn"), ("spline_no_mean", "fcn")]
    assert all(r.variant == v for (v, _), r in reports.items())
    evaluate.write_matrix_csv(tmp_path / "matrix.csv", reports)
    # 2 variants x 1 model x 5 metrics x 2 phases, under a header
    assert len((tmp_path / "matrix.csv").read_text().splitlines()) == 1 + 20


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(0, 100))
def test_kfold_every_fold_nonempty(k, seed):
    y = np.random.default_rng(seed).normal(size=6 * k)
    folds = stratified_kfold(y, k, bins=3, seed=seed)[0]
    assert set(folds) == set(range(k))
