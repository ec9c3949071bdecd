"""Training, repeated stratified k-fold cross-validation, grid search and
the metric suite (R^2, RMSE, MAE, wRMSE, wMAE).

All randomness derives from a single root seed through named substreams
(model init, dropout, batch shuffling, fold assignment), so every component
is independently reproducible and a rerun with the same config is
bit-identical in single-threaded mode.
"""
from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .container import ArrayDataset, atomic_open
from .errors import (DivergedLoss, FehForgeError, InvalidConfig,
                     NonPositiveWeightSum, TooFewSamples, ZeroVariance)
from .nn.losses import weighted_mse
from .nn.optim import Adam
from .zoo import ModelSpec, build

METRIC_NAMES = ("r2", "rmse", "mae", "wrmse", "wmae")

# substream tags for seed derivation
_STREAM_FOLD = 1
_STREAM_INIT = 2
_STREAM_DROPOUT = 3
_STREAM_SHUFFLE = 4


def _substream(seed, stream, *indices):
    return np.random.SeedSequence([seed & 0xFFFFFFFF, stream, *indices])


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    learning_rate: float = 0.01
    max_epochs: int = 500
    patience: int = 20
    folds: int = 5
    repeats: int = 3
    bins: int = 10
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.folds < 2 or self.batch_size < 1 or self.bins < 2:
            raise InvalidConfig(
                f"invalid train config: folds {self.folds} (>= 2), batch_size "
                f"{self.batch_size} (>= 1), bins {self.bins} (>= 2)")


@dataclass(frozen=True)
class GridSpec:
    dropout_rates: tuple = (0.1, 0.2, 0.4, 0.6)
    learning_rates: tuple = (0.001, 0.01, 0.1)
    batch_sizes: tuple = (32, 64, 128, 256, 512)

    def cells(self):
        """Deterministic enumeration of the Cartesian product."""
        return list(product(self.dropout_rates, self.learning_rates,
                            self.batch_sizes))


@dataclass
class FoldReport:
    repeat: int
    fold: int
    train_metrics: dict
    val_metrics: dict
    epochs_run: int
    train_loss_curve: list
    val_loss_curve: list


@dataclass
class MetricsReport:
    model_kind: str
    variant: str
    fold_reports: list
    summary: dict          # metric -> phase -> (mean, std)


# --- metrics ----------------------------------------------------------------

def r2(y, yhat):
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    yhat = np.asarray(yhat, dtype=np.float64).reshape(-1)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ZeroVariance("all observed values are equal")
    ss_res = float(((y - yhat) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def metric_suite(y, yhat, weights=None):
    """rmse, mae, wrmse, wmae and r2 in one dict.

    wrmse = sqrt(sum(w e^2) / sum(w)); wmae = sum(w |e|) / sum(w); the
    unweighted forms are the same expressions with w = 1.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    yhat = np.asarray(yhat, dtype=np.float64).reshape(-1)
    if weights is None:
        weights = np.ones_like(y)
    else:
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    wsum = weights.sum()
    if wsum <= 0:
        raise NonPositiveWeightSum(f"weight sum {wsum}")
    err = y - yhat
    return {
        "r2": r2(y, yhat),
        "rmse": float(np.sqrt(np.mean(err ** 2))),
        "mae": float(np.mean(np.abs(err))),
        "wrmse": float(np.sqrt((weights * err ** 2).sum() / wsum)),
        "wmae": float((weights * np.abs(err)).sum() / wsum),
    }


# --- folds ------------------------------------------------------------------

def stratified_kfold(targets, k, bins=10, repeats=1, seed=0):
    """Quantile-binned stratified fold assignment for a continuous target.

    Returns an int array (repeats, N) of fold ids in [0, k). Within each
    bin, shuffled samples are dealt to folds round-robin through a global
    counter, so every fold's per-bin count is within one of the
    proportional share.
    """
    targets = np.asarray(targets, dtype=np.float64)
    n = len(targets)
    if n < k:
        raise TooFewSamples(f"{n} samples for {k} folds")
    edges = np.quantile(targets, np.linspace(0, 1, bins + 1)[1:-1])
    bin_ids = np.searchsorted(edges, targets, side="right")
    assignments = np.empty((repeats, n), dtype=np.int64)
    for rep in range(repeats):
        rng = np.random.default_rng(_substream(seed, _STREAM_FOLD, rep))
        counter = 0
        for b in np.unique(bin_ids):
            idx = np.flatnonzero(bin_ids == b)
            rng.shuffle(idx)
            for i in idx:
                assignments[rep, i] = counter % k
                counter += 1
    return assignments


# --- training ---------------------------------------------------------------

def _forward_batched(model, X, mask, batch=1024):
    out = np.empty(len(X))
    for start in range(0, len(X), batch):
        sl = slice(start, start + batch)
        out[sl] = model.forward(X[sl], mask=mask[sl], training=False).reshape(-1)
    return out


@dataclass
class TrainResult:
    model: object
    epochs_run: int
    train_loss_curve: list
    val_loss_curve: list
    best_val_loss: float
    val_predictions: np.ndarray   # of the returned (best-epoch) model


def train(spec: ModelSpec, train_data, val_data, config: TrainConfig,
          seed_index=0) -> TrainResult:
    """Mini-batch weighted-MSE training with Adam and early stopping.

    `train_data` / `val_data` are (X, mask, y, w) tuples. Early stopping
    monitors the validation weighted loss and restores the best-epoch
    parameters. It stops after patience + 1 epochs in a row without a new
    best, one later than Keras' EarlyStopping, which stops after `patience`.
    The best epoch's validation predictions are returned with the model;
    they are bit-identical to predicting with it again. Raises
    `DivergedLoss` on a non-finite loss.
    """
    Xtr, mtr, ytr, wtr = train_data
    Xval, mval, yval, wval = val_data
    L = Xtr.shape[1]
    init_seed = int(np.random.default_rng(
        _substream(config.seed, _STREAM_INIT, seed_index)).integers(2 ** 31))
    model = build(spec, (L, Xtr.shape[2]), seed=init_seed)
    model.seed_dropout(int(np.random.default_rng(
        _substream(config.seed, _STREAM_DROPOUT, seed_index)).integers(2 ** 31)))
    shuffle_rng = np.random.default_rng(
        _substream(config.seed, _STREAM_SHUFFLE, seed_index))
    opt = Adam(model, learning_rate=config.learning_rate)

    best_state = model.get_state()
    best_val = math.inf
    best_pred = None
    stale = 0
    train_curve, val_curve = [], []
    epochs_run = 0

    for epoch in range(config.max_epochs):
        epochs_run = epoch + 1
        order = shuffle_rng.permutation(len(Xtr))
        loss_num = 0.0
        loss_den = 0.0
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            model.zero_grads()
            pred = model.forward(Xtr[idx], mask=mtr[idx], training=True)
            loss, dpred = weighted_mse(pred, ytr[idx], wtr[idx])
            if not math.isfinite(loss):
                raise DivergedLoss(epoch, loss)
            model.backward(dpred.reshape(-1, 1))
            model.add_reg_grads()
            opt.step()
            bw = wtr[idx].sum()
            loss_num += loss * bw
            loss_den += bw
        train_curve.append(loss_num / loss_den)

        val_pred = _forward_batched(model, Xval, mval)
        val_loss, _ = weighted_mse(val_pred, yval, wval)
        if not math.isfinite(val_loss):
            raise DivergedLoss(epoch, val_loss)
        val_curve.append(val_loss)

        if val_loss < best_val:
            best_val = val_loss
            best_state = model.get_state()
            best_pred = val_pred
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break

    model.set_state(best_state)
    if best_pred is None:           # no epoch ran
        best_pred = _forward_batched(model, Xval, mval)
    return TrainResult(model=model, epochs_run=epochs_run,
                       train_loss_curve=train_curve, val_loss_curve=val_curve,
                       best_val_loss=best_val, val_predictions=best_pred)


def predict(model, dataset: ArrayDataset):
    """Deterministic inference-mode predictions, dex."""
    return _forward_batched(model, dataset.values, dataset.mask)


# --- cross-validation -------------------------------------------------------

def _dataset_arrays(dataset: ArrayDataset):
    return dataset.values, dataset.mask, dataset.targets


def _run_fold(spec, dataset, weights, config, rep, fold, assignments):
    X, mask, y = _dataset_arrays(dataset)
    val_sel = assignments[rep] == fold
    tr_sel = ~val_sel
    seed_index = rep * config.folds + fold
    result = train(spec,
                   (X[tr_sel], mask[tr_sel], y[tr_sel], weights[tr_sel]),
                   (X[val_sel], mask[val_sel], y[val_sel], weights[val_sel]),
                   config, seed_index=seed_index)
    train_pred = _forward_batched(result.model, X[tr_sel], mask[tr_sel])
    return FoldReport(
        repeat=rep, fold=fold,
        train_metrics=metric_suite(y[tr_sel], train_pred, weights[tr_sel]),
        val_metrics=metric_suite(y[val_sel], result.val_predictions,
                                 weights[val_sel]),
        epochs_run=result.epochs_run,
        train_loss_curve=result.train_loss_curve,
        val_loss_curve=result.val_loss_curve,
    ), result


def summarize_folds(fold_reports):
    summary = {}
    for metric in METRIC_NAMES:
        summary[metric] = {}
        for phase, attr in (("training", "train_metrics"),
                            ("validation", "val_metrics")):
            vals = np.array([getattr(fr, attr)[metric] for fr in fold_reports])
            summary[metric][phase] = (float(vals.mean()), float(vals.std()))
    return summary


def cross_validate(spec: ModelSpec, dataset: ArrayDataset, weights,
                   config: TrainConfig, variant=None,
                   return_models=False) -> MetricsReport:
    """k x repeats training runs with aggregated mean +/- std metrics."""
    weights = np.asarray(weights, dtype=np.float64)
    assignments = stratified_kfold(dataset.targets, config.folds,
                                   bins=config.bins, repeats=config.repeats,
                                   seed=config.seed)
    jobs = [(rep, fold) for rep in range(config.repeats)
            for fold in range(config.folds)]

    def run(job):
        rep, fold = job
        report, result = _run_fold(spec, dataset, weights, config, rep, fold,
                                   assignments)
        # a fold's model still holds the activations of its last forward
        # (recurrent layers keep them at inference too): free it unless asked
        return report, (result if return_models else None)

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            outcomes = list(pool.map(run, jobs))
    else:
        outcomes = [run(job) for job in jobs]

    fold_reports = [fr for fr, _ in outcomes]
    report = MetricsReport(
        model_kind=spec.kind,
        variant=variant or dataset.variant,
        fold_reports=fold_reports,
        summary=summarize_folds(fold_reports),
    )
    if return_models:
        return report, [res for _, res in outcomes]
    return report


# --- grid search ------------------------------------------------------------

@dataclass
class GridCell:
    dropout: float
    learning_rate: float
    batch_size: int
    report: object = None       # MetricsReport, None when the cell failed
    error: str = None

    @property
    def val_wrmse(self):
        return self.report.summary["wrmse"]["validation"][0]

    @property
    def val_mae(self):
        return self.report.summary["mae"]["validation"][0]


def grid_search(spec: ModelSpec, dataset: ArrayDataset, weights,
                grid: GridSpec, config: TrainConfig):
    """Evaluate every grid cell via cross-validation and rank by mean
    validation wRMSE (ties: validation MAE, then cell order)."""
    cells = []
    for i, (dropout, lr, batch) in enumerate(grid.cells()):
        cell_spec = spec.with_overrides(dropout=dropout)
        cell_config = replace(config, learning_rate=lr, batch_size=batch)
        cell = GridCell(dropout=dropout, learning_rate=lr, batch_size=batch)
        try:
            cell.report = cross_validate(cell_spec, dataset, weights, cell_config)
        except FehForgeError as exc:
            cell.error = f"{type(exc).__name__}: {exc}"
        cells.append((i, cell))
    ok = [(i, c) for i, c in cells if c.error is None]
    failed = [c for _, c in cells if c.error is not None]
    ranked = [c for _, c in sorted(ok, key=lambda t: (t[1].val_wrmse,
                                                      t[1].val_mae, t[0]))]
    return ranked, failed


# --- model x variant matrix -------------------------------------------------

def run_matrix(datasets, kinds, config: TrainConfig, weights_by_variant,
               spec_overrides=None):
    """Train every model kind on every dataset variant; returns tidy rows
    (variant, model, metric, phase, mean, std) mirroring the full report
    matrix, ordered by variant then model."""
    from .zoo import build_default

    rows = []
    reports = {}
    for variant in sorted(datasets):
        for kind in kinds:
            spec = build_default(kind)
            if spec_overrides:
                spec = spec.with_overrides(**spec_overrides.get(kind, {}))
            report = cross_validate(spec, datasets[variant],
                                    weights_by_variant[variant], config,
                                    variant=variant)
            reports[(variant, kind)] = report
            for metric in METRIC_NAMES:
                for phase in ("training", "validation"):
                    mean, std = report.summary[metric][phase]
                    rows.append({"variant": variant, "model": kind,
                                 "metric": metric, "phase": phase,
                                 "mean": mean, "std": std})
    return rows, reports


# --- report writers ---------------------------------------------------------

def _write_rows(path, header, rows):
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_metrics_csv(path, report: MetricsReport):
    rows = []
    for metric in METRIC_NAMES:
        for phase in ("training", "validation"):
            mean, std = report.summary[metric][phase]
            rows.append([report.model_kind, report.variant, metric, phase,
                         repr(mean), repr(std)])
    _write_rows(path, ["model", "variant", "metric", "phase", "mean", "std"], rows)


def write_matrix_csv(path, rows):
    _write_rows(path, ["variant", "model", "metric", "phase", "mean", "std"],
                [[r["variant"], r["model"], r["metric"], r["phase"],
                  repr(r["mean"]), repr(r["std"])] for r in rows])


def write_loss_curves_csv(path, fold_reports):
    rows = []
    for fr in fold_reports:
        for epoch, (tl, vl) in enumerate(zip(fr.train_loss_curve,
                                             fr.val_loss_curve)):
            rows.append([fr.repeat, fr.fold, epoch, repr(tl), repr(vl)])
    _write_rows(path, ["repeat", "fold", "epoch", "train_loss", "val_loss"], rows)


def write_predictions_csv(path, source_ids, predictions, truths=None):
    rows = []
    for i, sid in enumerate(source_ids):
        truth = ""
        if truths is not None and np.isfinite(truths[i]):
            truth = repr(float(truths[i]))
        rows.append([int(sid), repr(float(predictions[i])), truth])
    _write_rows(path, ["source_id", "predicted_feh", "true_feh"], rows)


def write_grid_csv(path, ranked, failed):
    rows = []
    for rank, cell in enumerate(ranked, start=1):
        rows.append([rank, cell.dropout, cell.learning_rate, cell.batch_size,
                     repr(cell.val_wrmse), repr(cell.val_mae), ""])
    for cell in failed:
        rows.append(["", cell.dropout, cell.learning_rate, cell.batch_size,
                     "", "", cell.error])
    _write_rows(path, ["rank", "dropout", "learning_rate", "batch_size",
                       "val_wrmse", "val_mae", "error"], rows)
