"""Training, repeated stratified k-fold cross-validation, grid search, the
metric suite (R^2, RMSE, MAE, wRMSE, wMAE) and the report files.

`train` returns its best-epoch model's predictions on both sides, and
`score_folds` scores them, for each fold of a cross-validation as for the
CLI's `train`; one row builder writes every summary table.

All randomness derives from a single root seed through named substreams
(model init, dropout, batch shuffling, fold assignment), so every component
is independently reproducible, and a rerun with the same config is
bit-identical whatever the number of cross-validation lanes.
"""
from __future__ import annotations

import math
import multiprocessing
import os
import signal
import threading
import traceback
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from . import _blas_threads
from .container import ArrayDataset, write_csv
from .errors import (DivergedLoss, FehForgeError, InvalidConfig,
                     NonPositiveWeightSum, TooFewSamples, ZeroVariance)
from .nn.losses import weighted_mse
from .nn.optim import Adam
from .zoo import ModelSpec, build, build_default

METRIC_NAMES = ("r2", "rmse", "mae", "wrmse", "wmae")

# substream tags for seed derivation
_STREAM_FOLD = 1
_STREAM_INIT = 2
_STREAM_DROPOUT = 3
_STREAM_SHUFFLE = 4

# the fold lanes' processes and pipes; None where there is no os.fork
_FORK = multiprocessing.get_context("fork") if hasattr(os, "fork") else None


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

    def __post_init__(self):
        if (self.folds < 2 or self.batch_size < 1 or self.bins < 2
                or self.max_epochs < 1 or self.repeats < 1 or self.patience < 0
                or not 0 < self.learning_rate < math.inf):
            raise InvalidConfig(
                f"invalid train config: folds {self.folds} (>= 2), batch_size "
                f"{self.batch_size} (>= 1), bins {self.bins} (>= 2), max_epochs "
                f"{self.max_epochs} (>= 1), repeats {self.repeats} (>= 1), "
                f"patience {self.patience} (>= 0), learning_rate "
                f"{self.learning_rate} (finite, > 0)")


@dataclass(frozen=True)
class GridSpec:
    dropout_rates: tuple = (0.1, 0.2, 0.4, 0.6)
    learning_rates: tuple = (0.001, 0.01, 0.1)
    batch_sizes: tuple = (32, 64, 128, 256, 512)

    def __post_init__(self):
        if not (self.cells() and all(0 <= r < 1 for r in self.dropout_rates)
                and all(0 < lr < math.inf for lr in self.learning_rates)
                and min(self.batch_sizes) >= 1):
            raise InvalidConfig(f"invalid grid {self}: lists non-empty, dropout "
                                f"in [0, 1), learning rates finite and > 0, "
                                f"batch sizes >= 1")

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


def metric_suite(y, yhat, weights):
    """rmse, mae, wrmse, wmae and r2 in one dict.

    wrmse = sqrt(sum(w e^2) / sum(w)); wmae = sum(w |e|) / sum(w); the
    unweighted forms are the same expressions with w = 1.
    """
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    yhat = np.asarray(yhat, dtype=np.float64).reshape(-1)
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
    members = [np.flatnonzero(bin_ids == b) for b in np.unique(bin_ids)]
    assignments = np.empty((repeats, n), dtype=np.int64)
    for rep in range(repeats):
        rng = np.random.default_rng(_substream(seed, _STREAM_FOLD, rep))
        order = np.concatenate([rng.permutation(idx) for idx in members])
        assignments[rep, order] = np.arange(n) % k
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
    # of the returned (best-epoch) model, bit-identical to `predict` with it
    train_predictions: np.ndarray
    val_predictions: np.ndarray


@np.errstate(over="ignore", invalid="ignore")
def train(spec: ModelSpec, train_data, val_data, config: TrainConfig,
          seed_index=0) -> TrainResult:
    """Mini-batch weighted-MSE training with Adam and early stopping.

    `train_data` / `val_data` are (X, mask, y, w) tuples. Early stopping
    monitors the validation weighted loss and restores the best-epoch
    parameters. It stops after patience + 1 epochs in a row without a new
    best, one later than Keras' EarlyStopping, which stops after `patience`.
    The best epoch's predictions on both sides are returned with the model;
    they are bit-identical to predicting with it again. The model computes
    in float32, `zoo.build`'s default; the loss, the loss curves and the
    predictions returned are float64, and `Model.backward` casts the loss
    gradient to the model's dtype. Raises `DivergedLoss` on a non-finite
    loss, with numpy's overflow warnings on the way there silenced.
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

    # max_epochs >= 1, and a first epoch that does not diverge is the best
    # so far, so the loop sets best_state and best_pred
    best_val = math.inf
    stale = 0
    train_curve, val_curve = [], []

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
        train_curve.append(float(loss_num / loss_den))

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
    return TrainResult(model=model, epochs_run=epochs_run,
                       train_loss_curve=train_curve, val_loss_curve=val_curve,
                       train_predictions=_forward_batched(model, Xtr, mtr),
                       val_predictions=best_pred)


def predict(model, dataset: ArrayDataset):
    """Deterministic inference-mode predictions, dex."""
    return _forward_batched(model, dataset.values, dataset.mask)


# --- cross-validation -------------------------------------------------------

def _lane_count(jobs):
    """The CPUs this process may run on over OpenBLAS's threads per call
    (`_blas_threads`; 0 is every CPU), from 1 to `jobs`: lanes x BLAS
    threads beyond the cores spin against each other."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(max(cpus // (_blas_threads() or cpus), 1), jobs)


def _run_lane(fit, jobs, lane, taken, taker):
    """Every lane's loop: take the next job index from the shared counter
    `taken`, mark the job `lane`'s in the shared `taker`, and run it, until
    none is left. Returns {index: fit(job), or the exception it raised}; a
    job that raised ends the counter, so no lane takes a job after it."""
    outcomes = {}
    while True:
        with taken.get_lock():
            i = taken.value
            taken.value = i + 1
            if i < len(jobs):
                taker[i] = lane
        if i >= len(jobs):
            return outcomes
        try:
            outcomes[i] = fit(jobs[i])
        except Exception as exc:
            outcomes[i] = exc
            with taken.get_lock():
                taken.value = len(jobs)
            return outcomes


def _child_lane(fit, jobs, lane, taken, taker, writer):
    """A forked lane's body: sends its `_run_lane` outcomes once all are in,
    so a full pipe cannot stall its work while the caller runs its own lane.
    An exception carries the child's traceback as a note. It ignores SIGINT:
    on Ctrl-C the caller, interrupted, kills it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    outcomes = _run_lane(fit, jobs, lane, taken, taker)
    for exc in outcomes.values():
        if isinstance(exc, Exception) and hasattr(exc, "add_note"):  # >= 3.11
            exc.add_note("raised in a fold lane:\n"
                         + "".join(traceback.format_exception(exc)))
    writer.send(outcomes)


def _receive(child, reader):
    """(outcomes, None) of a forked lane once it has exited, or ({}, why)
    for a lane that died or sent garbage: it delivered none."""
    try:
        outcomes, why = reader.recv(), None
    except Exception as exc:
        outcomes, why = {}, f"sent garbage ({type(exc).__name__}: {exc})"
    child.join()
    if child.exitcode:
        outcomes, why = {}, (f"was killed by signal {-child.exitcode}"
                             if child.exitcode < 0
                             else f"exited with code {child.exitcode}")
    return outcomes, why


def _map_jobs(fit, jobs):
    """What fit(job) returned or raised for each (cell, repeat, fold) job,
    in job order; None for a job no lane took after one raised, and a
    FehForgeError naming the job and why for one held by a lane that died
    or sent garbage. The caller runs lane 0 of `_lane_count`, and each
    other lane is a forked `multiprocessing` child with a one-way pipe.
    Runs serially where there is no os.fork, or while other threads run,
    since a forked child could inherit a lock that one of them holds."""
    lanes = _lane_count(len(jobs))
    if _FORK is None or threading.active_count() > 1:
        lanes = 1
    shared = _FORK or multiprocessing
    taken = shared.Value("l", 0)
    taker = shared.Array("i", len(jobs), lock=False)  # 0 also for no lane
    whys, children = {}, []
    try:
        for lane in range(1, lanes):
            reader, writer = _FORK.Pipe(duplex=False)
            child = _FORK.Process(target=_child_lane, args=(
                fit, jobs, lane, taken, taker, writer))
            child.start()
            children.append((child, reader))
            writer.close()
        outcomes = _run_lane(fit, jobs, 0, taken, taker)
        for lane, (child, reader) in enumerate(children, start=1):
            delivered, whys[lane] = _receive(child, reader)
            outcomes.update(delivered)
    finally:
        for child, reader in children:  # still running only after an interrupt
            child.kill()
            child.join()
            reader.close()
    for i, (cell, rep, fold) in enumerate(jobs):
        if i not in outcomes and taker[i]:
            outcomes[i] = FehForgeError(
                f"cross-validation lane {taker[i]} {whys[taker[i]]} before it "
                f"delivered cell {cell}, repeat {rep} fold {fold}")
    return [outcomes.get(i) for i in range(len(jobs))]


def summarize_folds(fold_reports):
    summary = {}
    for metric in METRIC_NAMES:
        summary[metric] = {}
        for phase, attr in (("training", "train_metrics"),
                            ("validation", "val_metrics")):
            vals = np.array([getattr(fr, attr)[metric] for fr in fold_reports])
            summary[metric][phase] = (float(vals.mean()), float(vals.std()))
    return summary


def score_folds(model_kind, variant, folds) -> MetricsReport:
    """The MetricsReport of trained folds, each (repeat, fold, TrainResult,
    train side, validation side); `metric_suite` scores the TrainResult's
    predictions of a side against that side's (targets, weights)."""
    fold_reports = [FoldReport(repeat=rep, fold=fold,
                               train_metrics=metric_suite(
                                   ytr, result.train_predictions, wtr),
                               val_metrics=metric_suite(
                                   yval, result.val_predictions, wval),
                               epochs_run=result.epochs_run,
                               train_loss_curve=result.train_loss_curve,
                               val_loss_curve=result.val_loss_curve)
                    for rep, fold, result, (ytr, wtr), (yval, wval) in folds]
    return MetricsReport(model_kind=model_kind, variant=variant,
                         fold_reports=fold_reports,
                         summary=summarize_folds(fold_reports))


def _cross_validate_cells(cells, contain=()):
    """{cell: MetricsReport, or the exception that failed it} of `cells`,
    {cell: (spec, dataset, weights, config)}, whose folds are the jobs of
    one `_map_jobs` list. Like a serial run, it raises the first exception
    in job order, unless it is a `contain`: that fails only its cell, whose
    later folds its lane skips."""
    cells = {cell: (spec, ds, np.asarray(w, dtype=np.float64), cfg,
                    stratified_kfold(ds.targets, cfg.folds, bins=cfg.bins,
                                     repeats=cfg.repeats, seed=cfg.seed))
             for cell, (spec, ds, w, cfg) in cells.items()}
    jobs = [(cell, rep, fold) for cell, (*_, cfg, _) in cells.items()
            for rep in range(cfg.repeats) for fold in range(cfg.folds)]
    failed = set()  # the cells of this lane's contained errors

    def fit(job):
        """The job's TrainResult, without its model."""
        cell, rep, fold = job
        if cell in failed:
            return None
        spec, ds, w, cfg, assignments = cells[cell]
        val = assignments[rep] == fold
        try:
            result = train(spec, (ds.values[~val], ds.mask[~val],
                                  ds.targets[~val], w[~val]),
                           (ds.values[val], ds.mask[val], ds.targets[val],
                            w[val]), cfg, seed_index=rep * cfg.folds + fold)
        except contain as exc:
            failed.add(cell)
            return exc
        return replace(result, model=None)

    outcomes, reports = _map_jobs(fit, jobs), {}
    for cell, (spec, ds, w, _, a) in cells.items():
        folds = [(rep, fold, outcome) for (c, rep, fold), outcome
                 in zip(jobs, outcomes) if c == cell]
        y = ds.targets
        try:
            for *_, outcome in folds:
                if isinstance(outcome, Exception):
                    raise outcome
            reports[cell] = score_folds(spec.kind, ds.variant, [
                (rep, fold, result, (y[a[rep] != fold], w[a[rep] != fold]),
                 (y[a[rep] == fold], w[a[rep] == fold]))
                for rep, fold, result in folds])
        except contain as exc:
            reports[cell] = exc
    return reports


def cross_validate(spec: ModelSpec, dataset: ArrayDataset, weights,
                   config: TrainConfig) -> MetricsReport:
    """k x repeats training runs with aggregated mean +/- std metrics, in a
    report of `dataset.variant`.

    The folds train in `_lane_count` lanes, one in this process and the
    others forked, and a free lane takes the next fold (`_map_jobs`); the
    fold assignment and the scoring stay in this process. Every fold draws
    from its own seed substreams, so the report is bit-identical at any
    lane count. Like a serial run, it raises the first failing fold's error.
    """
    cell = (dataset.variant, spec.kind)
    return _cross_validate_cells({cell: (spec, dataset, weights, config)})[cell]


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
    validation wRMSE (ties: validation MAE, then cell order). The cells of one
    (spec, learning rate, batch size) share one cross-validation's outcome.
    All their folds are one job list; a cell records its first FehForgeError
    in job order, and the other cells go on."""
    firsts, runs, rows = {}, {}, []
    for dropout, lr, batch in grid.cells():
        cell_spec = spec.with_overrides(dropout=dropout)
        first = firsts.setdefault((cell_spec.spec_hash(), lr, batch),
                                  (dropout, lr, batch))
        runs[first] = (cell_spec, dataset, weights,
                       replace(config, learning_rate=lr, batch_size=batch))
        rows.append((dropout, lr, batch, first))
    outcomes = _cross_validate_cells(runs, contain=FehForgeError)
    cells = [GridCell(dropout, lr, batch, outcomes[first])
             for dropout, lr, batch, first in rows]
    for cell in cells:  # a failed cell's report is the error it raised
        if isinstance(cell.report, Exception):
            cell.error = f"{type(cell.report).__name__}: {cell.report}"
            cell.report = None
    ok = [(i, c) for i, c in enumerate(cells) if c.error is None]
    failed = [c for c in cells if c.error is not None]
    ranked = [c for _, c in sorted(ok, key=lambda t: (t[1].val_wrmse,
                                                      t[1].val_mae, t[0]))]
    return ranked, failed


# --- model x variant matrix -------------------------------------------------

def run_matrix(datasets, kinds, config: TrainConfig, weights_by_variant):
    """Cross-validate every model kind on every dataset variant; returns
    {(variant, kind): MetricsReport}, ordered by variant then model. All
    their folds are one job list, and it raises the first failing one's."""
    return _cross_validate_cells({
        (variant, kind): (build_default(kind), datasets[variant],
                          weights_by_variant[variant], config)
        for variant in sorted(datasets) for kind in kinds})


# --- report writers ---------------------------------------------------------

def _summary_rows(report: MetricsReport, *lead):
    """`lead` + (metric, phase, mean, std) for each entry of the summary."""
    return [[*lead, metric, phase, *map(repr, report.summary[metric][phase])]
            for metric in METRIC_NAMES for phase in ("training", "validation")]


def write_metrics_csv(path, report: MetricsReport):
    write_csv(path, ["model", "variant", "metric", "phase", "mean", "std"],
              _summary_rows(report, report.model_kind, report.variant))


def write_matrix_csv(path, reports):
    """`run_matrix`'s reports in one table, in their order."""
    write_csv(path, ["variant", "model", "metric", "phase", "mean", "std"],
              [row for r in reports.values()
               for row in _summary_rows(r, r.variant, r.model_kind)])


def write_loss_curves_csv(path, fold_reports):
    write_csv(path, ["repeat", "fold", "epoch", "train_loss", "val_loss"],
              ([fr.repeat, fr.fold, epoch, repr(tl), repr(vl)] for fr in fold_reports
               for epoch, (tl, vl) in enumerate(zip(fr.train_loss_curve,
                                                    fr.val_loss_curve))))


def write_predictions_csv(path, source_ids, predictions, truths):
    write_csv(path, ["source_id", "predicted_feh", "true_feh"],
              ([int(sid), repr(float(p)), repr(float(t)) if np.isfinite(t) else ""]
               for sid, p, t in zip(source_ids, predictions, truths)))


def write_grid_csv(path, ranked, failed):
    rows = [[rank, cell.dropout, cell.learning_rate, cell.batch_size,
             repr(cell.val_wrmse), repr(cell.val_mae), ""]
            for rank, cell in enumerate(ranked, start=1)]
    rows += [["", cell.dropout, cell.learning_rate, cell.batch_size, "", "", cell.error]
             for cell in failed]
    write_csv(path, ["rank", "dropout", "learning_rate", "batch_size",
                     "val_wrmse", "val_mae", "error"], rows)
