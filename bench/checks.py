"""Output checks. Each one compares the program's output with a value the
benchmark computes on its own from the generated inputs (plain numpy, no
program code), or with a property the method must have. None compares
against a stored copy of an earlier output.

Every check returns a list of failure messages; empty means it passed.
"""
from __future__ import annotations

import csv
import io
import math
import zipfile

import numpy as np

# Selection thresholds and the order in which the program documents the
# rules: the first failing rule is the one reported.
THRESHOLDS = {"max_feh_sigma": 0.4, "max_amp_g": 1.4, "min_epochs": 50,
              "max_phi31_sigma": 0.10}
TRAIN_FRACTION = 4801.0 / 6002.0
WEIGHT_CAP = 20.0

# Tolerances, also listed in bench/README.md.
EXACT_ATOL = 1e-12          # FULL centring, FULL vs SPLINE_NO_MEAN (mag)
PHASE_RTOL = 1e-14          # phase channel against k/L * period
WEIGHT_RTOL = 1e-9          # weights against the plain-numpy KDE
METRIC_RTOL = 1e-9          # recomputed CV metrics against the report
# Spline curve vs the noise-free sawtooth, RMS over the grid (mag). The
# median over curves is checked; single curves beyond CURVE_RMS_TOL are
# counted, not failed, because GCV collapses to a near-linear fit on a few
# curves of most corpora (see CHANGES.md).
CURVE_MEDIAN_RMS_TOL = 0.02
CURVE_RMS_TOL = 0.05


def read_zip(path):
    """All .npy members of a container as name -> array, read with zipfile
    and numpy only."""
    with zipfile.ZipFile(path) as zf:
        return {name[:-4]: np.load(io.BytesIO(zf.read(name)), allow_pickle=False)
                for name in zf.namelist() if name.endswith(".npy")}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def first_failing_rule(rec):
    if not (math.isfinite(rec.period) and rec.period > 0):
        return "period"
    if rec.feh_sigma > THRESHOLDS["max_feh_sigma"]:
        return "max_feh_sigma"
    if rec.amp_g > THRESHOLDS["max_amp_g"]:
        return "max_amp_g"
    if rec.n_epochs < THRESHOLDS["min_epochs"]:
        return "min_epochs"
    if rec.phi31_sigma > THRESHOLDS["max_phi31_sigma"]:
        return "max_phi31_sigma"
    return None


def check_rejections(records, rejections_csv):
    expected = {(r.source_id, first_failing_rule(r)) for r in records
                if first_failing_rule(r) is not None}
    got = {(int(row["source_id"]), row["failed_rule"])
           for row in read_csv(rejections_csv)}
    if got != expected:
        return [f"rejections: {len(got ^ expected)} (source_id, rule) pairs differ "
                f"from the thresholds applied to the catalog"]
    return []


def check_split(records, train_ids, val_ids):
    accepted = {r.source_id for r in records if first_failing_rule(r) is None}
    train, val = set(train_ids.tolist()), set(val_ids.tolist())
    errors = []
    if train & val:
        errors.append(f"split: {len(train & val)} stars on both sides")
    if train | val != accepted or len(train) + len(val) != len(accepted):
        errors.append("split: sides do not cover the accepted stars exactly once")
    if len(train) != int(round(TRAIN_FRACTION * len(accepted))):
        errors.append(f"split: {len(train)} train stars, expected "
                      f"round({TRAIN_FRACTION:.6f} * {len(accepted)})")
    return errors


def check_spline_variants(full, no_mean, periods, length):
    """full / no_mean: arrays read from the FULL and SPLINE_NO_MEAN dataset
    containers of one side; periods: source_id -> period."""
    errors = []
    if not np.array_equal(full["source_ids"], no_mean["source_ids"]):
        return ["FULL and SPLINE_NO_MEAN rows are not the same stars"]
    f0, n0 = full["values"][:, :, 0], no_mean["values"][:, :, 0]
    if not (full["mask"].all() and no_mean["mask"].all()):
        errors.append("spline variants carry masked steps")
    if np.abs(f0.mean(axis=1)).max() > EXACT_ATOL:
        errors.append("FULL channel 0 row means are not 0")
    if np.abs(f0 - (n0 - n0.mean(axis=1, keepdims=True))).max() > EXACT_ATOL:
        errors.append("FULL rows differ from SPLINE_NO_MEAN minus the row mean")
    k = np.arange(length, dtype=np.float64) / length
    p = np.array([periods[int(s)] for s in full["source_ids"]])
    expected = k[None, :] * p[:, None]
    for name, ds in (("full", full), ("spline_no_mean", no_mean)):
        if not np.allclose(ds["values"][:, :, 1], expected, rtol=PHASE_RTOL, atol=0):
            errors.append(f"{name}: phase channel is not k/L * period")
    return errors


def sawtooth(phase, amplitude, rise):
    """Noise-free generating curve in magnitudes: brightest at phase 0,
    linear decline over 1 - rise, linear rise over `rise`."""
    decline = 1.0 - rise
    shape = np.where(phase < decline, phase / decline, (1.0 - phase) / rise)
    return amplitude * (shape - 0.5)


def curve_deviation(full, truth, length):
    """RMS deviation (mag) of each FULL row from the mean-centred noise-free
    sawtooth on the same aligned phase grid. `truth` maps a source_id to
    (amplitude, rise, phase of the brightest observation)."""
    grid = np.arange(length, dtype=np.float64) / length
    rms = []
    for sid, row in zip(full["source_ids"], full["values"][:, :, 0]):
        amplitude, rise, shift = truth[int(sid)]
        ref = sawtooth(np.mod(grid + shift, 1.0), amplitude, rise)
        rms.append(float(np.sqrt(np.mean((row - (ref - ref.mean())) ** 2))))
    return np.array(rms)


def check_curves(rms):
    """Returns (errors, number of curves beyond CURVE_RMS_TOL)."""
    errors = []
    if np.median(rms) > CURVE_MEDIAN_RMS_TOL:
        errors.append(f"median resampled-curve RMS deviation {np.median(rms):.4f} "
                      f"mag > {CURVE_MEDIAN_RMS_TOL}")
    return errors, int((rms > CURVE_RMS_TOL).sum())


def inverse_density_weights(train_targets, targets, cap=WEIGHT_CAP):
    """Gaussian KDE with Scott's bandwidth, n^(-1/5) times the sample std,
    evaluated directly; weights 1/density, mean one, capped, mean one."""
    t = np.asarray(train_targets, dtype=np.float64)
    bw = t.std(ddof=1) * len(t) ** (-0.2)
    z = (np.asarray(targets)[:, None] - t[None, :]) / bw
    dens = np.exp(-0.5 * z * z).mean(axis=1) / (bw * math.sqrt(2.0 * math.pi))
    w = 1.0 / dens
    w /= w.mean()
    w = np.minimum(w, cap)
    return w / w.mean()


def check_weights(train_ds, side_ds, weights):
    errors = []
    if not np.array_equal(weights["source_ids"], side_ds["source_ids"]):
        errors.append("weights rows do not line up with the dataset rows")
    expected = inverse_density_weights(train_ds["targets"], side_ds["targets"])
    if not np.allclose(weights["weights"], expected, rtol=WEIGHT_RTOL, atol=0):
        errors.append("weights differ from the inverse-density KDE")
    return errors


def fold_metrics(y, yhat, w):
    e = y - yhat
    return {"r2": 1.0 - (e ** 2).sum() / ((y - y.mean()) ** 2).sum(),
            "rmse": math.sqrt((e ** 2).mean()),
            "wrmse": math.sqrt((w * e ** 2).sum() / w.sum())}


def check_cv(targets, assignments, scorings, report_csv, folds, r2_floor):
    """assignments: (1, N) fold ids the program drew; scorings: the
    (y, yhat, w) of every metric_suite call the CV made, training and
    validation sides, in any order. A fold's validation scoring is the one
    whose targets are exactly that fold's stars, so the order in which the
    folds ran does not matter. With folds >= 3 no training side holds the
    same stars as a validation side."""
    if folds < 3:
        raise ValueError("check_cv needs folds >= 3: with 2 folds a training "
                         "side holds exactly the other fold's stars")
    errors = []
    a = assignments[0]
    if a.shape != targets.shape or a.min() < 0 or a.max() >= folds:
        return ["folds: assignment does not give every star one fold"]
    val_calls = []
    for f in range(folds):
        want = np.sort(targets[a == f])
        hits = [c for c in scorings
                if len(c[0]) == len(want) and np.array_equal(np.sort(c[0]), want)]
        if len(want) == 0 or len(hits) != 1:
            errors.append(f"fold {f}: {len(hits)} validation scorings hold exactly "
                          f"the {len(want)} stars of that fold, expected 1")
        else:
            val_calls.append(hits[0])
    if len(scorings) != 2 * folds:
        errors.append(f"folds: {len(scorings)} scorings for {folds} folds, expected "
                      f"a training and a validation side each")
    if errors:
        return errors
    per_fold = [fold_metrics(*call) for call in val_calls]
    report = {row["metric"]: (float(row["mean"]), float(row["std"]))
              for row in read_csv(report_csv) if row["phase"] == "validation"}
    for name in ("r2", "rmse", "wrmse"):
        vals = np.array([m[name] for m in per_fold])
        mean, std = report[name]
        if not (math.isclose(vals.mean(), mean, rel_tol=METRIC_RTOL, abs_tol=1e-12)
                and math.isclose(vals.std(), std, rel_tol=METRIC_RTOL, abs_tol=1e-12)):
            errors.append(f"cv report {name} {mean!r} +/- {std!r} != recomputed "
                          f"{vals.mean()!r} +/- {vals.std()!r}")
    if report["r2"][0] < r2_floor:
        errors.append(f"mean validation R2 {report['r2'][0]:.3f} < floor {r2_floor}")
    return errors


def check_report_finite(report_csv):
    rows = read_csv(report_csv)
    if len(rows) != 10 or not all(math.isfinite(float(r[k])) for r in rows
                                  for k in ("mean", "std")):
        return [f"{report_csv}: missing or non-finite metrics"]
    return []


def read_predictions(path):
    rows = read_csv(path)
    return [int(r["source_id"]) for r in rows], [r["predicted_feh"] for r in rows]


def check_restored_predictions(train_pred_csv, predict_csv, expected_ids):
    """`predict` restores the snapshot that `train` saved; its predictions
    must equal, as written text (repr of the float), the predictions `train`
    made with the model still in memory."""
    ids_a, pred_a = read_predictions(train_pred_csv)
    ids_b, pred_b = read_predictions(predict_csv)
    errors = []
    if ids_b != [int(s) for s in expected_ids] or ids_a != ids_b:
        errors.append(f"{predict_csv}: rows are not the validation stars")
    if pred_a != pred_b:
        errors.append(f"{predict_csv}: restored snapshot predicts differently")
    if not all(math.isfinite(float(p)) for p in pred_b):
        errors.append(f"{predict_csv}: non-finite prediction")
    return errors
