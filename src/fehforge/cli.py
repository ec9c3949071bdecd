"""Batch command-line front end.

    feh-forge <ingest|preprocess|train|cv|gridsearch|predict>
              --config <path> [overrides]

Configuration precedence: command-line flags > config file (YAML) > built-in
defaults. Every run writes its effective config snapshot into the output
directory, and rerunning from that snapshot reproduces the outputs
(bit-identical with --threads 1).

Exit codes:
    0  success
    1  unclassified pipeline error
    2  missing input file
    3  malformed input (missing column, parse error, empty catalog,
       configuration value out of range)
    4  degenerate data (bad split, too few points, diverged loss, ...)
    5  integrity mismatch (snapshot/spec hash, wrong container kind)
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import sys

import numpy as np
import yaml

from . import catalog as cat
from . import container, evaluate, preprocess, weighting
from .errors import (DegenerateBatch, DegenerateDistribution, DegenerateSplit,
                     DivergedLoss, DuplicateEpoch, EmptyCatalog, FehForgeError,
                     InsufficientPoints, IntegrityError, InvalidConfig,
                     MissingColumn, MissingInput, NonPositiveWeightSum,
                     OrphanStar, ParseError, SingularFit, TooFewSamples,
                     ZeroDensity, ZeroVariance)
from .preprocess import PreprocessConfig, Variant
from .zoo import KINDS, build_default

EXIT_CODES = (
    ((MissingInput, FileNotFoundError), 2),
    ((MissingColumn, ParseError, EmptyCatalog, InvalidConfig), 3),
    ((DegenerateSplit, DegenerateDistribution, DegenerateBatch,
      InsufficientPoints, SingularFit, TooFewSamples, ZeroVariance,
      ZeroDensity, DivergedLoss, NonPositiveWeightSum, OrphanStar,
      DuplicateEpoch), 4),
    ((IntegrityError,), 5),
)

DEFAULT_CONFIG = {
    "paths": {"catalog": None, "photometry": None, "output_dir": None},
    "selection": {"max_feh_sigma": 0.4, "max_amp_g": 1.4,
                  "min_epochs": 50, "max_phi31_sigma": 0.10},
    "split": {"train_fraction": 4801.0 / 6002.0},
    "preprocess": {"resample_length": 100, "lambda_strategy": "gcv",
                   "lam": 1e-4, "pad_value": -1.0},
    "weighting": {"bandwidth": None, "cap": 20.0},
    "variant": "full",
    "model": "gru",
    "train": {"batch_size": 256, "learning_rate": 0.01, "max_epochs": 500,
              "patience": 20, "folds": 5, "repeats": 3, "bins": 10},
    "grid": {"dropout_rates": [0.1, 0.2, 0.4, 0.6],
             "learning_rates": [0.001, 0.01, 0.1],
             "batch_sizes": [32, 64, 128, 256, 512]},
    "seed": 0,
    "threads": 1,
}

VARIANTS = {v.value: v for v in Variant}


def _deep_merge(base, override):
    out = copy.deepcopy(base)
    for key, value in (override or {}).items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path=None, overrides=None):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        if not os.path.exists(path):
            raise MissingInput(f"config file not found: {path}")
        with open(path) as fh:
            cfg = _deep_merge(cfg, yaml.safe_load(fh) or {})
    cfg = _deep_merge(cfg, overrides or {})
    if cfg["paths"]["output_dir"] is None:
        cfg["paths"]["output_dir"] = os.environ.get("FEH_FORGE_OUT",
                                                    "fehforge_out")
    return cfg


def _out(cfg, *parts):
    path = os.path.join(cfg["paths"]["output_dir"], *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _write_config_snapshot(cfg):
    with container.atomic_open(_out(cfg, "config.snapshot.yaml")) as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)


def _train_config(cfg):
    t = cfg["train"]
    return evaluate.TrainConfig(
        batch_size=int(t["batch_size"]), learning_rate=float(t["learning_rate"]),
        max_epochs=int(t["max_epochs"]), patience=int(t["patience"]),
        folds=int(t["folds"]), repeats=int(t["repeats"]), bins=int(t["bins"]),
        seed=int(cfg["seed"]), threads=int(cfg["threads"]))


def _preprocess_config(cfg):
    p = cfg["preprocess"]
    return PreprocessConfig(resample_length=int(p["resample_length"]),
                            lambda_strategy=p["lambda_strategy"],
                            lam=float(p["lam"]),
                            pad_value=float(p["pad_value"]))


def _model_spec(cfg, kind=None):
    kind = kind or cfg["model"]
    if kind not in KINDS:
        raise FehForgeError(f"unknown model kind {kind!r}; choose from {KINDS}")
    return build_default(kind)


def _require(path, what):
    if not path:
        raise MissingInput(f"no {what} path configured")
    if not os.path.exists(path):
        raise MissingInput(f"{what} not found: {path}")
    return path


# --- commands ---------------------------------------------------------------

def cmd_ingest(cfg):
    catalog_path = _require(cfg["paths"]["catalog"], "catalog")
    photometry_path = _require(cfg["paths"]["photometry"], "photometry")
    _write_config_snapshot(cfg)

    records = cat.load_catalog(catalog_path)
    criteria = cat.SelectionCriteria(**cfg["selection"])
    accepted, rejected = cat.apply_selection(records, criteria)
    cat.write_rejection_report(_out(cfg, "rejections.csv"), rejected)
    print(f"accepted {len(accepted)} rejected {len(rejected)}")
    if accepted:
        pairs = cat.join_photometry(accepted, photometry_path)
        split = cat.SplitSpec(train_fraction=float(cfg["split"]["train_fraction"]),
                              seed=int(cfg["seed"]))
        train_recs, val_recs = cat.split_train_validation(
            [rec for rec, _ in pairs], split)
        by_id = {rec.source_id: (rec, lc) for rec, lc in pairs}
        container.save_curves(_out(cfg, "curves_train.zip"),
                              [by_id[r.source_id] for r in train_recs],
                              meta={"side": "train"})
        container.save_curves(_out(cfg, "curves_validation.zip"),
                              [by_id[r.source_id] for r in val_recs],
                              meta={"side": "validation"})
        print(f"train {len(train_recs)} validation {len(val_recs)}")
    manifest = {"accepted": len(accepted), "rejected": len(rejected)}
    with container.atomic_open(_out(cfg, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return 0


def _dataset_path(cfg, variant, side):
    return _out(cfg, "datasets", f"{variant}_{side}.zip")


def _weights_path(cfg, variant, side):
    return _out(cfg, "datasets", f"weights_{variant}_{side}.zip")


def cmd_preprocess(cfg):
    _write_config_snapshot(cfg)
    pconfig = _preprocess_config(cfg)
    variants = (list(VARIANTS) if cfg["variant"] == "all"
                else [cfg["variant"]])
    sides = {}
    for side in ("train", "validation"):
        path = os.path.join(cfg["paths"]["output_dir"], f"curves_{side}.zip")
        sides[side], _ = container.load_curves(_require(path, f"curves ({side})"))

    meta_base = {"preprocess": cfg["preprocess"],
                 "config_hash": container.config_hash(cfg["preprocess"])}
    built = {side: preprocess.build_datasets(
                 pairs, [VARIANTS[name] for name in variants], pconfig)
             for side, pairs in sides.items()}
    for name in variants:
        variant = VARIANTS[name]
        datasets = {}
        for side in sides:
            series, manifest = built[side][variant]
            ds = container.from_feature_series(
                series, variant,
                meta=dict(meta_base, side=side, failures=len(manifest.failures)))
            container.save_dataset(_dataset_path(cfg, name, side), ds)
            datasets[side] = ds
            print(f"{name} {side}: {len(ds)} series of length {ds.length} "
                  f"({len(manifest.failures)} failures)")
        density = weighting.fit_density(datasets["train"].targets,
                                        bandwidth=cfg["weighting"]["bandwidth"])
        for side, ds in datasets.items():
            w = weighting.compute_weights(density, ds.targets,
                                          cap=cfg["weighting"]["cap"])
            container.save_weights(_weights_path(cfg, name, side),
                                   ds.source_ids, w)
    return 0


def _load_side(cfg, variant, side):
    ds = container.load_dataset(
        _require(_dataset_path(cfg, variant, side), f"{variant} {side} dataset"))
    ids, w = container.load_weights(
        _require(_weights_path(cfg, variant, side), f"{variant} {side} weights"))
    if not np.array_equal(ids, ds.source_ids):
        raise IntegrityError(f"{variant} {side} weights do not follow the "
                             f"dataset's source_ids row for row")
    return ds, w


def cmd_train(cfg):
    _write_config_snapshot(cfg)
    variant = cfg["variant"]
    tconfig = _train_config(cfg)
    spec = _model_spec(cfg)
    train_ds, train_w = _load_side(cfg, variant, "train")
    val_ds, val_w = _load_side(cfg, variant, "validation")
    result = evaluate.train(
        spec,
        (train_ds.values, train_ds.mask, train_ds.targets, train_w),
        (val_ds.values, val_ds.mask, val_ds.targets, val_w),
        tconfig)
    tag = f"{spec.kind}_{variant}"
    container.save_snapshot(_out(cfg, "snapshots", f"{tag}.zip"), result.model,
                            extra_meta={"variant": variant})
    train_pred = evaluate.predict(result.model, train_ds)
    val_pred = result.val_predictions
    fold_reports = [evaluate.FoldReport(
        repeat=0, fold=0,
        train_metrics=evaluate.metric_suite(train_ds.targets, train_pred, train_w),
        val_metrics=evaluate.metric_suite(val_ds.targets, val_pred, val_w),
        epochs_run=result.epochs_run,
        train_loss_curve=result.train_loss_curve,
        val_loss_curve=result.val_loss_curve)]
    report = evaluate.MetricsReport(
        model_kind=spec.kind, variant=variant, fold_reports=fold_reports,
        summary=evaluate.summarize_folds(fold_reports))
    evaluate.write_metrics_csv(_out(cfg, "reports", f"train_{tag}.csv"), report)
    evaluate.write_loss_curves_csv(_out(cfg, "plots", f"loss_{tag}.csv"),
                                   report.fold_reports)
    evaluate.write_predictions_csv(_out(cfg, "plots", f"pred_vs_true_{tag}.csv"),
                                   val_ds.source_ids, val_pred, val_ds.targets)
    fr = fold_reports[0]
    print(f"{tag}: epochs {result.epochs_run} "
          f"val r2 {fr.val_metrics['r2']:.4f} "
          f"val rmse {fr.val_metrics['rmse']:.4f}")
    return 0


def cmd_cv(cfg):
    _write_config_snapshot(cfg)
    tconfig = _train_config(cfg)
    variants = list(VARIANTS) if cfg["variant"] == "all" else [cfg["variant"]]
    kinds = list(KINDS) if cfg["model"] == "all" else [cfg["model"]]

    if len(variants) > 1 or len(kinds) > 1:
        datasets, weights = {}, {}
        for name in variants:
            ds, w = _load_side(cfg, name, "train")
            datasets[name], weights[name] = ds, w
        rows, reports = evaluate.run_matrix(datasets, kinds, tconfig, weights)
        evaluate.write_matrix_csv(_out(cfg, "reports", "matrix.csv"), rows)
        print(f"matrix: {len(kinds)} models x {len(variants)} variants "
              f"-> {len(rows)} rows")
        return 0

    variant, kind = variants[0], kinds[0]
    ds, w = _load_side(cfg, variant, "train")
    report = evaluate.cross_validate(_model_spec(cfg, kind), ds, w, tconfig,
                                     variant=variant)
    tag = f"{kind}_{variant}"
    evaluate.write_metrics_csv(_out(cfg, "reports", f"cv_{tag}.csv"), report)
    evaluate.write_loss_curves_csv(_out(cfg, "plots", f"cv_loss_{tag}.csv"),
                                   report.fold_reports)
    mean, std = report.summary["r2"]["validation"]
    print(f"cv {tag}: {len(report.fold_reports)} folds, "
          f"val r2 {mean:.4f} +/- {std:.4f}")
    return 0


def cmd_gridsearch(cfg):
    _write_config_snapshot(cfg)
    tconfig = _train_config(cfg)
    grid = evaluate.GridSpec(
        dropout_rates=tuple(cfg["grid"]["dropout_rates"]),
        learning_rates=tuple(cfg["grid"]["learning_rates"]),
        batch_sizes=tuple(cfg["grid"]["batch_sizes"]))
    variant = cfg["variant"]
    ds, w = _load_side(cfg, variant, "train")
    ranked, failed = evaluate.grid_search(_model_spec(cfg), ds, w, grid, tconfig)
    tag = f"{cfg['model']}_{variant}"
    evaluate.write_grid_csv(_out(cfg, "reports", f"grid_{tag}.csv"),
                            ranked, failed)
    if ranked:
        best = ranked[0]
        print(f"grid {tag}: best dropout={best.dropout} "
              f"lr={best.learning_rate} batch={best.batch_size} "
              f"val wrmse {best.val_wrmse:.4f} ({len(failed)} failed cells)")
    return 0


def cmd_predict(cfg, snapshot_path, input_path, output_path=None):
    model = container.restore_model(_require(snapshot_path, "snapshot"))
    ds = container.load_dataset(_require(input_path, "input container"))
    preds = evaluate.predict(model, ds)
    out = output_path or _out(cfg, "reports", "predictions.csv")
    evaluate.write_predictions_csv(out, ds.source_ids, preds, ds.targets)
    print(f"wrote {len(preds)} predictions to {out}")
    return 0


# --- argument parsing -------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="feh-forge",
        description="RRab photometric metallicity regression pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("ingest", "preprocess", "train", "cv", "gridsearch", "predict"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--catalog", default=None)
        p.add_argument("--photometry", default=None)
        p.add_argument("--output", default=None, help="output directory")
        p.add_argument("--model", default=None,
                       help=f"one of {', '.join(KINDS)} or 'all'")
        p.add_argument("--variant", default=None,
                       help="full | spline_no_mean | raw_padded | all")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--patience", type=int, default=None)
        p.add_argument("--folds", type=int, default=None)
        p.add_argument("--repeats", type=int, default=None)
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--learning-rate", type=float, default=None)
        if name == "predict":
            p.add_argument("--snapshot", required=True)
            p.add_argument("--input", required=True)
            p.add_argument("--predictions-out", default=None)
    return parser


def _overrides_from_args(args):
    over = {}
    paths = {}
    if args.catalog:
        paths["catalog"] = args.catalog
    if args.photometry:
        paths["photometry"] = args.photometry
    if args.output:
        paths["output_dir"] = args.output
    if paths:
        over["paths"] = paths
    for key in ("model", "variant", "seed", "threads"):
        val = getattr(args, key)
        if val is not None:
            over[key] = val
    train = {}
    for flag, key in (("epochs", "max_epochs"), ("patience", "patience"),
                      ("folds", "folds"), ("repeats", "repeats"),
                      ("batch_size", "batch_size"),
                      ("learning_rate", "learning_rate")):
        val = getattr(args, flag)
        if val is not None:
            train[key] = val
    if train:
        over["train"] = train
    return over


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides_from_args(args))
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "preprocess":
            return cmd_preprocess(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "cv":
            return cmd_cv(cfg)
        if args.command == "gridsearch":
            return cmd_gridsearch(cfg)
        if args.command == "predict":
            return cmd_predict(cfg, args.snapshot, args.input,
                               args.predictions_out)
        raise AssertionError(args.command)
    except (FehForgeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for classes, code in EXIT_CODES:
            if isinstance(exc, classes):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
