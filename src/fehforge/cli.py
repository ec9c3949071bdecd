"""Batch command-line front end.

    feh-forge <ingest|preprocess|train|cv|gridsearch|predict>
              --config <path> [overrides]

Configuration precedence: command-line flags > config file (YAML) > built-in
defaults. Each flag of `FLAGS` sets one config key, and `load_config` reads
its value as it reads the file's. Every run writes its effective config
snapshot into the output directory, and rerunning from that snapshot
reproduces the outputs. `cv` writes each (model, variant) cell's report and
loss curves, and `matrix.csv` for more than one cell.

Exit codes: an error exits with its class's `exit_code` (see `errors`):
    0  success
    1  other failure (`FehForgeError` itself: a cross-validation lane died)
    2  missing input file (`MissingInput`, `FileNotFoundError`); also an
       argparse usage error (unknown flag, no `--snapshot`)
    3  malformed input (`MalformedInput`: missing column, parse error,
       empty catalog, a config value or flag that cannot be read or is
       out of range)
    4  degenerate data (`DegenerateData`: bad split, too few points,
       diverged loss, ...)
    5  integrity mismatch (`IntegrityError`: snapshot/spec hash, wrong
       container kind, misaligned rows)
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
from .errors import FehForgeError, IntegrityError, InvalidConfig, MissingInput
from .preprocess import PreprocessConfig, Variant
from .zoo import KINDS, build_default

DEFAULT_CONFIG = {
    "paths": {"catalog": None, "photometry": None, "output_dir": None},
    "selection": {"max_feh_sigma": 0.4, "max_amp_g": 1.4,
                  "min_epochs": 50, "max_phi31_sigma": 0.10},
    "split": {"train_fraction": 4801.0 / 6002.0},
    "preprocess": {"resample_length": 100, "lambda_strategy": "gcv",
                   "lam": 1e-4},
    "weighting": {"bandwidth": None, "cap": 20.0},
    "variant": "full",
    "model": "gru",
    "train": {"batch_size": 256, "learning_rate": 0.01, "max_epochs": 500,
              "patience": 20, "folds": 5, "repeats": 3, "bins": 10},
    "grid": {"dropout_rates": [0.1, 0.2, 0.4, 0.6],
             "learning_rates": [0.001, 0.01, 0.1],
             "batch_sizes": [32, 64, 128, 256, 512]},
    "seed": 0,
    "threads": 0,           # cross-validation lanes; 0 = CPUs / BLAS threads
}
# The type of each value whose default is None; null stays allowed.
_NULLABLE_TYPES = {"paths.catalog": str, "paths.photometry": str,
                  "paths.output_dir": str, "weighting.bandwidth": float}

VARIANTS = {v.value: v for v in Variant}

# Each flag that sets a config value, with its dotted config key; its value
# reaches `load_config` as the string given, to be read as the file's are.
FLAGS = {"--catalog": "paths.catalog", "--photometry": "paths.photometry",
         "--output": "paths.output_dir", "--model": "model",
         "--variant": "variant", "--seed": "seed", "--threads": "threads",
         "--epochs": "train.max_epochs", "--patience": "train.patience",
         "--folds": "train.folds", "--repeats": "train.repeats",
         "--batch-size": "train.batch_size",
         "--learning-rate": "train.learning_rate"}
_FLAG_HELP = {"model": f"one of {', '.join(KINDS)} or 'all'",
              "variant": f"{' | '.join(VARIANTS)} | all",
              "threads": "cross-validation lanes; 0 = CPUs / BLAS threads"}


def _merge(base, override, name="config"):
    """`base` updated from `override`, each value read as the type of the
    one it replaces (of `_NULLABLE_TYPES` where that is None); InvalidConfig
    for a key that `base` lacks or a value that cannot be read so."""
    if isinstance(base, dict):
        if not isinstance(override, dict):
            raise InvalidConfig(f"{name} must be a mapping, got {override!r}")
        unknown = [key for key in override if key not in base]
        if unknown:
            raise InvalidConfig(f"unknown config key(s) {unknown} in {name}")
        return {key: _merge(val, override[key], f"{name}.{key}")
                if key in override else copy.deepcopy(val)
                for key, val in base.items()}
    if base is None and override is None:
        return None
    kind = (_NULLABLE_TYPES[name.partition(".")[2]] if base is None
            else type(base))
    try:
        if isinstance(base, list):
            return [type(base[0])(v) for v in override]
        return kind(override)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"{name}: cannot read {override!r} as "
                            f"{kind.__name__}") from exc


def load_config(path=None, overrides=None):
    """DEFAULT_CONFIG < the YAML file at `path` < `overrides`, checked: a
    key, type or choice outside DEFAULT_CONFIG raises InvalidConfig."""
    cfg = DEFAULT_CONFIG
    if path:
        if not os.path.exists(path):
            raise MissingInput(f"config file not found: {path}")
        with open(path) as fh:
            cfg = _merge(cfg, yaml.safe_load(fh) or {})
    cfg = _merge(cfg, overrides or {})
    for key, allowed in (("variant", list(VARIANTS)), ("model", list(KINDS))):
        if cfg[key] not in allowed + ["all"]:
            raise InvalidConfig(f"unknown {key} {cfg[key]!r}; choose from "
                                f"{', '.join(allowed)} or all")
    if not cfg["paths"]["output_dir"]:
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
    return evaluate.TrainConfig(**cfg["train"], seed=cfg["seed"],
                                threads=cfg["threads"])


def _model_spec(cfg):
    kind = cfg["model"]
    if kind not in KINDS:
        raise InvalidConfig(f"unknown model kind {kind!r}; choose from {KINDS}")
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
        split = cat.SplitSpec(**cfg["split"], seed=cfg["seed"])
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
    pconfig = PreprocessConfig(**cfg["preprocess"])
    variants = (list(VARIANTS) if cfg["variant"] == "all"
                else [cfg["variant"]])
    sides = {}
    for side in ("train", "validation"):
        path = os.path.join(cfg["paths"]["output_dir"], f"curves_{side}.zip")
        sides[side], _ = container.load_curves(_require(path, f"curves ({side})"))

    # the containers also record the value their padded steps hold
    recorded = dict(cfg["preprocess"], pad_value=preprocess.PAD_VALUE)
    meta_base = {"preprocess": recorded,
                 "config_hash": container.config_hash(recorded)}
    built = {side: preprocess.build_datasets(
                 pairs, [VARIANTS[name] for name in variants], pconfig)
             for side, pairs in sides.items()}
    for name in variants:
        variant = VARIANTS[name]
        datasets = {}
        for side in sides:
            ds, failures = built[side][variant]
            ds.meta = dict(meta_base, side=side, failures=len(failures))
            container.save_dataset(_dataset_path(cfg, name, side), ds)
            datasets[side] = ds
            print(f"{name} {side}: {len(ds)} series of length {ds.length} "
                  f"({len(failures)} failures)")
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
    val_pred = result.val_predictions
    report = evaluate.score_folds(spec.kind, variant, [(
        0, 0, result,
        (train_ds.targets, evaluate.predict(result.model, train_ds), train_w),
        (val_ds.targets, val_pred, val_w))])
    evaluate.write_metrics_csv(_out(cfg, "reports", f"train_{tag}.csv"), report)
    evaluate.write_loss_curves_csv(_out(cfg, "plots", f"loss_{tag}.csv"),
                                   report.fold_reports)
    evaluate.write_predictions_csv(_out(cfg, "plots", f"pred_vs_true_{tag}.csv"),
                                   val_ds.source_ids, val_pred, val_ds.targets)
    fr = report.fold_reports[0]
    print(f"{tag}: epochs {result.epochs_run} "
          f"val r2 {fr.val_metrics['r2']:.4f} "
          f"val rmse {fr.val_metrics['rmse']:.4f}")
    return 0


def cmd_cv(cfg):
    """Cross-validates each (model, variant) cell, writing its report and
    loss curves; a run of more than one cell also writes `matrix.csv`."""
    _write_config_snapshot(cfg)
    tconfig = _train_config(cfg)
    variants = list(VARIANTS) if cfg["variant"] == "all" else [cfg["variant"]]
    kinds = list(KINDS) if cfg["model"] == "all" else [cfg["model"]]
    datasets, weights = {}, {}
    for name in variants:
        datasets[name], weights[name] = _load_side(cfg, name, "train")
    rows, reports = evaluate.run_matrix(datasets, kinds, tconfig, weights)
    for (variant, kind), report in reports.items():
        tag = f"{kind}_{variant}"
        evaluate.write_metrics_csv(_out(cfg, "reports", f"cv_{tag}.csv"), report)
        evaluate.write_loss_curves_csv(_out(cfg, "plots", f"cv_loss_{tag}.csv"),
                                       report.fold_reports)
        mean, std = report.summary["r2"]["validation"]
        print(f"cv {tag}: {len(report.fold_reports)} folds, "
              f"val r2 {mean:.4f} +/- {std:.4f}")
    if len(reports) > 1:
        evaluate.write_matrix_csv(_out(cfg, "reports", "matrix.csv"), rows)
        print(f"matrix: {len(kinds)} models x {len(variants)} variants "
              f"-> {len(rows)} rows")
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
        for flag, key in FLAGS.items():
            p.add_argument(flag, dest=key, help=_FLAG_HELP.get(key))
        if name == "predict":
            p.add_argument("--snapshot", required=True)
            p.add_argument("--input", required=True)
            p.add_argument("--predictions-out", default=None)
    return parser


def _overrides_from_args(args):
    """The config overrides that the flags given set, nested by key."""
    over = {}
    for key in FLAGS.values():
        value = getattr(args, key)
        if value is not None:
            section, _, name = key.rpartition(".")
            (over.setdefault(section, {}) if section else over)[name] = value
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
        return cmd_predict(cfg, args.snapshot, args.input,
                           args.predictions_out)
    except (FehForgeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)     # FileNotFoundError: 2


if __name__ == "__main__":
    sys.exit(main())
