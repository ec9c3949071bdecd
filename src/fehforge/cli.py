"""Batch command-line front end.

    feh-forge <ingest|preprocess|train|cv|gridsearch|predict>
              --config <path> [overrides]

Configuration precedence: command-line flags > config file (YAML) > built-in
defaults (each section's are its dataclass's). Each flag of `FLAGS` sets
one config key, and `load_config` reads its value as it reads the file's
and checks every value before a command writes anything. Every run writes
its effective config snapshot into the output directory, and rerunning
from that snapshot reproduces the outputs. `cv` writes each (model,
variant) cell's report and loss curves, and `matrix.csv` for more than one
cell.

Exit codes: an error exits with its class's `exit_code` (see `errors`):
    0  success
    1  other failure (`FehForgeError` itself: a cross-validation lane died)
    2  missing input file (`MissingInput`, `FileNotFoundError`); also an
       argparse usage error (unknown flag, no `--snapshot`)
    3  malformed input (`MalformedInput`: missing column, parse error,
       empty catalog, a config value or flag that cannot be read or is
       out of range: raised before any output is written)
    4  degenerate data (`DegenerateData`: bad split, too few points,
       diverged loss, ...)
    5  integrity mismatch (`IntegrityError`: snapshot/spec hash, wrong
       container kind, misaligned rows, snapshot state that is not
       exactly its model's, a `predict` input of another variant than the
       snapshot was trained on)
"""
from __future__ import annotations

import argparse
import collections
import copy
import ctypes
import dataclasses
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

# Each config section and the dataclass that holds its defaults and checks
# its values. `seed` is a top-level key that reaches each section with a
# field of that name.
SECTIONS = {"selection": cat.SelectionCriteria, "split": cat.SplitSpec,
            "preprocess": PreprocessConfig,
            "weighting": weighting.WeightingConfig,
            "train": evaluate.TrainConfig, "grid": evaluate.GridSpec}

DEFAULT_CONFIG = {
    "paths": {"catalog": None, "photometry": None, "output_dir": None},
    **{name: {f.name: f.default for f in dataclasses.fields(cls)
              if f.name != "seed"} for name, cls in SECTIONS.items()},
    "variant": "full",
    "model": "gru",
    "seed": evaluate.TrainConfig.seed,
}
# The type of each value that may be null: each whose default is None, and
# the weight cap (null = uncapped).
_NULLABLE_TYPES = {"paths.catalog": str, "paths.photometry": str,
                  "paths.output_dir": str, "weighting.bandwidth": float,
                  "weighting.cap": float}

VARIANTS = {v.value: v for v in Variant}

# Each flag that sets a config value, with its dotted config key; its value
# reaches `load_config` as the string given, to be read as the file's are.
FLAGS = {"--catalog": "paths.catalog", "--photometry": "paths.photometry",
         "--output": "paths.output_dir", "--model": "model",
         "--variant": "variant", "--seed": "seed",
         "--epochs": "train.max_epochs", "--patience": "train.patience",
         "--folds": "train.folds", "--repeats": "train.repeats",
         "--batch-size": "train.batch_size",
         "--learning-rate": "train.learning_rate"}
_FLAG_HELP = {"model": f"one of {', '.join(KINDS)} or 'all'",
              "variant": f"{' | '.join(VARIANTS)} | all"}


def _merge(base, override, name="config"):
    """`base` updated from `override`, each value read as the type of the
    one it replaces (of `_NULLABLE_TYPES` where that is None), and null kept
    for a key of `_NULLABLE_TYPES`; InvalidConfig for a key that `base`
    lacks or a value that cannot be read so."""
    if isinstance(base, dict):
        if not isinstance(override, dict):
            raise InvalidConfig(f"{name} must be a mapping, got {override!r}")
        unknown = [key for key in override if key not in base]
        if unknown:
            raise InvalidConfig(f"unknown config key(s) {unknown} in {name}")
        return {key: _merge(val, override[key], f"{name}.{key}")
                if key in override else copy.deepcopy(val)
                for key, val in base.items()}
    key = name.partition(".")[2]
    if override is None and key in _NULLABLE_TYPES:
        return None
    kind = _NULLABLE_TYPES[key] if base is None else type(base)
    try:        # from its text form, as a flag's value is read: 1.5 is no int
        if isinstance(base, tuple):       # a YAML list
            if not isinstance(override, list):
                raise TypeError
            return tuple(type(base[0])(str(v)) for v in override)
        return kind(str(override))
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"{name}: cannot read {override!r} as "
                            f"{kind.__name__}") from exc


# A run's settings, checked: `values` is the merged config that the snapshot
# records, each section the `SECTIONS` dataclass built from it, and
# `variants` and `kinds` what `variant` and `model` name.
Config = collections.namedtuple("Config",
                                ["values", "variants", "kinds", *SECTIONS])


def load_config(path=None, overrides=None, command=None):
    """DEFAULT_CONFIG < the YAML file at `path` < `overrides`, as a checked
    `Config`. A file that is not YAML, or a key, type, choice or range that
    DEFAULT_CONFIG and the section dataclasses do not allow, raises
    InvalidConfig; `train` and `gridsearch` take one model and variant, not 'all'."""
    values = DEFAULT_CONFIG
    if path:
        if not os.path.exists(path):
            raise MissingInput(f"config file not found: {path}")
        try:
            with open(path) as fh:
                values = _merge(values, yaml.safe_load(fh) or {})
        except yaml.YAMLError as exc:
            raise InvalidConfig(f"{path} is not YAML: {exc}") from exc
    values = _merge(values, overrides or {})
    if not values["paths"]["output_dir"]:
        values["paths"]["output_dir"] = "fehforge_out"
    chosen = {}
    for key, names in (("variant", list(VARIANTS)), ("model", list(KINDS))):
        allowed = names if command in ("train", "gridsearch") else names + ["all"]
        if values[key] not in allowed:
            raise InvalidConfig(f"{command or 'config'}: {key} {values[key]!r} "
                                f"is not one of {', '.join(allowed)}")
        chosen[key] = names if values[key] == "all" else [values[key]]
    sections = {}
    for name, cls in SECTIONS.items():
        shared = {"seed": values["seed"]} if hasattr(cls, "seed") else {}
        sections[name] = cls(**values[name], **shared)
    return Config(values, chosen["variant"], chosen["model"], **sections)


def _out(cfg, *parts):
    return os.path.join(cfg.values["paths"]["output_dir"], *parts)


def _write_config_snapshot(cfg):
    with container.atomic_open(_out(cfg, "config.snapshot.yaml")) as fh:
        yaml.safe_dump(cfg.values, fh, sort_keys=True)


def _require(path, what):
    if not path:
        raise MissingInput(f"no {what} path configured")
    if not os.path.exists(path):
        raise MissingInput(f"{what} not found: {path}")
    return path


# --- commands ---------------------------------------------------------------

def cmd_ingest(cfg):
    catalog_path = _require(cfg.values["paths"]["catalog"], "catalog")
    photometry_path = _require(cfg.values["paths"]["photometry"], "photometry")
    accepted, rejected = cat.apply_selection(cat.load_catalog(catalog_path),
                                             cfg.selection)
    sides = {}
    if accepted:
        split = cat.split_train_validation(
            cat.join_photometry(accepted, photometry_path), cfg.split)
        sides = dict(zip(("train", "validation"), split))
    _write_config_snapshot(cfg)
    cat.write_rejection_report(_out(cfg, "rejections.csv"), rejected)
    print(f"accepted {len(accepted)} rejected {len(rejected)}")
    for side, side_pairs in sides.items():
        container.save_curves(_out(cfg, f"curves_{side}.zip"), side_pairs,
                              meta={"side": side})
    if sides:
        print(f"train {len(sides['train'])} validation {len(sides['validation'])}")
    manifest = {"accepted": len(accepted), "rejected": len(rejected)}
    with container.atomic_open(_out(cfg, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return 0


def _dataset_path(cfg, variant, side, prefix=""):
    """A dataset container's path; with prefix "weights_", its weights'."""
    return _out(cfg, "datasets", f"{prefix}{variant}_{side}.zip")


def cmd_preprocess(cfg):
    sides = {}
    for side in ("train", "validation"):
        path = _out(cfg, f"curves_{side}.zip")
        sides[side], _ = container.load_curves(_require(path, f"curves ({side})"))
    _write_config_snapshot(cfg)

    # the containers also record the value their padded steps hold
    recorded = dict(cfg.values["preprocess"], pad_value=preprocess.PAD_VALUE)
    built = {side: preprocess.build_datasets(
                 pairs, [VARIANTS[name] for name in cfg.variants],
                 cfg.preprocess)
             for side, pairs in sides.items()}
    for side, (_, fits) in built.items():
        if fits:   # one row per star, when a spline variant was built
            container.write_csv(_out(cfg, "datasets", f"spline_fits_{side}.csv"),
                                preprocess.FitRecord._fields, fits)
    for name in cfg.variants:
        variant = VARIANTS[name]
        datasets = {}
        for side, pairs in sides.items():
            ds = built[side][0][variant]
            failures = len(pairs) - len(ds)   # stars whose spline fit failed
            ds.meta = {"preprocess": recorded, "side": side, "failures": failures}
            container.save_dataset(_dataset_path(cfg, name, side), ds)
            datasets[side] = ds
            print(f"{name} {side}: {len(ds)} series of length {ds.length} "
                  f"({failures} failures)")
        density = weighting.fit_density(datasets["train"].targets,
                                        bandwidth=cfg.weighting.bandwidth)
        for side, ds in datasets.items():
            w = weighting.compute_weights(density, ds.targets,
                                          cap=cfg.weighting.cap)
            container.save_weights(_dataset_path(cfg, name, side, "weights_"),
                                   ds.source_ids, w)
    return 0


def _load_side(cfg, variant, side):
    ds = container.load_dataset(
        _require(_dataset_path(cfg, variant, side), f"{variant} {side} dataset"))
    ids, w = container.load_weights(
        _require(_dataset_path(cfg, variant, side, "weights_"),
                 f"{variant} {side} weights"))
    if not np.array_equal(ids, ds.source_ids):
        raise IntegrityError(f"{variant} {side} weights do not follow the "
                             f"dataset's source_ids row for row")
    return ds, w


def cmd_train(cfg):
    (variant,), (kind,) = cfg.variants, cfg.kinds
    train_ds, train_w = _load_side(cfg, variant, "train")
    val_ds, val_w = _load_side(cfg, variant, "validation")
    _write_config_snapshot(cfg)
    result = evaluate.train(
        build_default(kind),
        (train_ds.values, train_ds.mask, train_ds.targets, train_w),
        (val_ds.values, val_ds.mask, val_ds.targets, val_w),
        cfg.train)
    tag = f"{kind}_{variant}"
    container.save_snapshot(_out(cfg, "snapshots", f"{tag}.zip"), result.model,
                            {"variant": variant})
    report = evaluate.score_folds(kind, variant, [(
        0, 0, result, (train_ds.targets, train_w), (val_ds.targets, val_w))])
    evaluate.write_metrics_csv(_out(cfg, "reports", f"train_{tag}.csv"), report)
    evaluate.write_loss_curves_csv(_out(cfg, "plots", f"loss_{tag}.csv"),
                                   report.fold_reports)
    evaluate.write_predictions_csv(_out(cfg, "plots", f"pred_vs_true_{tag}.csv"),
                                   val_ds.source_ids, result.val_predictions,
                                   val_ds.targets)
    fr = report.fold_reports[0]
    print(f"{tag}: epochs {result.epochs_run} "
          f"val r2 {fr.val_metrics['r2']:.4f} "
          f"val rmse {fr.val_metrics['rmse']:.4f}")
    return 0


def cmd_cv(cfg):
    """Cross-validates each (model, variant) cell, writing its report and
    loss curves; a run of more than one cell also writes `matrix.csv`."""
    datasets, weights = {}, {}
    for name in cfg.variants:
        datasets[name], weights[name] = _load_side(cfg, name, "train")
    _write_config_snapshot(cfg)
    reports = evaluate.run_matrix(datasets, cfg.kinds, cfg.train, weights)
    for (variant, kind), report in reports.items():
        tag = f"{kind}_{variant}"
        evaluate.write_metrics_csv(_out(cfg, "reports", f"cv_{tag}.csv"), report)
        evaluate.write_loss_curves_csv(_out(cfg, "plots", f"cv_loss_{tag}.csv"),
                                       report.fold_reports)
        mean, std = report.summary["r2"]["validation"]
        print(f"cv {tag}: {len(report.fold_reports)} folds, "
              f"val r2 {mean:.4f} +/- {std:.4f}")
    if len(reports) > 1:
        evaluate.write_matrix_csv(_out(cfg, "reports", "matrix.csv"), reports)
        print(f"matrix: {len(cfg.kinds)} models x {len(cfg.variants)} variants")
    return 0


def cmd_gridsearch(cfg):
    (variant,), (kind,) = cfg.variants, cfg.kinds
    ds, w = _load_side(cfg, variant, "train")
    _write_config_snapshot(cfg)
    ranked, failed = evaluate.grid_search(build_default(kind), ds, w,
                                          cfg.grid, cfg.train)
    tag = f"{kind}_{variant}"
    evaluate.write_grid_csv(_out(cfg, "reports", f"grid_{tag}.csv"),
                            ranked, failed)
    if ranked:
        best = ranked[0]
        print(f"grid {tag}: best dropout={best.dropout} "
              f"lr={best.learning_rate} batch={best.batch_size} "
              f"val wrmse {best.val_wrmse:.4f} ({len(failed)} failed cells)")
    else:
        print(f"grid {tag}: all {len(failed)} cells failed, see "
              f"reports/grid_{tag}.csv")
    return 0


def cmd_predict(cfg, snapshot_path, input_path, output_path=None):
    model, meta = container.load_snapshot(_require(snapshot_path, "snapshot"))
    ds = container.load_dataset(_require(input_path, "input container"))
    # the variant `train` recorded; a snapshot that records none predicts any
    trained_on = meta.get("variant")
    if trained_on not in (None, ds.variant):
        raise IntegrityError(f"{snapshot_path} was trained on {trained_on}, "
                             f"{input_path} holds {ds.variant}")
    preds = evaluate.predict(model, ds)
    out = output_path or _out(cfg, "reports", "predictions.csv")
    evaluate.write_predictions_csv(out, ds.source_ids, preds, ds.targets)
    print(f"wrote {len(preds)} predictions to {out}")
    return 0


# Each command but `predict`, which takes its own flags as well
COMMANDS = {"ingest": cmd_ingest, "preprocess": cmd_preprocess,
            "train": cmd_train, "cv": cmd_cv, "gridsearch": cmd_gridsearch}


# --- argument parsing -------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="feh-forge",
        description="RRab photometric metallicity regression pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*COMMANDS, "predict"):
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


# glibc's mallopt(3) parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def keep_freed_memory():
    """Tell glibc to keep freed memory in the heap for the life of the
    process: no array below 1 GiB gets its own mmap, and the heap is never
    trimmed. A training batch then reuses the pages that the last one freed
    instead of faulting in fresh zeroed ones. Forked lanes inherit it.
    Setting either threshold turns off glibc's dynamic mmap threshold, so
    the trim threshold is set only once the mmap threshold is. Does
    nothing when the C library is not glibc."""
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version       # only glibc has it
    except (OSError, TypeError, AttributeError):    # TypeError: Windows
        return
    mallopt = libc.mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 1 << 30):
        mallopt(_M_TRIM_THRESHOLD, 2 ** 31 - 1)


def main(argv=None):
    keep_freed_memory()
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides_from_args(args),
                          args.command)
        if args.command == "predict":
            return cmd_predict(cfg, args.snapshot, args.input,
                               args.predictions_out)
        return COMMANDS[args.command](cfg)
    except (FehForgeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)     # FileNotFoundError: 2


if __name__ == "__main__":
    sys.exit(main())
