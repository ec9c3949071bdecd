import csv
import ctypes
import dataclasses
import hashlib
import json
import os
import pickle
import platform
import shutil
import subprocess
import sys
import types
import zipfile
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np
import pytest
import yaml

import fehforge
from fehforge import errors, evaluate, preprocess
from fehforge.catalog import apply_selection, load_catalog
from fehforge.cli import DEFAULT_CONFIG, keep_freed_memory, load_config, main
from fehforge.container import (load_curves, load_dataset, load_weights,
                                read_container, save_curves, save_snapshot,
                                save_weights, write_container)
from fehforge.synthetic import make_corpus, write_corpus_files
from fehforge.zoo import build, build_default
from tests.test_container import CURVE_TAMPERS, as_dtype, write_tampered_curves


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    pairs, _ = make_corpus(60, seed=8)
    catalog, photometry = write_corpus_files(d, pairs)
    return str(catalog), str(photometry)


@pytest.fixture(scope="module")
def workspace(corpus, tmp_path_factory):
    """Output dir with ingest + preprocess already run."""
    catalog, photometry = corpus
    out = str(tmp_path_factory.mktemp("work"))
    assert main(["ingest", "--catalog", catalog, "--photometry", photometry,
                 "--output", out, "--seed", "1"]) == 0
    assert main(["preprocess", "--output", out, "--variant", "full"]) == 0
    return out


def test_config_precedence(tmp_path):
    cfg_file = tmp_path / "c.yaml"
    cfg_file.write_text(yaml.safe_dump(
        {"model": "fcn", "train": {"folds": 7}}))
    cfg = load_config(str(cfg_file), {"model": "lstm"})
    assert cfg.values["model"] == "lstm"              # flag beats file
    assert cfg.values["train"]["folds"] == 7          # file beats default
    assert cfg.values["train"]["patience"] == 20      # default survives


def test_config_defaults_complete():
    cfg = load_config()
    for key in ("paths", "selection", "split", "preprocess", "weighting",
                "variant", "model", "train", "grid", "seed"):
        assert key in cfg.values
    assert cfg.values["paths"]["output_dir"]


def test_output_dir_ignores_the_environment(monkeypatch):
    # `--output`, `paths.output_dir` or the literal default; null is the
    # default, and no environment variable sets it
    monkeypatch.setenv("FEH_FORGE_OUT", "elsewhere")
    assert load_config().values["paths"]["output_dir"] == "fehforge_out"
    cfg = load_config(None, {"paths": {"output_dir": None}})
    assert cfg.values["paths"]["output_dir"] == "fehforge_out"


def test_default_snapshot_unchanged():
    # DEFAULT_CONFIG is built from the section dataclasses; the snapshot of
    # the defaults is pinned so that no default moves unnoticed
    cfg = load_config(None, {"paths": {"output_dir": "X"}})
    assert cfg.values == dict(DEFAULT_CONFIG, paths=dict(
        DEFAULT_CONFIG["paths"], output_dir="X"))
    text = yaml.safe_dump(cfg.values, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "260daf1a57fcae1114c692db5c702f00fef83ca827f559ee7bcf0089bfda77e0")


def test_ingest_outputs(workspace):
    assert os.path.exists(os.path.join(workspace, "config.snapshot.yaml"))
    assert os.path.exists(os.path.join(workspace, "rejections.csv"))
    train_pairs, _ = load_curves(os.path.join(workspace, "curves_train.zip"))
    val_pairs, _ = load_curves(os.path.join(workspace, "curves_validation.zip"))
    assert len(train_pairs) > len(val_pairs) > 0
    train_ids = {r.source_id for r, _ in train_pairs}
    val_ids = {r.source_id for r, _ in val_pairs}
    assert train_ids.isdisjoint(val_ids)


def test_preprocess_outputs(workspace):
    ds = load_dataset(os.path.join(workspace, "datasets", "full_train.zip"))
    assert ds.values.shape[1:] == (100, 2)
    ids, w = load_weights(os.path.join(workspace, "datasets",
                                       "weights_full_train.zip"))
    assert len(ids) == len(ds)
    assert w.mean() == pytest.approx(1.0, abs=1e-9)


def test_preprocess_writes_spline_fits(workspace, tmp_path, monkeypatch):
    # one row per star of each side, in input order, with the lambda and the
    # residual that build_datasets computed; a failed fit leaves both empty
    # and records its message, and the dataset meta counts it
    for side in ("train", "validation"):
        pairs, _ = load_curves(os.path.join(workspace, f"curves_{side}.zip"))
        _, fits = preprocess.build_datasets(pairs, [preprocess.Variant.FULL])
        with open(os.path.join(workspace, "datasets",
                               f"spline_fits_{side}.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["source_id"]) for r in rows] == [r.source_id for r, _ in pairs]
        assert [(float(r["lam"]), float(r["residual_rms"]), r["error"])
                for r in rows] == [(f.lam, f.residual_rms, "") for f in fits]

    work = str(tmp_path / "work")
    shutil.copytree(workspace, work)
    shutil.rmtree(os.path.join(work, "datasets"))
    assert main(["preprocess", "--output", work, "--variant", "raw_padded"]) == 0
    assert sorted(os.listdir(os.path.join(work, "datasets"))) == [
        "raw_padded_train.zip", "raw_padded_validation.zip",
        "weights_raw_padded_train.zip", "weights_raw_padded_validation.zip"]

    pairs, _ = load_curves(os.path.join(work, "curves_train.zip"))
    broken = pairs[1][0].source_id
    fit = preprocess.fit_smoothing_spline

    def failing_fit(curve, config):
        if curve.source_id == broken:
            raise errors.SingularFit(f"curve {broken}: made to fail")
        return fit(curve, config)

    monkeypatch.setattr(preprocess, "fit_smoothing_spline", failing_fit)
    assert main(["preprocess", "--output", work, "--variant", "full"]) == 0
    with open(os.path.join(work, "datasets", "spline_fits_train.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[1] == {"source_id": str(broken), "lam": "", "residual_rms": "",
                       "error": f"curve {broken}: made to fail"}
    assert all(r["error"] == "" for i, r in enumerate(rows) if i != 1)
    ds = load_dataset(os.path.join(work, "datasets", "full_train.zip"))
    assert ds.meta["failures"] == 1 and broken not in ds.source_ids


def test_preprocess_rerun_byte_identical(workspace):
    path = os.path.join(workspace, "datasets", "full_train.zip")
    before = Path(path).read_bytes()
    assert main(["preprocess", "--output", workspace, "--variant", "full"]) == 0
    assert Path(path).read_bytes() == before


def test_train_and_predict_flow(workspace, tmp_path):
    assert main(["train", "--output", workspace, "--model", "gru",
                 "--variant", "full", "--epochs", "4", "--patience", "2",
                 "--batch-size", "16"]) == 0
    snap = os.path.join(workspace, "snapshots", "gru_full.zip")
    assert os.path.exists(snap)
    assert os.path.exists(os.path.join(workspace, "reports", "train_gru_full.csv"))
    preds_out = str(tmp_path / "preds.csv")
    assert main(["predict", "--output", workspace, "--snapshot", snap,
                 "--input", os.path.join(workspace, "datasets",
                                         "full_validation.zip"),
                 "--predictions-out", preds_out]) == 0
    with open(preds_out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(np.isfinite(float(r["predicted_feh"])) for r in rows)


def test_predictions_do_not_depend_on_padding_length(workspace, tmp_path):
    # the raw_padded validation container, and a copy of it with 17 more
    # padded steps on every row: each snapshot predicts the same bytes
    work = str(tmp_path / "work")
    shutil.copytree(workspace, work)
    assert main(["preprocess", "--output", work, "--variant", "raw_padded"]) == 0
    short = os.path.join(work, "datasets", "raw_padded_validation.zip")
    manifest, arrays = read_container(short, "dataset")
    arrays["values"] = np.pad(arrays["values"], ((0, 0), (0, 17), (0, 0)),
                              constant_values=preprocess.PAD_VALUE)
    arrays["mask"] = np.pad(arrays["mask"], ((0, 0), (0, 17)))
    long = str(tmp_path / "long.zip")
    write_container(long, "dataset", arrays, manifest)
    for kind in ("fcn", "convgru", "inception"):
        snap = str(tmp_path / f"{kind}.zip")
        model = build(build_default(kind), (manifest["length"], 2), seed=0)
        for _, leaf, key in model.named_params():      # biases and shifts off 0
            leaf.params[key] += 0.1
        save_snapshot(snap, model)
        preds = []
        for name, path in (("short", short), ("long", long)):
            out = str(tmp_path / f"{kind}_{name}.csv")
            assert main(["predict", "--output", work, "--snapshot", snap,
                         "--input", path, "--predictions-out", out]) == 0
            preds.append(Path(out).read_bytes())
        assert preds[0] == preds[1], kind


def test_cv_writes_report(workspace):
    assert main(["cv", "--output", workspace, "--model", "fcn",
                 "--variant", "full", "--epochs", "2", "--patience", "1",
                 "--folds", "3", "--repeats", "1", "--batch-size", "16"]) == 0
    report = os.path.join(workspace, "reports", "cv_fcn_full.csv")
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10                     # 5 metrics x 2 phases
    assert {r["metric"] for r in rows} == {"r2", "rmse", "mae", "wrmse", "wmae"}


def test_cv_matrix_writes_each_cell(workspace, tmp_path):
    # a two-cell run writes matrix.csv plus each cell's report and loss
    # curves, byte for byte those of a one-cell run, which has no matrix.csv
    work, one = str(tmp_path / "work"), str(tmp_path / "one")
    shutil.copytree(workspace, work)
    assert main(["preprocess", "--output", work, "--variant", "all"]) == 0
    shutil.copytree(work, one)
    args = ["--model", "gru", "--epochs", "2", "--folds", "2", "--repeats", "1",
            "--batch-size", "16"]
    assert main(["cv", "--output", work, "--variant", "all", *args]) == 0
    assert main(["cv", "--output", one, "--variant", "raw_padded", *args]) == 0
    assert not os.path.exists(os.path.join(one, "reports", "matrix.csv"))
    for name in ("reports/cv_gru_raw_padded.csv", "plots/cv_loss_gru_raw_padded.csv"):
        with open(os.path.join(work, name), "rb") as a, \
                open(os.path.join(one, name), "rb") as b:
            assert a.read() == b.read()
    # matrix.csv holds each cell's cv_*.csv rows, in variant order, with
    # the variant and model columns swapped
    with open(os.path.join(work, "reports", "matrix.csv")) as fh:
        header, *matrix = csv.reader(fh)
    assert header == ["variant", "model", "metric", "phase", "mean", "std"]
    assert len(matrix) == 3 * 10                # 3 variants x 5 metrics x 2 phases
    cells = []
    for variant in ("full", "raw_padded", "spline_no_mean"):
        with open(os.path.join(work, "reports", f"cv_gru_{variant}.csv")) as fh:
            cells += [[v, m, *rest] for m, v, *rest in list(csv.reader(fh))[1:]]
        assert os.path.exists(os.path.join(work, "plots",
                                           f"cv_loss_gru_{variant}.csv"))
    assert matrix == cells


def test_gridsearch_says_when_every_cell_failed(workspace, tmp_path, capsys,
                                                monkeypatch, lanes):
    def diverge(*args, **kwargs):
        raise errors.DivergedLoss(0, float("nan"))

    lanes(1)
    monkeypatch.setattr(evaluate, "train", diverge)
    config = tmp_path / "grid.yaml"
    config.write_text(yaml.safe_dump({"grid": {
        "dropout_rates": [0.1, 0.2], "learning_rates": [0.01],
        "batch_sizes": [16]}}))
    work = str(tmp_path / "work")
    shutil.copytree(workspace, work)
    assert main(["gridsearch", "--config", str(config), "--output", work,
                 "--model", "gru", "--variant", "full"]) == 0
    assert capsys.readouterr().out == (
        "grid gru_full: all 2 cells failed, see reports/grid_gru_full.csv\n")
    with open(os.path.join(work, "reports", "grid_gru_full.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["error"] for r in rows] == [
        "DivergedLoss: non-finite loss nan at epoch 0"] * 2


def test_loss_curve_csvs_hold_numbers(workspace, tmp_path):
    # every cell of a cv and a train loss-curve CSV parses as a number, and
    # no CSV that cv, train or predict writes holds a numpy scalar's repr
    # (such as np.float32(...)) where a plain number belongs
    work = str(tmp_path / "work")
    shutil.copytree(workspace, work)
    args = ["--output", work, "--model", "gru", "--variant", "full",
            "--epochs", "2", "--batch-size", "16"]
    assert main(["cv", *args, "--folds", "2", "--repeats", "1"]) == 0
    assert main(["train", *args]) == 0
    assert main(["predict", "--output", work, "--snapshot",
                 os.path.join(work, "snapshots", "gru_full.zip"), "--input",
                 os.path.join(work, "datasets", "full_validation.zip")]) == 0
    for name in ("cv_loss_gru_full.csv", "loss_gru_full.csv"):
        with open(os.path.join(work, "plots", name)) as fh:
            header, *rows = csv.reader(fh)
        assert header[-2:] == ["train_loss", "val_loss"] and rows
        for row in rows:
            assert all(np.isfinite(float(cell)) for cell in row)
    written = {f"{d}/{f}" for d in ("reports", "plots")
               for f in os.listdir(os.path.join(work, d))}
    assert written >= {"reports/cv_gru_full.csv", "reports/train_gru_full.csv",
                       "reports/predictions.csv", "plots/cv_loss_gru_full.csv",
                       "plots/loss_gru_full.csv", "plots/pred_vs_true_gru_full.csv"}
    for path in (os.path.join(work, name) for name in written):
        with open(path) as fh:
            header, *rows = csv.reader(fh)
        numbers = [cell for row in rows for col, cell in zip(header, row)
                   if col not in ("model", "variant", "metric", "phase")]
        assert numbers and all(np.isfinite(float(cell)) for cell in numbers
                               if cell), path


def test_exit_code_missing_input(tmp_path):
    assert main(["preprocess", "--output", str(tmp_path / "empty")]) == 2
    assert main(["ingest", "--catalog", str(tmp_path / "no.csv"),
                 "--photometry", str(tmp_path / "no2.csv"),
                 "--output", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["preprocess", "train", "cv", "gridsearch"])
def test_missing_input_writes_nothing(tmp_path, capsys, command):
    # the inputs are loaded before the config snapshot is written
    out = tmp_path / "out"
    assert main([command, "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_exit_code_malformed_catalog(tmp_path, corpus):
    _, photometry = corpus
    bad = tmp_path / "bad.csv"
    bad.write_text("just,some,columns\n1,2,3\n")
    assert main(["ingest", "--catalog", str(bad), "--photometry", photometry,
                 "--output", str(tmp_path)]) == 3


def _drop_rows_of_one_star(catalog, photometry):
    sid = apply_selection(load_catalog(catalog))[0][0].source_id
    return "".join(line for line in Path(photometry).read_text().splitlines(True)
                   if not line.startswith(f"{sid},"))


def _bad_magnitude(catalog, photometry):
    lines = Path(photometry).read_text().splitlines(True)
    lines[1] = lines[1].rsplit(",", 1)[0] + ",x\n"
    return "".join(lines)


@pytest.mark.parametrize("which, edit, code", [
    ("catalog", lambda catalog, photometry: "just,some,columns\n1,2,3\n", 3),
    ("photometry", _bad_magnitude, 3),
    ("photometry", _drop_rows_of_one_star, 4),
], ids=["malformed_catalog", "malformed_photometry", "orphan_star"])
def test_ingest_bad_input_writes_nothing(corpus, tmp_path, which, edit, code):
    # ingest loads, cuts, joins and splits its inputs before it writes
    paths = dict(zip(("catalog", "photometry"), corpus))
    bad = tmp_path / f"{which}.csv"
    bad.write_text(edit(*corpus))
    paths[which] = str(bad)
    out = tmp_path / "out"
    assert main(["ingest", "--catalog", paths["catalog"], "--photometry",
                 paths["photometry"], "--output", str(out)]) == code
    assert not out.exists()


def test_exit_code_integrity(workspace, tmp_path):
    # a weights container is not a dataset: predict refuses it
    snap = tmp_path / "snap.zip"
    save_snapshot(snap, build(build_default("gru"), (100, 2), seed=0))
    weights = os.path.join(workspace, "datasets", "weights_full_train.zip")
    assert main(["predict", "--output", str(tmp_path), "--snapshot", str(snap),
                 "--input", weights]) == 5


@pytest.mark.parametrize("case", sorted(CURVE_TAMPERS))
def test_preprocess_exit_code_curves_values(tmp_path, capsys, case):
    # hand-made training curves holding a value that ingest never writes
    out = str(tmp_path)
    write_tampered_curves(os.path.join(out, "curves_train.zip"),
                          make_corpus(4, seed=2)[0], CURVE_TAMPERS[case][0])
    save_curves(os.path.join(out, "curves_validation.zip"),
                make_corpus(4, seed=3)[0])
    assert main(["preprocess", "--output", out, "--variant", "all"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "datasets"))


def test_predict_refuses_a_container_of_another_variant(workspace, tmp_path,
                                                         capsys):
    # `train` records the variant in the snapshot; predict exits 5 on an
    # input container of another variant and writes no predictions
    val = os.path.join(workspace, "datasets", "full_validation.zip")
    model = build(build_default("gru"), (100, 2), seed=0)
    for variant, code in (("raw_padded", 5), ("full", 0)):
        snap, out = tmp_path / f"{variant}.zip", tmp_path / f"{variant}.csv"
        save_snapshot(snap, model, {"variant": variant})
        assert main(["predict", "--output", str(tmp_path), "--snapshot", str(snap),
                     "--input", val, "--predictions-out", str(out)]) == code
        assert out.exists() == (code == 0)
    assert "trained on raw_padded" in capsys.readouterr().err


def test_predict_refuses_a_snapshot_in_the_older_format(workspace, tmp_path,
                                                        capsys):
    # a snapshot in the older format, whose manifest is meta.json and lists
    # the state names, with no manifest.json: predict exits 5 and writes no
    # predictions
    val = os.path.join(workspace, "datasets", "full_validation.zip")
    snap, older = tmp_path / "snap.zip", tmp_path / "older.zip"
    save_snapshot(snap, build(build_default("gru"), (100, 2), seed=0))
    with zipfile.ZipFile(snap) as zf, zipfile.ZipFile(older, "w") as out:
        names = [name for name in zf.namelist() if name != "manifest.json"]
        meta = json.loads(zf.read("manifest.json"))
        meta["state_names"] = [name[len("state/"):-4] for name in names]
        out.writestr("meta.json", json.dumps(meta))
        for name in names:
            out.writestr(name, zf.read(name))
    for path, code in ((snap, 0), (older, 5)):
        preds = tmp_path / f"{path.stem}.csv"
        assert main(["predict", "--output", str(tmp_path), "--snapshot",
                     str(path), "--input", val,
                     "--predictions-out", str(preds)]) == code
        assert preds.exists() == (code == 0)
    assert "not a sound snapshot container" in capsys.readouterr().err


def test_predict_refuses_a_bidirectional_snapshot_with_older_names(
        workspace, tmp_path, capsys):
    # an older version named the directions of a bidirectional layer `fwd`
    # and `bwd`; they are now its `Concat` branches 0 and 1, so predict
    # exits 5 on the older names and writes no predictions
    val = os.path.join(workspace, "datasets", "full_validation.zip")
    snap, older = tmp_path / "snap.zip", tmp_path / "older.zip"
    save_snapshot(snap, build(build_default("bigru"), (100, 2), seed=0))
    meta, state = read_container(snap, "snapshot")
    renamed = {name.replace("/0.", "/fwd.").replace("/1.", "/bwd."): arr
               for name, arr in state.items()}
    assert {"state/0/fwd.W", "state/4/bwd.U"} <= renamed.keys()
    write_container(older, "snapshot", renamed, meta)
    for path, code in ((snap, 0), (older, 5)):
        preds = tmp_path / f"{path.stem}.csv"
        assert main(["predict", "--output", str(tmp_path), "--snapshot",
                     str(path), "--input", val,
                     "--predictions-out", str(preds)]) == code
        assert preds.exists() == (code == 0)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "0/fwd.W" in err


def test_exit_code_snapshot_not_a_zip(workspace, tmp_path):
    snap = tmp_path / "snapshot.zip"
    snap.write_text("this is not a zip archive\n")
    assert main(["predict", "--output", workspace, "--snapshot", str(snap),
                 "--input", os.path.join(workspace, "datasets",
                                         "full_validation.zip")]) == 5


def _drop_state(ds, meta, state):
    del state[min(state)]


def _reshape_state(shape):
    def tamper(ds, meta, state):
        state[min(state)] = np.zeros(shape)
    return tamper


def _extra_state(ds, meta, state):
    state["state/extra.W"] = np.zeros(3)


def _state_as_dtype(dtype):
    # every member, but only one of the float64 snapshot for float32
    def tamper(ds, meta, state):
        for name in [min(state)] if dtype is np.float32 else list(state):
            state[name] = state[name].astype(dtype)
    return tamper


@pytest.mark.parametrize("tamper", [
    lambda ds, meta, state: ds.pop("mask"),
    lambda ds, meta, state: ds.update(source_ids=ds["source_ids"][:-1]),
    lambda ds, meta, state: meta.update(
        spec=meta["spec"].replace('"format_version": 1', '"format_version": 99')),
    lambda ds, meta, state: meta.update(spec="{not json"),
    lambda ds, meta, state: meta.pop("spec"),
    lambda ds, meta, state: meta.pop("input_shape"),
    _drop_state, _extra_state,
    _reshape_state((3, 3, 3, 3)),
    _reshape_state((1,)),
    lambda ds, meta, state: as_dtype("source_ids", np.float64)(ds),
    lambda ds, meta, state: as_dtype("mask", np.int64)(ds),
    _state_as_dtype(np.int64), _state_as_dtype(np.float32), _state_as_dtype(str),
    lambda ds, meta, state: meta.update(meta=["full"]),
], ids=["no_mask", "short_source_ids", "spec_format_99", "spec_not_json",
        "no_spec", "no_input_shape", "state_dropped", "state_extra",
        "state_wrong_shape",
        "state_broadcastable_shape", "float_source_ids", "int_mask",
        "int_state", "float32_state", "string_state", "meta_not_a_mapping"])
def test_exit_code_predict_broken_input(workspace, tmp_path, capsys, tamper):
    # `tamper` breaks the dataset's arrays, or the snapshot's manifest or
    # state arrays
    ds = load_dataset(os.path.join(workspace, "datasets", "full_validation.zip"))
    arrays = {name: getattr(ds, name)
              for name in ("source_ids", "values", "mask", "targets")}
    snap = tmp_path / "snap.zip"
    save_snapshot(snap, build(build_default("fcn"), (ds.length, 2), seed=0,
                              dtype=np.float64))
    meta, state = read_container(snap, "snapshot")
    tamper(arrays, meta, state)
    broken = tmp_path / "broken.zip"
    write_container(broken, "dataset", arrays, {"variant": ds.variant})
    write_container(snap, "snapshot", state, meta)
    out = tmp_path / "pred.csv"
    assert main(["predict", "--output", str(tmp_path), "--snapshot", str(snap),
                 "--input", str(broken), "--predictions-out", str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.FehForgeError)
                 and cls.__module__ == errors.__name__]
# constructor arguments of the classes that take more than a message
ERROR_ARGS = {"MissingColumn": ("feh", "catalog.csv"),
              "ParseError": (7, "mag", "1.2.3", "photometry.csv"),
              "OrphanStar": ([11, 12],), "DuplicateEpoch": (11, 2.5),
              "DivergedLoss": (3, float("inf"))}


def test_every_error_class_exits_with_its_family_code():
    classes = [cls for cls in ERROR_CLASSES if cls is not errors.FehForgeError]
    assert len(classes) > 20
    for cls in classes:
        assert cls.exit_code in {2, 3, 4, 5}, cls.__name__
    assert errors.NonFinitePhase.exit_code == 4
    assert errors.ShapeMismatch.exit_code == 3
    assert errors.InvalidRate.exit_code == 3
    assert errors.FehForgeError.exit_code == 1


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_pickles(cls):
    # a fold lane sends its error to the caller pickled, through
    # multiprocessing's ForkingPickler
    exc = cls(*ERROR_ARGS.get(cls.__name__, ("some message",)))
    for back in (pickle.loads(pickle.dumps(exc)),
                 ForkingPickler.loads(ForkingPickler.dumps(exc))):
        assert type(back) is cls
        assert str(back) == str(exc) and back.args == exc.args
        assert vars(back) == vars(exc)
        assert back.exit_code == exc.exit_code


def _cv_exit_code(workspace, tmp_path, tamper):
    """Exit code of a one-epoch GRU cv on a copy of the workspace whose
    full training weights `tamper(path)` has rewritten."""
    work = str(tmp_path / "work")
    shutil.copytree(workspace, work)
    tamper(os.path.join(work, "datasets", "weights_full_train.zip"))
    return main(["cv", "--output", work, "--model", "gru", "--variant", "full",
                 "--epochs", "1", "--folds", "2", "--repeats", "1"])


def test_exit_code_weights_wrong_kind(workspace, tmp_path):
    dataset = os.path.join(workspace, "datasets", "full_train.zip")
    assert _cv_exit_code(workspace, tmp_path,
                         lambda path: shutil.copyfile(dataset, path)) == 5


@pytest.mark.parametrize("misalign", [lambda ids: ids[::-1],
                                      lambda ids: ids + 1,
                                      lambda ids: ids[1:]],
                         ids=["reversed", "shifted", "short"])
def test_exit_code_weights_misaligned(workspace, tmp_path, misalign):
    def tamper(path):
        ids, w = load_weights(path)
        ids = misalign(ids)
        save_weights(path, ids, w[:len(ids)])
    assert _cv_exit_code(workspace, tmp_path, tamper) == 5


def test_exit_code_weights_float_source_ids(workspace, tmp_path):
    def tamper(path):
        ids, w = load_weights(path)
        write_container(path, "weights", {"source_ids": ids.astype(np.float64),
                                          "weights": w})
    assert _cv_exit_code(workspace, tmp_path, tamper) == 5


def test_exit_code_weights_one_row_short(workspace, tmp_path):
    # the ids still match the dataset's, but a weight is missing
    def tamper(path):
        ids, w = load_weights(path)
        save_weights(path, ids, w[:-1])
    assert _cv_exit_code(workspace, tmp_path, tamper) == 5


def test_preprocess_all_fits_each_spline_once(corpus, tmp_path, monkeypatch):
    catalog, photometry = corpus
    out = str(tmp_path)
    config = tmp_path / "fixed.yaml"
    config.write_text(yaml.safe_dump({"preprocess": {"lambda_strategy": "fixed"}}))
    assert main(["ingest", "--catalog", catalog, "--photometry", photometry,
                 "--output", out, "--seed", "1"]) == 0
    fitted = []
    fit = preprocess.fit_smoothing_spline

    def counting_fit(curve, config):
        fitted.append(curve.source_id)
        return fit(curve, config)

    monkeypatch.setattr(preprocess, "fit_smoothing_spline", counting_fit)
    assert main(["preprocess", "--output", out, "--variant", "all",
                 "--config", str(config)]) == 0
    stars = [r.source_id for side in ("train", "validation")
             for r, _ in load_curves(os.path.join(out, f"curves_{side}.zip"))[0]]
    assert sorted(fitted) == sorted(stars)

    # FULL derived from SPLINE_NO_MEAN is byte for byte FULL fitted directly
    derived = {side: Path(out, "datasets", f"full_{side}.zip").read_bytes()
               for side in ("train", "validation")}
    assert main(["preprocess", "--output", out, "--variant", "full",
                 "--config", str(config)]) == 0
    for side, data in derived.items():
        with open(os.path.join(out, "datasets", f"full_{side}.zip"), "rb") as fh:
            assert fh.read() == data


def test_unknown_model_rejected(workspace):
    assert main(["cv", "--output", workspace, "--model", "perceptron",
                 "--variant", "full"]) == 3


@pytest.mark.parametrize("command, section", [
    ("preprocess", {"preprocess": {"lam": -1.0}}),
    ("train", {"train": {"batch_size": 0}}),
    ("preprocess", {"variant": "bogus"}),
    ("ingest", {"selection": {"max_feh_sgma": 0.3}}),
    ("ingest", {"split": {"train_fraction": "abc"}}),
    ("train", {"train": {"batch_size": "x"}}),
    ("preprocess", ["not", "a", "mapping"]),
    ("cv", {"model": "nosuch"}),
    ("preprocess", {"weighting": {"bandwidth": "abc"}}),
    ("cv", {"threads": -1}),
    ("cv", {"train": {"repeats": 0}}),
    ("train", {"train": {"max_epochs": 0}}),
    ("train", {"train": {"learning_rate": -1.0}}),
    ("train", {"train": {"learning_rate": float("nan")}}),
    ("train", {"train": {"patience": -5}}),
    ("preprocess", {"weighting": {"cap": 0.0}}),
    ("preprocess", {"preprocess": {"pad_value": -1.0}}),
    ("cv", {"seed": 1.5}),
    ("train", {"train": {"max_epochs": 2.7}}),
    ("cv", {"threads": True}),
    ("gridsearch", {"grid": {"batch_sizes": [32.9]}}),
    ("preprocess", {"preprocess": {"lam": True}}),
    ("gridsearch", {"grid": {"batch_sizes": 32}}),
    ("gridsearch", {"grid": {"dropout_rates": [1.0]}}),
    ("ingest", {"split": {"train_fraction": 1.0}}),
    ("ingest", {"selection": {"min_epochs": -1}}),
    ("cv", {"threads": 0}),
], ids=["negative_lam", "zero_batch_size", "unknown_variant", "unknown_key",
        "train_fraction_not_a_number", "batch_size_not_a_number",
        "top_level_list", "unknown_model", "bandwidth_not_a_number",
        "negative_threads", "zero_repeats", "zero_max_epochs",
        "negative_learning_rate", "nan_learning_rate", "negative_patience",
        "zero_cap", "removed_pad_value", "float_seed", "float_max_epochs",
        "bool_threads", "float_grid_batch_size", "bool_lam", "grid_list_not_a_list",
        "grid_dropout_one", "train_fraction_one", "negative_selection_cut",
        "removed_threads"])
def test_exit_code_invalid_config(workspace, tmp_path, capsys, command, section):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(section))
    work = str(tmp_path / "work")
    shutil.copytree(workspace, work)
    assert main([command, "--config", str(config), "--output", work]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_exit_code_config_not_yaml(workspace, tmp_path, capsys):
    config = tmp_path / "bad.yaml"
    config.write_text("train: [\n")
    work = str(tmp_path / "work")
    shutil.copytree(workspace, work)
    before = sorted(os.walk(work))
    assert main(["cv", "--config", str(config), "--output", work]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config} is not YAML") and "Traceback" not in err
    assert sorted(os.walk(work)) == before


def test_preprocess_checks_weighting_before_writing(corpus, tmp_path):
    catalog, photometry = corpus
    out = str(tmp_path / "out")
    assert main(["ingest", "--catalog", catalog, "--photometry", photometry,
                 "--output", out, "--seed", "1"]) == 0
    config = tmp_path / "cap.yaml"
    config.write_text(yaml.safe_dump({"weighting": {"cap": 0}}))
    assert main(["preprocess", "--output", out, "--variant", "all",
                 "--config", str(config)]) == 3
    assert not os.path.exists(os.path.join(out, "datasets"))


def test_weighting_cap_null_is_uncapped(workspace, tmp_path):
    # null reaches WeightingConfig as None, and the config snapshot keeps it
    work = str(tmp_path / "work")
    shutil.copytree(workspace, work)
    config = tmp_path / "uncapped.yaml"
    config.write_text("weighting: {cap: null}\n")
    assert load_config(str(config)).weighting.cap is None
    assert main(["preprocess", "--output", work, "--variant", "full",
                 "--config", str(config)]) == 0
    snapshot = os.path.join(work, "config.snapshot.yaml")
    assert yaml.safe_load(Path(snapshot).read_text())["weighting"]["cap"] is None
    assert load_config(snapshot).weighting.cap is None


@pytest.mark.parametrize("command, flags, section", [
    ("train", ["--variant", "all"], {}),
    ("train", ["--model", "all"], {}),
    ("gridsearch", ["--variant", "all"], {}),
    ("gridsearch", ["--model", "all"], {}),
    ("preprocess", [], {"preprocess": {"lam": -1.0}}),
    ("train", [], {"train": {"batch_size": 0}}),
    ("preprocess", [], {"weighting": {"cap": 0}}),
    ("cv", [], {"threads": -1}),
    ("gridsearch", [], {"grid": {"learning_rates": [0.0]}}),
], ids=["train_all_variants", "train_all_models", "gridsearch_all_variants",
        "gridsearch_all_models", "negative_lam", "zero_batch_size", "zero_cap",
        "negative_threads", "grid_zero_learning_rate"])
def test_invalid_config_writes_nothing(tmp_path, capsys, command, flags,
                                       section):
    # a config error is raised before the command creates its output
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(section))
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--output", str(out),
                 *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_cv_rerun_from_snapshot_byte_identical(workspace, tmp_path):
    work = str(tmp_path / "work")
    shutil.copytree(workspace, work)
    assert main(["cv", "--output", work, "--model", "gru", "--variant", "full",
                 "--epochs", "2", "--folds", "2", "--repeats", "1",
                 "--batch-size", "16", "--seed", "3"]) == 0
    outputs = [os.path.join(work, "reports", "cv_gru_full.csv"),
               os.path.join(work, "plots", "cv_loss_gru_full.csv")]
    before = [Path(path).read_bytes() for path in outputs]
    for path in outputs:
        os.remove(path)
    snapshot = os.path.join(work, "config.snapshot.yaml")
    shutil.copyfile(snapshot, tmp_path / "snapshot.yaml")
    assert main(["cv", "--config", str(tmp_path / "snapshot.yaml")]) == 0
    assert [Path(path).read_bytes() for path in outputs] == before


@pytest.mark.parametrize("flags", [
    ["--epochs", "abc"], ["--learning-rate", "x"], ["--seed", "1.5"],
    ["--repeats", "0"], ["--learning-rate", "inf"],
], ids=["epochs_abc", "learning_rate_x", "seed_1.5", "repeats_0",
        "learning_rate_inf"])
def test_exit_code_invalid_flag(tmp_path, capsys, flags):
    # flag values are read by load_config, as the same values in YAML are
    out = str(tmp_path / "out")
    assert main(["cv", "--output", out, *flags]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["cv", "--bogus", "1"], ["predict", "--input", "x.zip"], ["train", "--epochs"],
    ["cv", "--threads", "1"],
], ids=["unknown_flag", "no_snapshot", "flag_without_value",
        "removed_threads"])
def test_usage_error_exits_2(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_adjacent_gaia_ids_stay_two_stars(tmp_path):
    """Two real Gaia DR3 ids one apart that a double cannot tell apart keep
    their exact values through ingest, the curve containers and predict."""
    gaia = (5937126236232323456, 5937126236232323457)
    pairs, _ = make_corpus(60, seed=8)
    accepted, _ = apply_selection([rec for rec, _ in pairs])
    chosen = {accepted[0].source_id: gaia[0], accepted[1].source_id: gaia[1]}
    pairs = [(dataclasses.replace(rec, source_id=chosen.get(rec.source_id,
                                                            rec.source_id)), lc)
             for rec, lc in pairs]
    catalog, photometry = write_corpus_files(tmp_path / "in", pairs)
    out = str(tmp_path / "out")
    config = tmp_path / "fixed.yaml"
    config.write_text(yaml.safe_dump({"preprocess": {"lambda_strategy": "fixed"}}))
    assert main(["ingest", "--catalog", str(catalog), "--photometry",
                 str(photometry), "--output", out, "--seed", "1"]) == 0
    ingested = {r.source_id: len(lc) for side in ("train", "validation")
                for r, lc in load_curves(os.path.join(out, f"curves_{side}.zip"))[0]}
    by_id = {rec.source_id: len(lc) for rec, lc in pairs}
    assert {sid: ingested[sid] for sid in gaia} == {sid: by_id[sid] for sid in gaia}
    assert main(["preprocess", "--output", out, "--variant", "full",
                 "--config", str(config)]) == 0
    assert main(["train", "--output", out, "--model", "gru", "--variant", "full",
                 "--epochs", "1", "--batch-size", "16"]) == 0
    predicted = set()
    for side in ("train", "validation"):
        preds = str(tmp_path / f"preds_{side}.csv")
        assert main(["predict", "--output", out,
                     "--snapshot", os.path.join(out, "snapshots", "gru_full.zip"),
                     "--input", os.path.join(out, "datasets", f"full_{side}.zip"),
                     "--predictions-out", preds]) == 0
        with open(preds) as fh:
            predicted |= {int(r["source_id"]) for r in csv.DictReader(fh)}
    assert set(gaia) <= predicted


@pytest.mark.parametrize("which", ["catalog", "photometry"])
def test_exit_code_short_row(corpus, tmp_path, capsys, which):
    catalog, photometry = corpus
    paths = {"catalog": catalog, "photometry": photometry}
    bad = tmp_path / f"{which}.csv"
    text = Path(paths[which]).read_text()
    first_id = text.splitlines()[1].split(",")[0]
    bad.write_text(text + f"{first_id},3.0\n")     # a row that stops short
    paths[which] = str(bad)
    assert main(["ingest", "--catalog", paths["catalog"], "--photometry",
                 paths["photometry"], "--output", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    row = len(text.splitlines()) + 1
    assert err.startswith(f"error: row {row}: ") and "Traceback" not in err


@pytest.mark.parametrize("which", ["catalog", "photometry"])
def test_exit_code_not_utf8(corpus, tmp_path, capsys, which):
    catalog, photometry = corpus
    paths = {"catalog": catalog, "photometry": photometry}
    bad = tmp_path / f"{which}.csv"
    text = Path(paths[which]).read_bytes()
    row = text.splitlines(True)[1]
    bad.write_bytes(text + row[:-2] + b"\xff" + row[-1:])    # a last digit not UTF-8
    paths[which] = str(bad)
    out = tmp_path / "out"
    assert main(["ingest", "--catalog", paths["catalog"], "--photometry",
                 paths["photometry"], "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not UTF-8 text") and "Traceback" not in err
    assert not out.exists()


def _no_c_library(name):
    raise OSError("no C library here")


def _mallopt_never(param, value):
    pytest.fail("mallopt called on a C library that is not glibc")


@pytest.mark.parametrize("cdll", [
    _no_c_library,
    lambda name: types.SimpleNamespace(mallopt=_mallopt_never),   # musl, macOS
], ids=["no_c_library", "no_gnu_get_libc_version"])
def test_keep_freed_memory_does_nothing_without_glibc(corpus, tmp_path,
                                                      monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert keep_freed_memory() is None
    catalog, photometry = corpus
    assert main(["ingest", "--catalog", catalog, "--photometry", photometry,
                 "--output", str(tmp_path)]) == 0


# One warm-up step, then five: each a training step of the default GRU at
# batch 256 and 100 steps, followed by the inference forward of a 128-row
# validation batch that ends each epoch of `evaluate.train`. It prints the
# minor page faults that the five took.
_FAULT_LOOP = """
import resource
import numpy as np
from fehforge.cli import keep_freed_memory
from fehforge.nn.losses import weighted_mse
from fehforge.nn.optim import Adam
from fehforge.zoo import build, build_default

keep_freed_memory()
rng = np.random.default_rng(0)
B, T = 256, 100
X, y, w = rng.normal(size=(B, T, 2)), rng.normal(size=B), np.ones(B)
mask = np.ones((B, T), dtype=bool)
model = build(build_default("gru"), (T, 2), seed=0)
model.seed_dropout(0)
opt = Adam(model, learning_rate=0.01)

def step():
    model.zero_grads()
    pred = model.forward(X, mask=mask, training=True)
    _, dpred = weighted_mse(pred, y, w)
    model.backward(dpred.reshape(-1, 1))
    model.add_reg_grads()
    opt.step()
    model.forward(X[:128], mask=mask[:128], training=False)

step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="mallopt thresholds are glibc's")
def test_training_steps_reuse_freed_memory():
    # without the allocator setting the five steps fault in about 62k pages
    src = os.path.dirname(os.path.dirname(fehforge.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _FAULT_LOOP], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert int(run.stdout) < 1000
