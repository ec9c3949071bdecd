import csv
import os
import shutil

import numpy as np
import pytest
import yaml

from fehforge import preprocess
from fehforge.cli import DEFAULT_CONFIG, load_config, main
from fehforge.container import (load_curves, load_dataset, load_weights,
                                save_weights)
from fehforge.synthetic import make_corpus, write_corpus_files


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
    assert cfg["model"] == "lstm"                     # flag beats file
    assert cfg["train"]["folds"] == 7                 # file beats default
    assert cfg["train"]["patience"] == 20             # default survives


def test_config_defaults_complete():
    cfg = load_config()
    for key in ("paths", "selection", "split", "preprocess", "weighting",
                "variant", "model", "train", "grid", "seed", "threads"):
        assert key in cfg
    assert cfg["paths"]["output_dir"]


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


def test_preprocess_rerun_byte_identical(workspace):
    path = os.path.join(workspace, "datasets", "full_train.zip")
    before = open(path, "rb").read()
    assert main(["preprocess", "--output", workspace, "--variant", "full"]) == 0
    assert open(path, "rb").read() == before


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


def test_cv_writes_report(workspace):
    assert main(["cv", "--output", workspace, "--model", "fcn",
                 "--variant", "full", "--epochs", "2", "--patience", "1",
                 "--folds", "3", "--repeats", "1", "--batch-size", "16"]) == 0
    report = os.path.join(workspace, "reports", "cv_fcn_full.csv")
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10                     # 5 metrics x 2 phases
    assert {r["metric"] for r in rows} == {"r2", "rmse", "mae", "wrmse", "wmae"}


def test_exit_code_missing_input(tmp_path):
    assert main(["preprocess", "--output", str(tmp_path / "empty")]) == 2
    assert main(["ingest", "--catalog", str(tmp_path / "no.csv"),
                 "--photometry", str(tmp_path / "no2.csv"),
                 "--output", str(tmp_path)]) == 2


def test_exit_code_malformed_catalog(tmp_path, corpus):
    _, photometry = corpus
    bad = tmp_path / "bad.csv"
    bad.write_text("just,some,columns\n1,2,3\n")
    assert main(["ingest", "--catalog", str(bad), "--photometry", photometry,
                 "--output", str(tmp_path)]) == 3


def test_exit_code_integrity(workspace, tmp_path):
    # a weights container is not a dataset: predict refuses it
    snap = os.path.join(workspace, "snapshots", "gru_full.zip")
    weights = os.path.join(workspace, "datasets", "weights_full_train.zip")
    assert main(["predict", "--output", workspace, "--snapshot", snap,
                 "--input", weights]) == 5



def test_exit_code_snapshot_not_a_zip(workspace, tmp_path):
    snap = tmp_path / "snapshot.zip"
    snap.write_text("this is not a zip archive\n")
    assert main(["predict", "--output", workspace, "--snapshot", str(snap),
                 "--input", os.path.join(workspace, "datasets",
                                         "full_validation.zip")]) == 5

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
    derived = {side: open(os.path.join(out, "datasets", f"full_{side}.zip"),
                          "rb").read() for side in ("train", "validation")}
    assert main(["preprocess", "--output", out, "--variant", "full",
                 "--config", str(config)]) == 0
    for side, data in derived.items():
        with open(os.path.join(out, "datasets", f"full_{side}.zip"), "rb") as fh:
            assert fh.read() == data


def test_unknown_model_rejected(workspace):
    assert main(["cv", "--output", workspace, "--model", "perceptron",
                 "--variant", "full"]) == 1


@pytest.mark.parametrize("command, section", [
    ("preprocess", {"preprocess": {"lam": -1.0}}),
    ("train", {"train": {"batch_size": 0}}),
], ids=["negative_lam", "zero_batch_size"])
def test_exit_code_invalid_config(workspace, tmp_path, capsys, command, section):
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(section))
    work = str(tmp_path / "work")
    shutil.copytree(workspace, work)
    assert main([command, "--config", str(config), "--output", work]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
