import zipfile

import numpy as np
import pytest

from fehforge.container import (atomic_open, from_feature_series, load_curves,
                                load_dataset, load_snapshot, load_weights,
                                restore_model, save_curves, save_dataset,
                                save_snapshot, save_weights)
from fehforge.errors import IntegrityError, MissingInput
from fehforge.preprocess import Variant, build_dataset
from fehforge.synthetic import make_corpus
from fehforge.zoo import build, build_default


@pytest.fixture(scope="module")
def dataset():
    pairs, _ = make_corpus(8, seed=0)
    series, _ = build_dataset(pairs, Variant.FULL)
    return from_feature_series(series, Variant.FULL, meta={"note": "t"})


def test_dataset_roundtrip(tmp_path, dataset):
    path = tmp_path / "ds.zip"
    save_dataset(path, dataset)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.source_ids, dataset.source_ids)
    np.testing.assert_array_equal(loaded.values, dataset.values)
    np.testing.assert_array_equal(loaded.mask, dataset.mask)
    np.testing.assert_array_equal(loaded.targets, dataset.targets)
    assert loaded.variant == "full"
    assert loaded.meta["note"] == "t"


def test_dataset_rerun_byte_identical(tmp_path, dataset):
    a, b = tmp_path / "a.zip", tmp_path / "b.zip"
    save_dataset(a, dataset)
    save_dataset(b, dataset)
    assert a.read_bytes() == b.read_bytes()


def test_dataset_missing_and_wrong_kind(tmp_path, dataset):
    with pytest.raises(MissingInput):
        load_dataset(tmp_path / "nope.zip")
    path = tmp_path / "w.zip"
    save_weights(path, dataset.source_ids, np.ones(len(dataset)))
    with pytest.raises(IntegrityError):
        load_dataset(path)


def test_snapshot_roundtrip_preserves_predictions(tmp_path):
    model = build(build_default("gru"), (20, 2), seed=3)
    x = np.random.default_rng(0).normal(size=(4, 20, 2))
    before = model.forward(x, training=False).copy()
    path = tmp_path / "snap.zip"
    save_snapshot(path, model, extra_meta={"variant": "full"})
    restored = restore_model(path)
    np.testing.assert_array_equal(restored.forward(x, training=False), before)
    _, input_shape, state, meta = load_snapshot(path)
    assert tuple(input_shape) == (20, 2)
    assert meta["meta"]["variant"] == "full"
    assert set(meta["state_names"]) == set(state)


def test_snapshot_rerun_byte_identical(tmp_path):
    model = build(build_default("fcn"), (16, 2), seed=1)
    a, b = tmp_path / "a.zip", tmp_path / "b.zip"
    save_snapshot(a, model)
    save_snapshot(b, model)
    assert a.read_bytes() == b.read_bytes()


def test_snapshot_tampered_spec_rejected(tmp_path):
    model = build(build_default("fcn"), (16, 2), seed=1)
    path = tmp_path / "snap.zip"
    save_snapshot(path, model)
    # rewrite meta.json with a different spec but the stale hash
    import json
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("meta.json"))
        members = {n: zf.read(n) for n in zf.namelist() if n != "meta.json"}
    meta["spec"] = meta["spec"].replace("fcn", "resnet")
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("meta.json", json.dumps(meta))
        for name, data in members.items():
            zf.writestr(name, data)
    with pytest.raises(IntegrityError):
        restore_model(path)


def test_curves_roundtrip(tmp_path):
    pairs, _ = make_corpus(5, seed=2)
    path = tmp_path / "curves.zip"
    save_curves(path, pairs, meta={"side": "train"})
    loaded, meta = load_curves(path)
    assert meta["side"] == "train"
    assert len(loaded) == 5
    for (rec, lc), (rec2, lc2) in zip(pairs, loaded):
        assert rec2.source_id == rec.source_id
        assert rec2.period == rec.period
        assert rec2.feh == rec.feh
        assert rec2.epoch_max == rec.epoch_max
        np.testing.assert_array_equal(lc2.times, lc.times)
        np.testing.assert_array_equal(lc2.mags, lc.mags)


def test_weights_wrong_kind(tmp_path, dataset):
    path = tmp_path / "ds.zip"
    save_dataset(path, dataset)
    with pytest.raises(IntegrityError):
        load_weights(path)
    snap = tmp_path / "snap.zip"          # meta.json, no manifest.json
    save_snapshot(snap, build(build_default("fcn"), (20, 2), seed=0))
    with pytest.raises(IntegrityError):
        load_weights(snap)
    with pytest.raises(IntegrityError):
        load_dataset(snap)


def test_atomic_open_keeps_old_file_on_error(tmp_path):
    path = tmp_path / "report.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as fh:
            fh.write("half")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
    with atomic_open(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert path.stat().st_mode & 0o777 == 0o644


def test_weights_roundtrip(tmp_path):
    ids = np.arange(7, dtype=np.int64)
    w = np.random.default_rng(0).uniform(0.1, 3.0, size=7)
    path = tmp_path / "w.zip"
    save_weights(path, ids, w)
    ids2, w2 = load_weights(path)
    np.testing.assert_array_equal(ids2, ids)
    np.testing.assert_array_equal(w2, w)


def test_zip_members_have_fixed_timestamps(tmp_path, dataset):
    path = tmp_path / "ds.zip"
    save_dataset(path, dataset)
    with zipfile.ZipFile(path) as zf:
        for info in zf.infolist():
            assert info.date_time == (1980, 1, 1, 0, 0, 0)
            assert info.compress_type == zipfile.ZIP_STORED
