import json
import zipfile

import numpy as np
import pytest

from fehforge.container import (atomic_open, load_curves, load_dataset,
                                load_snapshot, load_weights, read_container,
                                save_curves, save_dataset, save_snapshot,
                                save_weights, write_container)
from fehforge.errors import IntegrityError, MissingInput
from fehforge.preprocess import Variant, build_datasets
from fehforge.synthetic import make_corpus
from fehforge.zoo import build, build_default


@pytest.fixture(scope="module")
def dataset():
    pairs, _ = make_corpus(8, seed=0)
    ds = build_datasets(pairs, [Variant.FULL])[0][Variant.FULL]
    ds.meta = {"note": "t"}
    return ds


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


def as_dtype(name, dtype):
    """A tamper that casts member `name` to `dtype`."""
    def tamper(arrays):
        arrays[name] = arrays[name].astype(dtype)
    return tamper


@pytest.mark.parametrize("tamper", [
    lambda arrays: arrays.pop("mask"),
    lambda arrays: arrays.update(source_ids=arrays["source_ids"][:-1]),
    lambda arrays: arrays.update(mask=arrays["mask"][:, :-1]),
    as_dtype("source_ids", np.float64), as_dtype("values", np.float32),
    as_dtype("mask", np.int64), as_dtype("targets", str),
], ids=["no_mask", "short_source_ids", "narrow_mask", "float_source_ids",
        "float32_values", "int_mask", "string_targets"])
def test_dataset_broken_members_rejected(tmp_path, dataset, tamper):
    arrays = {name: getattr(dataset, name)
              for name in ("source_ids", "values", "mask", "targets")}
    tamper(arrays)
    path = tmp_path / "ds.zip"
    write_container(path, "dataset", arrays, {"variant": dataset.variant})
    with pytest.raises(IntegrityError):
        load_dataset(path)


def test_dataset_manifest_without_variant_rejected(tmp_path, dataset):
    arrays = {name: getattr(dataset, name)
              for name in ("source_ids", "values", "mask", "targets")}
    path = tmp_path / "ds.zip"
    write_container(path, "dataset", arrays, {})
    with pytest.raises(IntegrityError, match="lacks its variant"):
        load_dataset(path)


def _check_snapshot_roundtrip(tmp_path, dtype):
    """A `dtype` model saved and loaded is a `dtype` model of the same state
    that predicts bit for bit as the one saved."""
    model = build(build_default("gru"), (20, 2), seed=3, dtype=dtype)
    x = np.random.default_rng(0).normal(size=(4, 20, 2))
    before = model.forward(x, training=False).copy()
    path = tmp_path / "snap.zip"
    save_snapshot(path, model, {"variant": "full"})
    restored, meta = load_snapshot(path)
    after = restored.forward(x, training=False)
    assert restored.dtype == after.dtype == before.dtype == dtype
    assert after.tobytes() == before.tobytes()
    assert restored.input_shape == (20, 2)
    assert meta == {"variant": "full"}
    _, arrays = read_container(path, "snapshot")
    assert set(arrays) == {f"state/{name}" for name in model.get_state()}
    assert {arr.dtype for arr in arrays.values()} == {np.dtype(dtype)}


def test_snapshot_roundtrip_preserves_predictions(tmp_path):
    _check_snapshot_roundtrip(tmp_path, np.float32)


def test_float64_snapshot_loads_as_float64_and_predicts_bit_identically(tmp_path):
    # as every snapshot written before models computed in float32
    _check_snapshot_roundtrip(tmp_path, np.float64)


@pytest.mark.parametrize("dtype", [np.int64, np.float32, str])
def test_snapshot_state_of_another_dtype_rejected(tmp_path, dtype):
    # int64 or str state, or one float32 member in float64 state
    path = tmp_path / "snap.zip"
    save_snapshot(path, build(build_default("gru"), (20, 2), seed=3,
                              dtype=np.float64))
    meta, arrays = read_container(path, "snapshot")
    for name in [min(arrays)] if dtype is np.float32 else list(arrays):
        arrays[name] = arrays[name].astype(dtype)
    write_container(path, "snapshot", arrays, meta)
    with pytest.raises(IntegrityError, match="not all float32 or all float64"):
        load_snapshot(path)


@pytest.mark.parametrize("kind", ["dataset", "snapshot"])
def test_container_of_another_format_version_rejected(tmp_path, dataset, kind):
    # a manifest rewritten to format version 2 is refused, naming both
    path = tmp_path / f"{kind}.zip"
    if kind == "dataset":
        save_dataset(path, dataset)
    else:
        save_snapshot(path, build(build_default("fcn"), (16, 2), seed=1))
    with zipfile.ZipFile(path) as zf:
        members = {n: zf.read(n) for n in zf.namelist()}
    manifest = dict(json.loads(members["manifest.json"]), format_version=2)
    members["manifest.json"] = json.dumps(manifest).encode()
    with zipfile.ZipFile(path, "w") as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    with pytest.raises(IntegrityError, match="format version 2, not 1"):
        (load_dataset if kind == "dataset" else load_snapshot)(path)


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
    # rewrite manifest.json with a different spec but the stale hash
    with zipfile.ZipFile(path) as zf:
        meta = json.loads(zf.read("manifest.json"))
        members = {n: zf.read(n) for n in zf.namelist() if n != "manifest.json"}
    meta["spec"] = meta["spec"].replace("fcn", "resnet")
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("manifest.json", json.dumps(meta))
        for name, data in members.items():
            zf.writestr(name, data)
    with pytest.raises(IntegrityError, match="spec hash mismatch"):
        load_snapshot(path)


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
        assert rec2.epoch_max is None   # set by the generator, not stored
        np.testing.assert_array_equal(lc2.times, lc.times)
        np.testing.assert_array_equal(lc2.mags, lc.mags)


@pytest.mark.parametrize("tamper", [
    lambda arrays: arrays.update(offsets=arrays["offsets"][:-1]),
    lambda arrays: arrays.update(feh=arrays["feh"][:-1]),
    lambda arrays: arrays.update(mags=arrays["mags"][:-1]),
    lambda arrays: arrays.update(offsets=arrays["offsets"] + 1),
    lambda arrays: arrays.update(offsets=arrays["offsets"][[0, 2, 1, 3, 4, 5]]),
], ids=["short_offsets", "short_feh", "short_mags", "shifted_offsets",
        "offsets_out_of_order"])
def test_curves_misaligned_rows_rejected(tmp_path, tamper):
    pairs, _ = make_corpus(5, seed=2)
    path = tmp_path / "curves.zip"
    save_curves(path, pairs)
    manifest, arrays = read_container(path, "curves")
    tamper(arrays)
    write_container(path, "curves", arrays, {"count": manifest["count"]})
    with pytest.raises(IntegrityError, match="do not line up"):
        load_curves(path)


def _empty_second_curve(arrays):
    offsets = arrays["offsets"]
    lo, hi = offsets[1], offsets[2]
    for name in ("times", "mags"):
        arrays[name] = np.delete(arrays[name], np.s_[lo:hi])
    offsets[2:] -= hi - lo


def _set(name, row, value):
    def tamper(arrays):
        arrays[name][row] = value
    return tamper


# values in a curves container that ingest never writes, and the words of
# the error that names each
CURVE_TAMPERS = {
    "empty_curve": (_empty_second_curve, "a star with no observations"),
    "zero_period": (_set("periods", 2, 0.0), "a period that"),
    "nan_magnitude": (_set("mags", 3, np.nan), "a magnitude that"),
    "nan_time": (_set("times", 5, np.nan), "a time that"),
    "string_periods": (as_dtype("periods", str), "member periods is <U"),
    "float_source_ids": (as_dtype("source_ids", np.float64),
                         "member source_ids is float64"),
    "float_offsets": (as_dtype("offsets", np.float64), "member offsets is float64"),
}


def write_tampered_curves(path, pairs, tamper):
    """Save `pairs` as a curves container at `path`, then rewrite it with
    `tamper` applied to its arrays."""
    save_curves(path, pairs)
    manifest, arrays = read_container(path, "curves")
    tamper(arrays)
    write_container(path, "curves", arrays, {"count": manifest["count"]})


@pytest.mark.parametrize("case", sorted(CURVE_TAMPERS))
def test_curves_values_ingest_never_writes_rejected(tmp_path, case):
    tamper, words = CURVE_TAMPERS[case]
    path = tmp_path / "curves.zip"
    write_tampered_curves(path, make_corpus(4, seed=2)[0], tamper)
    with pytest.raises(IntegrityError, match=words):
        load_curves(path)


def test_curves_unknown_epoch_max_loads(tmp_path):
    # the older format also stored each star's epoch_max, NaN when unknown:
    # such a container loads as the same container without that member
    # does, whatever the member holds
    pairs, _ = make_corpus(4, seed=2)
    write_tampered_curves(tmp_path / "old.zip", pairs, lambda arrays: arrays.update(
        epoch_max=np.array([1.5, np.nan, np.inf, -np.inf])))
    save_curves(tmp_path / "new.zip", pairs)
    old, new = (load_curves(tmp_path / name)[0] for name in ("old.zip", "new.zip"))
    assert [rec for rec, _ in old] == [rec for rec, _ in new]
    assert all(rec.epoch_max is None for rec, _ in old)


def test_weights_misaligned_rows_rejected(tmp_path):
    path = tmp_path / "w.zip"
    save_weights(path, np.arange(7), np.ones(6))
    with pytest.raises(IntegrityError, match="do not line up"):
        load_weights(path)


@pytest.mark.parametrize("name, dtype", [("source_ids", np.float64),
                                         ("weights", np.float32)])
def test_weights_of_another_dtype_rejected(tmp_path, name, dtype):
    arrays = {"source_ids": np.arange(7), "weights": np.ones(7)}
    arrays[name] = arrays[name].astype(dtype)
    path = tmp_path / "w.zip"
    write_container(path, "weights", arrays)
    with pytest.raises(IntegrityError, match=f"member {name} is"):
        load_weights(path)


def test_weights_wrong_kind(tmp_path, dataset):
    path = tmp_path / "ds.zip"
    save_dataset(path, dataset)
    with pytest.raises(IntegrityError):
        load_weights(path)
    snap = tmp_path / "snap.zip"          # a manifest.json of kind snapshot
    save_snapshot(snap, build(build_default("fcn"), (20, 2), seed=0))
    with pytest.raises(IntegrityError, match="not a weights container"):
        load_weights(snap)
    with pytest.raises(IntegrityError, match="not a dataset container"):
        load_dataset(snap)



def test_loaders_refuse_files_that_are_not_sound_zips(tmp_path, dataset):
    text = tmp_path / "text.zip"
    text.write_text("one line of text\n")
    truncated = tmp_path / "truncated.zip"
    save_dataset(truncated, dataset)
    truncated.write_bytes(truncated.read_bytes()[:-200])
    for path in (text, truncated):
        for load in (load_dataset, load_snapshot, load_curves, load_weights):
            with pytest.raises(IntegrityError):
                load(path)

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
