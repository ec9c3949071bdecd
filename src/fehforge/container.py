"""Deterministic on-disk containers for curves, datasets, weights and model
snapshots.

Every container is a zip archive of .npy members plus a JSON manifest,
`manifest.json`, that names its kind, written and read by one codec
(`write_container`, `read_container`) with fixed member timestamps and no
compression, so a rerun with identical content produces byte-identical
files. All writes go
through a temp file and an atomic rename. The `save_*`/`load_*` pairs only
map each kind's fields onto arrays and manifest entries.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import tempfile
import zipfile
from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError, MissingInput

FORMAT_VERSION = 1
_EPOCH = (1980, 1, 1, 0, 0, 0)


@dataclass
class ArrayDataset:
    """Feature dataset as dense arrays, aligned by row."""
    source_ids: np.ndarray   # (N,) int64
    values: np.ndarray       # (N, L, 2) float64
    mask: np.ndarray         # (N, L) bool
    targets: np.ndarray      # (N,) float64, [Fe/H] dex; NaN = unknown
    variant: str
    meta: dict

    def __len__(self):
        return len(self.source_ids)

    @property
    def length(self):
        return self.values.shape[1]


def _npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    return buf.getvalue()


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a temp file next to `path` for writing, creating its directory.
    A clean exit renames it over `path` in one step; an error removes it and
    leaves `path` as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.fchmod(fd, 0o644)      # mkstemp makes it 0600; outputs are shared
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Write `header` and then `rows` as one CSV file, atomically."""
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_container(path, kind, arrays, manifest=None):
    """Write a `kind` container: the JSON manifest (format version, kind and
    `manifest`) as `manifest.json`, then each of `arrays` (name -> array) as
    `<name>.npy`, in order. Deterministic bytes, atomic rename."""
    head = dict(manifest or {}, format_version=FORMAT_VERSION, kind=kind)
    members = [("manifest.json", json.dumps(head, sort_keys=True, indent=1).encode())]
    members += [(f"{name}.npy", _npy_bytes(arr)) for name, arr in arrays.items()]
    with atomic_open(path, "wb") as fh, \
            zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
        for name, data in members:
            info = zipfile.ZipInfo(name, date_time=_EPOCH)
            info.external_attr = 0o644 << 16
            zf.writestr(info, data)


def read_container(path, kind, dtypes=None):
    """(manifest, arrays) of the `kind` container at `path`. `arrays` maps
    each member of `dtypes` (name -> the dtype it must have; default: every
    .npy member, of any dtype) to its array. MissingInput if there is no
    file; IntegrityError if it is not a sound zip archive, its manifest
    names another kind or format version, or a member is missing,
    unreadable or of another dtype."""
    if not os.path.exists(path):
        raise MissingInput(f"{kind} container not found: {path}")
    try:
        with zipfile.ZipFile(path) as zf:
            manifest = json.loads(zf.read("manifest.json"))
            if not isinstance(manifest, dict) or manifest.get("kind") != kind:
                raise IntegrityError(f"{path} is not a {kind} container")
            if manifest.get("format_version") != FORMAT_VERSION:
                raise IntegrityError(
                    f"{path} is {kind} container format version "
                    f"{manifest.get('format_version')}, not {FORMAT_VERSION}")
            names = dtypes or [m[:-4] for m in zf.namelist() if m.endswith(".npy")]
            arrays = {name: np.load(io.BytesIO(zf.read(f"{name}.npy")),
                                    allow_pickle=False) for name in names}
    except (zipfile.BadZipFile, KeyError, ValueError) as exc:
        raise IntegrityError(f"{path} is not a sound {kind} container: "
                             f"{exc}") from exc
    for name, dtype in (dtypes or {}).items():
        if arrays[name].dtype != dtype:
            raise IntegrityError(f"{path}: {kind} member {name} is "
                                 f"{arrays[name].dtype}, not {np.dtype(dtype)}")
    return manifest, arrays


def _check_rows(path, kind, arrays, aligned):
    """IntegrityError naming the shape of each of `arrays` unless `aligned`."""
    if not aligned:
        raise IntegrityError(
            f"{path}: {kind} arrays do not line up row for row "
            + ", ".join(f"{k} {v.shape}" for k, v in arrays.items()))


_DATASET_ARRAYS = {"source_ids": np.int64, "values": np.float64,
                   "mask": np.bool_, "targets": np.float64}


def save_dataset(path, dataset: ArrayDataset):
    write_container(
        path, "dataset",
        {name: getattr(dataset, name) for name in _DATASET_ARRAYS},
        {"variant": dataset.variant, "count": len(dataset),
         "length": int(dataset.values.shape[1]) if dataset.values.size else 0,
         "meta": dataset.meta})


def load_dataset(path) -> ArrayDataset:
    manifest, arrays = read_container(path, "dataset", _DATASET_ARRAYS)
    _check_rows(path, "dataset", arrays,
                len({arr.shape[:1] for arr in arrays.values()}) == 1
                and arrays["mask"].shape == arrays["values"].shape[:2])
    if "variant" not in manifest:
        raise IntegrityError(f"{path}: dataset manifest lacks its variant")
    return ArrayDataset(**arrays, variant=manifest["variant"],
                        meta=manifest.get("meta", {}))


def save_snapshot(path, model, meta=None):
    """Persist a trained model: its spec, the spec's hash, its input shape
    and `meta` in the manifest, and each state array as `state/<name>`."""
    state = model.get_state()
    write_container(
        path, "snapshot",
        {f"state/{name}": state[name] for name in sorted(state)},
        {"spec": model.spec.to_json(), "spec_hash": model.spec.spec_hash(),
         "input_shape": list(model.input_shape), "meta": dict(meta or {})})


def load_snapshot(path):
    """(model, meta) of the snapshot at `path`: the model its spec builds in
    the dtype of its state, holding its state arrays, and the `meta` it was
    saved with. IntegrityError unless the members are all float32 or all
    float64, the spec parses and matches its hash, the state arrays are
    exactly the model's state names and shapes, and `meta` is a mapping."""
    from .zoo import ModelSpec, build

    manifest, arrays = read_container(path, "snapshot")
    dtypes = {arr.dtype for arr in arrays.values()}
    if len(dtypes) != 1 or dtypes - {np.dtype(np.float32), np.dtype(np.float64)}:
        raise IntegrityError(f"{path}: snapshot state is "
                             f"{sorted(map(str, dtypes))}, not all float32 "
                             f"or all float64")
    try:
        spec = ModelSpec.from_json(manifest["spec"])
        if spec.spec_hash() != manifest["spec_hash"]:
            raise IntegrityError(f"{path}: spec hash mismatch")
        model = build(spec, tuple(manifest["input_shape"]), seed=0,
                      dtype=dtypes.pop())
        model.set_state({name.removeprefix("state/"): arr
                         for name, arr in arrays.items()})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(f"{path}: snapshot does not restore its model: "
                             f"{exc!r}") from exc
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise IntegrityError(f"{path}: snapshot meta is not a mapping")
    return model, meta


# curves member -> StarRecord field, in member order
_CURVE_FIELDS = {"source_ids": "source_id", "periods": "period",
                 "amp_g": "amp_g", "n_epochs": "n_epochs", "feh": "feh",
                 "feh_sigma": "feh_sigma", "phi31_sigma": "phi31_sigma"}
# every curves member -> its dtype: int64 ids, epoch counts and offsets,
# float64 otherwise
_CURVE_DTYPES = {name: np.int64 if name in ("source_ids", "n_epochs", "offsets")
                 else np.float64
                 for name in (*_CURVE_FIELDS, "offsets", "times", "mags")}


def save_curves(path, pairs, meta=None):
    """Persist (StarRecord, LightCurve) pairs as a ragged-array container."""
    arrays = {name: np.array([getattr(r, field) for r, _ in pairs],
                             _CURVE_DTYPES[name])
              for name, field in _CURVE_FIELDS.items()}
    lengths = np.array([len(lc) for _, lc in pairs], dtype=np.int64)
    arrays["offsets"] = np.concatenate([[0], np.cumsum(lengths)])
    for name in ("times", "mags"):
        arrays[name] = (np.concatenate([getattr(lc, name) for _, lc in pairs])
                        if pairs else np.zeros(0))
    write_container(path, "curves", arrays,
                    {"count": len(pairs), "meta": dict(meta or {})})


def load_curves(path):
    """Inverse of `save_curves`; returns (pairs, meta). IntegrityError unless
    each field holds one row per star, `offsets` cut `times` and `mags` into
    one run of at least one observation per star, every period is finite and
    positive, and every time and magnitude finite. A member that no field
    names, such as the `epoch_max` of older containers, is not read."""
    from .catalog import LightCurve, StarRecord

    manifest, data = read_container(path, "curves", _CURVE_DTYPES)
    count, offsets = manifest.get("count"), data["offsets"]
    _check_rows(path, "curves", data,
                all(data[name].shape == (count,) for name in _CURVE_FIELDS)
                and offsets.shape == (count + 1,) and offsets[0] == 0
                and bool(np.all(np.diff(offsets) >= 0))
                and data["times"].shape == data["mags"].shape == (offsets[-1],))
    for bad, what in (
            (~(data["periods"] > 0) | np.isinf(data["periods"]),
             "a period that is not finite and > 0"),
            (np.diff(offsets) == 0, "a star with no observations"),
            (~np.isfinite(data["times"]), "a time that is not finite"),
            (~np.isfinite(data["mags"]), "a magnitude that is not finite")):
        if bad.any():
            raise IntegrityError(f"{path}: curves hold {what} "
                                 f"(row {int(np.argmax(bad))})")
    columns = {field: data[name].tolist() for name, field in _CURVE_FIELDS.items()}
    pairs = []
    for i in range(count):
        lo, hi = offsets[i], offsets[i + 1]
        rec = StarRecord(id=i, **{field: values[i]
                                  for field, values in columns.items()})
        pairs.append((rec, LightCurve(rec.source_id, data["times"][lo:hi],
                                      data["mags"][lo:hi])))
    return pairs, manifest.get("meta", {})


def save_weights(path, source_ids, weights):
    write_container(path, "weights",
                    {"source_ids": np.asarray(source_ids, dtype=np.int64),
                     "weights": np.asarray(weights, dtype=np.float64)})


def load_weights(path):
    _, arrays = read_container(path, "weights", {"source_ids": np.int64,
                                                 "weights": np.float64})
    _check_rows(path, "weights", arrays,
                arrays["source_ids"].shape == arrays["weights"].shape)
    return arrays["source_ids"], arrays["weights"]
