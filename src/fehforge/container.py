"""Deterministic on-disk containers for datasets and model snapshots.

Files are zip archives of .npy members plus a JSON manifest, written with
fixed member timestamps and no compression so a rerun with identical
content produces byte-identical files. All writes go through a temp file
and an atomic rename.
"""
from __future__ import annotations

import contextlib
import hashlib
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


def from_feature_series(series, variant, meta=None):
    if not series:
        return ArrayDataset(np.zeros(0, np.int64), np.zeros((0, 0, 2)),
                            np.zeros((0, 0), bool), np.zeros(0), variant.value,
                            dict(meta or {}))
    return ArrayDataset(
        source_ids=np.array([s.source_id for s in series], dtype=np.int64),
        values=np.stack([s.values for s in series]).astype(np.float64),
        mask=np.stack([s.mask for s in series]),
        targets=np.array([s.target for s in series], dtype=np.float64),
        variant=variant.value,
        meta=dict(meta or {}),
    )


def config_hash(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def _npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    return buf.getvalue()


@contextlib.contextmanager
def atomic_open(path, mode="w", **kwargs):
    """Open a temp file next to `path` for writing. A clean exit renames it
    over `path` in one step; an error removes it and leaves `path` as it was."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
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


def _write_zip(path, members):
    """members: list of (name, bytes). Deterministic output, atomic rename."""
    with atomic_open(path, "wb") as fh:
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
            for name, data in members:
                info = zipfile.ZipInfo(name, date_time=_EPOCH)
                info.external_attr = 0o644 << 16
                zf.writestr(info, data)


@contextlib.contextmanager
def _open_container(path, kind, member="manifest.json"):
    """The open zip archive of the `kind` container at `path`, with its JSON
    manifest. MissingInput if there is no file; IntegrityError if it is not
    a sound zip archive or its manifest names another kind."""
    if not os.path.exists(path):
        raise MissingInput(f"{kind} container not found: {path}")
    try:
        with zipfile.ZipFile(path) as zf:
            try:
                manifest = json.loads(zf.read(member))
            except KeyError:
                manifest = {}
            if manifest.get("kind") != kind:
                raise IntegrityError(f"{path} is not a {kind} container")
            yield zf, manifest
    except zipfile.BadZipFile as exc:
        raise IntegrityError(f"{path} is not a {kind} container: {exc}") from exc


def save_dataset(path, dataset: ArrayDataset):
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "dataset",
        "variant": dataset.variant,
        "count": len(dataset),
        "length": int(dataset.values.shape[1]) if dataset.values.size else 0,
        "meta": dataset.meta,
    }
    manifest["config_hash"] = config_hash(dataset.meta)
    members = [
        ("manifest.json", json.dumps(manifest, sort_keys=True, indent=1).encode()),
        ("source_ids.npy", _npy_bytes(dataset.source_ids)),
        ("values.npy", _npy_bytes(dataset.values)),
        ("mask.npy", _npy_bytes(dataset.mask)),
        ("targets.npy", _npy_bytes(dataset.targets)),
    ]
    _write_zip(path, members)


def load_dataset(path) -> ArrayDataset:
    with _open_container(path, "dataset") as (zf, manifest):
        load = lambda name: np.load(io.BytesIO(zf.read(name)), allow_pickle=False)
        return ArrayDataset(
            source_ids=load("source_ids.npy"),
            values=load("values.npy"),
            mask=load("mask.npy"),
            targets=load("targets.npy"),
            variant=manifest["variant"],
            meta=manifest.get("meta", {}),
        )


def save_snapshot(path, model, extra_meta=None):
    """Persist a trained model: spec JSON plus every state array."""
    state = model.get_state()
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "snapshot",
        "spec": model.spec.to_json() if model.spec is not None else None,
        "spec_hash": model.spec.spec_hash() if model.spec is not None else None,
        "input_shape": list(model.input_shape) if model.input_shape else None,
        "state_names": sorted(state),
        "meta": dict(extra_meta or {}),
    }
    members = [("meta.json", json.dumps(meta, sort_keys=True, indent=1).encode())]
    for name in sorted(state):
        members.append((f"state/{name}.npy", _npy_bytes(state[name])))
    _write_zip(path, members)


def load_snapshot(path):
    """Returns (spec_json, input_shape, state_dict, meta)."""
    with _open_container(path, "snapshot", member="meta.json") as (zf, meta):
        state = {}
        for name in meta["state_names"]:
            state[name] = np.load(io.BytesIO(zf.read(f"state/{name}.npy")),
                                  allow_pickle=False)
    return meta["spec"], meta["input_shape"], state, meta


def restore_model(path):
    """Rebuild a model from a snapshot, verifying the spec hash."""
    from .zoo import ModelSpec, build

    spec_json, input_shape, state, meta = load_snapshot(path)
    if spec_json is None:
        raise IntegrityError(f"{path}: snapshot carries no model spec")
    spec = ModelSpec.from_json(spec_json)
    if spec.spec_hash() != meta.get("spec_hash"):
        raise IntegrityError(f"{path}: spec hash mismatch")
    model = build(spec, tuple(input_shape), seed=0)
    model.set_state(state)
    return model


def save_curves(path, pairs, meta=None):
    """Persist (StarRecord, LightCurve) pairs as a ragged-array container."""
    n = len(pairs)
    lengths = np.array([len(lc) for _, lc in pairs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    times = np.concatenate([lc.times for _, lc in pairs]) if n else np.zeros(0)
    mags = np.concatenate([lc.mags for _, lc in pairs]) if n else np.zeros(0)
    fields = {
        "source_ids": np.array([r.source_id for r, _ in pairs], dtype=np.int64),
        "periods": np.array([r.period for r, _ in pairs]),
        "amp_g": np.array([r.amp_g for r, _ in pairs]),
        "n_epochs": np.array([r.n_epochs for r, _ in pairs], dtype=np.int64),
        "feh": np.array([r.feh for r, _ in pairs]),
        "feh_sigma": np.array([r.feh_sigma for r, _ in pairs]),
        "phi31_sigma": np.array([r.phi31_sigma for r, _ in pairs]),
        "epoch_max": np.array([np.nan if r.epoch_max is None else r.epoch_max
                               for r, _ in pairs]),
        "offsets": offsets, "times": times, "mags": mags,
    }
    manifest = {"format_version": FORMAT_VERSION, "kind": "curves",
                "count": n, "meta": dict(meta or {})}
    members = [("manifest.json", json.dumps(manifest, sort_keys=True,
                                            indent=1).encode())]
    members += [(f"{name}.npy", _npy_bytes(arr)) for name, arr in fields.items()]
    _write_zip(path, members)


def load_curves(path):
    """Inverse of `save_curves`; returns (pairs, meta)."""
    from .catalog import LightCurve, StarRecord

    with _open_container(path, "curves") as (zf, manifest):
        load = lambda name: np.load(io.BytesIO(zf.read(f"{name}.npy")),
                                    allow_pickle=False)
        data = {name: load(name) for name in
                ("source_ids", "periods", "amp_g", "n_epochs", "feh",
                 "feh_sigma", "phi31_sigma", "epoch_max", "offsets",
                 "times", "mags")}
    pairs = []
    for i in range(manifest["count"]):
        lo, hi = data["offsets"][i], data["offsets"][i + 1]
        em = data["epoch_max"][i]
        rec = StarRecord(
            id=i, source_id=int(data["source_ids"][i]),
            period=float(data["periods"][i]), amp_g=float(data["amp_g"][i]),
            n_epochs=int(data["n_epochs"][i]), feh=float(data["feh"][i]),
            feh_sigma=float(data["feh_sigma"][i]),
            phi31_sigma=float(data["phi31_sigma"][i]),
            epoch_max=None if np.isnan(em) else float(em))
        pairs.append((rec, LightCurve(rec.source_id,
                                      data["times"][lo:hi],
                                      data["mags"][lo:hi])))
    return pairs, manifest.get("meta", {})


def save_weights(path, source_ids, weights):
    _write_zip(path, [
        ("manifest.json", json.dumps({"format_version": FORMAT_VERSION,
                                      "kind": "weights"}).encode()),
        ("source_ids.npy", _npy_bytes(np.asarray(source_ids, dtype=np.int64))),
        ("weights.npy", _npy_bytes(np.asarray(weights, dtype=np.float64))),
    ])


def load_weights(path):
    with _open_container(path, "weights") as (zf, _):
        load = lambda name: np.load(io.BytesIO(zf.read(name)), allow_pickle=False)
        return load("source_ids.npy"), load("weights.npy")
