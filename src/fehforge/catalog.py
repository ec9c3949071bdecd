"""Star catalog ingestion, selection cuts and train/validation splitting.

The catalog is a delimited text table with one RRab star per row. Column
names are mapped onto `StarRecord` fields through a configurable column map
so that differently-named exports of the same quantities can be loaded
without editing the file.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .container import atomic_open
from .errors import (DegenerateSplit, DuplicateEpoch, EmptyCatalog,
                     MissingColumn, OrphanStar, ParseError)

# Default header names, with common aliases accepted per field.
DEFAULT_COLUMN_MAP = {
    "id": ("id",),
    "source_id": ("source_id",),
    "period": ("period", "p", "period_days"),
    "amp_g": ("amp_g", "ampg", "amplitude_g", "peak_to_peak_g"),
    "n_epochs": ("n_epochs", "#epochs", "num_epochs", "epochs", "num_clean_epochs_g"),
    "feh": ("feh", "[fe/h]", "met", "metallicity"),
    "feh_sigma": ("feh_sigma", "sigma_feh", "feh_error", "sigma[fe/h]"),
    "phi31_sigma": ("phi31_sigma", "sigma_phi31", "phi31_error"),
    "epoch_max": ("epoch_max", "epoch_g", "epoch_max_bjd"),
}

MANDATORY_FIELDS = ("source_id", "period", "amp_g", "n_epochs", "feh", "feh_sigma")


@dataclass(frozen=True)
class StarRecord:
    id: int
    source_id: int
    period: float          # days
    amp_g: float           # peak-to-peak G amplitude, mag
    n_epochs: int
    feh: float             # dex
    feh_sigma: float       # dex
    phi31_sigma: float = 0.0
    epoch_max: Optional[float] = None  # BJD of maximum light


@dataclass(frozen=True)
class LightCurve:
    source_id: int
    times: np.ndarray      # BJD, strictly increasing
    mags: np.ndarray

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class SelectionCriteria:
    max_feh_sigma: float = 0.4
    max_amp_g: float = 1.4
    min_epochs: int = 50
    max_phi31_sigma: float = 0.10


@dataclass(frozen=True)
class SplitSpec:
    # Default fraction reproduces the 4801/1201 partition of 6002 stars.
    train_fraction: float = 4801.0 / 6002.0
    seed: int = 0


@dataclass
class Rejection:
    record: StarRecord
    rule: str
    value: float


def _parse_value(raw, kind, row_num, name, path):
    raw = raw.strip()
    try:
        if kind is int:
            return int(float(raw))
        value = float(raw)
    except (TypeError, ValueError):
        raise ParseError(row_num, name, raw, path)
    if not math.isfinite(value):
        raise ParseError(row_num, name, raw, path)
    return value


def _sniff_delimiter(sample: str) -> str:
    try:
        return csv.Sniffer().sniff(sample, delimiters=",;\t| ").delimiter
    except csv.Error:
        return ","


def load_catalog(path, column_map=None, delimiter=None):
    """Read the star catalog into a list of `StarRecord`.

    Raises `MissingColumn` when a mandatory column cannot be found in the
    header, `ParseError` (with row number and field name) on the first
    unparseable mandatory value, and `EmptyCatalog` when no data rows exist.
    """
    column_map = dict(DEFAULT_COLUMN_MAP, **(column_map or {}))
    with open(path, newline="") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        delim = delimiter or _sniff_delimiter(sample.splitlines()[0] if sample else ",")
        reader = csv.reader(fh, delimiter=delim)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyCatalog(f"{path}: empty file")
        lookup = {h.strip().lower(): i for i, h in enumerate(header)}

        indices = {}
        for fld, aliases in column_map.items():
            for alias in aliases:
                if alias.lower() in lookup:
                    indices[fld] = lookup[alias.lower()]
                    break
        for fld in MANDATORY_FIELDS:
            if fld not in indices:
                raise MissingColumn(fld, path)

        records = []
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            get = lambda f: row[indices[f]] if f in indices and indices[f] < len(row) else None
            rid = row_num - 2
            if "id" in indices and get("id") not in (None, ""):
                rid = int(_parse_value(get("id"), int, row_num, "id", path))
            epoch_max = None
            if "epoch_max" in indices:
                raw = get("epoch_max")
                if raw is not None and raw.strip() not in ("", "nan", "NaN"):
                    epoch_max = _parse_value(raw, float, row_num, "epoch_max", path)
            phi31_sigma = 0.0
            if "phi31_sigma" in indices and get("phi31_sigma") not in (None, ""):
                phi31_sigma = _parse_value(get("phi31_sigma"), float, row_num,
                                           "phi31_sigma", path)
            records.append(StarRecord(
                id=rid,
                source_id=int(_parse_value(get("source_id"), int, row_num, "source_id", path)),
                period=_parse_value(get("period"), float, row_num, "period", path),
                amp_g=_parse_value(get("amp_g"), float, row_num, "amp_g", path),
                n_epochs=int(_parse_value(get("n_epochs"), int, row_num, "n_epochs", path)),
                feh=_parse_value(get("feh"), float, row_num, "feh", path),
                feh_sigma=_parse_value(get("feh_sigma"), float, row_num, "feh_sigma", path),
                phi31_sigma=phi31_sigma,
                epoch_max=epoch_max,
            ))
    if not records:
        raise EmptyCatalog(f"{path}: header only, no data rows")
    return records


def apply_selection(records, criteria=SelectionCriteria()):
    """Apply the quality cuts; returns (accepted, rejections).

    A rejection carries the first failing rule in the fixed order
    feh_sigma, amp_g, n_epochs, phi31_sigma, period.
    """
    accepted, rejected = [], []
    for rec in records:
        if not (math.isfinite(rec.period) and rec.period > 0):
            rejected.append(Rejection(rec, "period", rec.period))
        elif rec.feh_sigma > criteria.max_feh_sigma:
            rejected.append(Rejection(rec, "max_feh_sigma", rec.feh_sigma))
        elif rec.amp_g > criteria.max_amp_g:
            rejected.append(Rejection(rec, "max_amp_g", rec.amp_g))
        elif rec.n_epochs < criteria.min_epochs:
            rejected.append(Rejection(rec, "min_epochs", rec.n_epochs))
        elif rec.phi31_sigma > criteria.max_phi31_sigma:
            rejected.append(Rejection(rec, "max_phi31_sigma", rec.phi31_sigma))
        else:
            accepted.append(rec)
    return accepted, rejected


def split_train_validation(records, spec=SplitSpec()):
    """Seeded uniform shuffle followed by a prefix cut.

    Deterministic for a fixed seed; |train| = round(train_fraction * N).
    """
    n = len(records)
    if n < 2:
        raise DegenerateSplit(f"cannot split {n} record(s)")
    n_train = int(round(spec.train_fraction * n))
    if n_train < 1 or n_train >= n:
        raise DegenerateSplit(
            f"fraction {spec.train_fraction} leaves an empty side for N={n}")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed & 0xFFFFFFFF, 0x5317]))
    order = rng.permutation(n)
    train = [records[i] for i in sorted(order[:n_train])]
    valid = [records[i] for i in sorted(order[n_train:])]
    return train, valid


def load_photometry(path, delimiter=None):
    """Read per-star epoch photometry keyed by source_id.

    Expected columns: source_id, time_bjd, mag_g (header required).
    Returns dict source_id -> list of (time, mag), unsorted.
    """
    by_star = {}
    with open(path, newline="") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        delim = delimiter or _sniff_delimiter(sample.splitlines()[0] if sample else ",")
        reader = csv.reader(fh, delimiter=delim)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyCatalog(f"{path}: empty photometry file")
        lookup = {h.strip().lower(): i for i, h in enumerate(header)}
        cols = {}
        for fld, aliases in (("source_id", ("source_id",)),
                             ("time", ("time_bjd", "time", "bjd", "t")),
                             ("mag", ("mag_g", "mag", "g_mag", "magnitude"))):
            for alias in aliases:
                if alias in lookup:
                    cols[fld] = lookup[alias]
                    break
            else:
                raise MissingColumn(fld, path)
        for row_num, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            sid = int(_parse_value(row[cols["source_id"]], int, row_num, "source_id", path))
            t = _parse_value(row[cols["time"]], float, row_num, "time", path)
            m = _parse_value(row[cols["mag"]], float, row_num, "mag", path)
            by_star.setdefault(sid, []).append((t, m))
    return by_star


def join_photometry(records, photometry_path, delimiter=None):
    """Pair every star with its time-sorted light curve.

    Raises `OrphanStar` listing stars with no photometry and
    `DuplicateEpoch` when a star has two identical timestamps.
    """
    by_star = load_photometry(photometry_path, delimiter=delimiter)
    orphans = [rec.source_id for rec in records if rec.source_id not in by_star]
    if orphans:
        raise OrphanStar(orphans)
    pairs = []
    for rec in records:
        points = sorted(by_star[rec.source_id])
        times = np.array([p[0] for p in points], dtype=np.float64)
        mags = np.array([p[1] for p in points], dtype=np.float64)
        if len(times) > 1 and np.any(np.diff(times) <= 0):
            idx = int(np.argmax(np.diff(times) <= 0))
            raise DuplicateEpoch(rec.source_id, times[idx])
        pairs.append((rec, LightCurve(rec.source_id, times, mags)))
    return pairs


def write_rejection_report(path, rejections, delimiter=","):
    """Sidecar audit file: (source_id, failed_rule, offending_value)."""
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(["source_id", "failed_rule", "offending_value"])
        for rej in rejections:
            writer.writerow([rej.record.source_id, rej.rule, rej.value])
