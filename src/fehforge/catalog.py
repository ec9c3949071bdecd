"""Star catalog ingestion, selection cuts and train/validation splitting.

The catalog is a delimited text table with one RRab star per row, and the
photometry one with one epoch per row; each file's delimiter is always
sniffed from its header. Each `StarRecord` field is read from
the first of its accepted header names (`DEFAULT_COLUMN_MAP`, matched
case-insensitively), so differently-named exports of the same quantities
load without editing the file.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional

import numpy as np

from .container import write_csv
from .errors import (DegenerateSplit, DuplicateEpoch, EmptyCatalog, InvalidConfig,
                     MalformedInput, MissingColumn, OrphanStar, ParseError)

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
}

MANDATORY_FIELDS = ("source_id", "period", "amp_g", "n_epochs", "feh", "feh_sigma")

# Photometry header names; every field is mandatory.
PHOTOMETRY_COLUMN_MAP = {
    "source_id": ("source_id",),
    "time": ("time_bjd", "time", "bjd", "t"),
    "mag": ("mag_g", "mag", "g_mag", "magnitude"),
}
_PHOTOMETRY_DTYPE = [("source_id", np.int64), ("time", np.float64), ("mag", np.float64)]


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
    # BJD of maximum light: set by the generator; the pipeline does not read it
    epoch_max: Optional[float] = None


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

    def __post_init__(self):
        if not all(value >= 0 for value in vars(self).values()):
            raise InvalidConfig(f"selection cuts must be >= 0, got {self}")


@dataclass(frozen=True)
class SplitSpec:
    # Default fraction reproduces the 4801/1201 partition of 6002 stars.
    train_fraction: float = 4801.0 / 6002.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidConfig(f"train_fraction {self.train_fraction} not in (0, 1)")


@dataclass
class Rejection:
    record: StarRecord
    rule: str
    value: float


def _parse_value(raw, kind, row_num, name, path):
    """A finite float, or an exact int64. An int field also takes a float form
    ('12.0', '1e3') whose decimal value is an integer of at most 2**53."""
    raw = raw.strip()
    try:
        if kind is int:
            try:
                value = int(raw)
            except ValueError:
                exact = Decimal(raw)
                value = (int(exact) if exact.is_finite() and abs(exact) <= 2 ** 53
                         and exact == exact.to_integral_value() else None)
            if value is not None and -2 ** 63 <= value < 2 ** 63:
                return value
        elif math.isfinite(value := float(raw)):
            return value
    except (ValueError, ArithmeticError):   # decimal.InvalidOperation on junk
        pass
    raise ParseError(row_num, name, raw, path)


def _read_header(fh, path, column_map, mandatory, what):
    """Sniff the delimiter and map fields onto column indices through their
    aliases (case-insensitive). Returns (csv reader past the header, indices).
    """
    sample = fh.read(4096)
    fh.seek(0)
    try:
        first = sample.splitlines()[0] if sample else ","
        delimiter = csv.Sniffer().sniff(first, delimiters=",;\t| ").delimiter
    except csv.Error:
        delimiter = ","
    reader = csv.reader(fh, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyCatalog(f"{path}: empty {what}")
    lookup = {h.strip().lower(): i for i, h in enumerate(header)}
    indices = {}
    for fld, aliases in column_map.items():
        found = [lookup[a.lower()] for a in aliases if a.lower() in lookup]
        if found:
            indices[fld] = found[0]
    for fld in mandatory:
        if fld not in indices:
            raise MissingColumn(fld, path)
    return reader, indices


def _data_rows(reader, indices):
    """(row number, row) per non-blank row, padded with '' to cover `indices`."""
    width = max(indices.values()) + 1
    for row_num, row in enumerate(reader, start=2):
        if row and any(c.strip() for c in row):
            yield row_num, row + [""] * (width - len(row))


def load_catalog(path):
    """Read the star catalog into a list of `StarRecord`.

    Raises `MissingColumn` when a mandatory column cannot be found in the
    header, `ParseError` (row number and field name) on the first missing or
    unparseable mandatory value, and `EmptyCatalog` when no data rows exist.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader, indices = _read_header(fh, path, DEFAULT_COLUMN_MAP,
                                           MANDATORY_FIELDS, "file")
            records = []
            for row_num, row in _data_rows(reader, indices):
                get = lambda f: row[indices[f]] if f in indices else ""
                value = lambda f, kind=float: _parse_value(get(f), kind, row_num, f, path)
                rid = value("id", int) if get("id") else row_num - 2
                phi31_sigma = value("phi31_sigma") if get("phi31_sigma") else 0.0
                records.append(StarRecord(
                    id=rid, source_id=value("source_id", int), period=value("period"),
                    amp_g=value("amp_g"), n_epochs=value("n_epochs", int), feh=value("feh"),
                    feh_sigma=value("feh_sigma"), phi31_sigma=phi31_sigma))
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8 text: {exc}") from exc
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
    """Seeded uniform shuffle of `records`, any sequence (the CLI splits
    (record, curve) pairs), followed by a prefix cut.

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


def _photometry_rows(reader, cols, path):
    """The row parser: every value through `_parse_value`, so a bad value
    raises `ParseError` with its row number and field."""
    sids, times, mags = [], [], []
    for row_num, row in _data_rows(reader, cols):
        for out, fld, kind in ((sids, "source_id", int), (times, "time", float),
                               (mags, "mag", float)):
            out.append(_parse_value(row[cols[fld]], kind, row_num, fld, path))
    return np.array(sids, dtype=np.int64), np.array(times), np.array(mags)


def load_photometry(path):
    """Read per-star epoch photometry: dict source_id -> `LightCurve`.

    Columns: source_id, time_bjd, mag_g or an alias (header required). Keys
    ascend; each curve's times and mags are views sorted by (time, mag).
    One `np.loadtxt` call parses the body. Input it rejects (quoted fields,
    blank-looking or short rows, float-formatted ids) or a non-finite value
    goes through the row parser instead, which raises `ParseError`.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader, cols = _read_header(fh, path, PHOTOMETRY_COLUMN_MAP,
                                        PHOTOMETRY_COLUMN_MAP, "photometry file")
            delim = reader.dialect.delimiter
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)   # header only
                    body = np.loadtxt(fh, delimiter=delim, dtype=_PHOTOMETRY_DTYPE,
                                      usecols=[cols[f] for f in PHOTOMETRY_COLUMN_MAP],
                                      comments=None, ndmin=1)
                sids, times, mags = body["source_id"], body["time"], body["mag"]
                if not (np.isfinite(times).all() and np.isfinite(mags).all()):
                    raise ValueError("non-finite value")
            except ValueError:
                fh.seek(0)
                reader = csv.reader(fh, delimiter=delim)
                next(reader)
                sids, times, mags = _photometry_rows(reader, cols, path)
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path} is not UTF-8 text: {exc}") from exc
    order = np.lexsort((mags, times, sids))
    sids, times, mags = sids[order], times[order], mags[order]
    ids, starts = np.unique(sids, return_index=True)
    bounds = np.append(starts, len(sids)).tolist()
    return {sid: LightCurve(sid, times[lo:hi], mags[lo:hi])
            for sid, lo, hi in zip(ids.tolist(), bounds[:-1], bounds[1:])}


def join_photometry(records, photometry_path):
    """Pair every star with its time-sorted light curve.

    Raises `OrphanStar` listing stars with no photometry and
    `DuplicateEpoch` when a star has two identical timestamps.
    """
    by_star = load_photometry(photometry_path)
    orphans = [rec.source_id for rec in records if rec.source_id not in by_star]
    if orphans:
        raise OrphanStar(orphans)
    pairs = []
    for rec in records:
        curve = by_star[rec.source_id]
        repeated = np.diff(curve.times) <= 0
        if repeated.any():
            raise DuplicateEpoch(rec.source_id, curve.times[int(np.argmax(repeated))])
        pairs.append((rec, curve))
    return pairs


def write_rejection_report(path, rejections):
    """Sidecar audit file: (source_id, failed_rule, offending_value)."""
    write_csv(path, ["source_id", "failed_rule", "offending_value"],
              ([rej.record.source_id, rej.rule, rej.value] for rej in rejections))
