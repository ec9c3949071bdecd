import csv
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fehforge import catalog
from fehforge.catalog import (LightCurve, SelectionCriteria, SplitSpec,
                              StarRecord, apply_selection, join_photometry,
                              load_catalog, load_photometry,
                              split_train_validation, write_rejection_report)
from fehforge.errors import (DegenerateSplit, DuplicateEpoch, EmptyCatalog,
                             MissingColumn, OrphanStar, ParseError)

CATALOG = """id,source_id,period,amp_g,n_epochs,feh,feh_sigma,phi31_sigma,epoch_max
0,100,0.55,0.9,80,-1.5,0.2,0.05,2450000.0
1,200,0.62,1.1,60,-0.8,0.3,0.02,
2,300,0.48,1.6,90,-2.0,0.1,0.03,2450001.0
3,400,0.51,0.7,40,-1.2,0.2,0.04,2450002.0
"""


def make_record(**kw):
    base = dict(id=0, source_id=1, period=0.5, amp_g=1.0, n_epochs=80,
                feh=-1.0, feh_sigma=0.2, phi31_sigma=0.05)
    base.update(kw)
    return StarRecord(**base)


def test_load_catalog_basic(tmp_path):
    path = tmp_path / "cat.csv"
    path.write_text(CATALOG)
    records = load_catalog(path)
    assert len(records) == 4
    assert records[0].source_id == 100
    # epoch_max is accepted and not read
    assert all(rec.epoch_max is None for rec in records)
    assert records[1].period == 0.62


def test_load_catalog_aliases_and_delimiter(tmp_path):
    path = tmp_path / "cat.txt"
    path.write_text("source_id;P;AmpG;epochs;met;sigma_feh\n"
                    "7;0.6;0.8;55;-1.1;0.25\n")
    (rec,) = load_catalog(path)
    assert rec.source_id == 7
    assert rec.amp_g == 0.8
    assert rec.n_epochs == 55
    assert rec.phi31_sigma == 0.0       # optional column absent -> default


def test_load_catalog_missing_column(tmp_path):
    path = tmp_path / "cat.csv"
    path.write_text("source_id,period,amp_g,n_epochs,feh\n1,0.5,1,60,-1\n")
    with pytest.raises(MissingColumn):
        load_catalog(path)


def test_load_catalog_parse_error_reports_row(tmp_path):
    path = tmp_path / "cat.csv"
    path.write_text("source_id,period,amp_g,n_epochs,feh,feh_sigma\n"
                    "1,0.5,1.0,60,-1.0,0.2\n"
                    "2,oops,1.0,60,-1.0,0.2\n")
    with pytest.raises(ParseError) as err:
        load_catalog(path)
    assert "row 3" in str(err.value)
    assert "period" in str(err.value)


def test_load_catalog_empty(tmp_path):
    path = tmp_path / "cat.csv"
    path.write_text("source_id,period,amp_g,n_epochs,feh,feh_sigma\n")
    with pytest.raises(EmptyCatalog):
        load_catalog(path)


def test_selection_rules_and_order():
    records = [
        make_record(source_id=1),                          # passes
        make_record(source_id=2, feh_sigma=0.5),           # feh_sigma cut
        make_record(source_id=3, amp_g=1.5),               # amplitude cut
        make_record(source_id=4, n_epochs=10),             # epoch-count cut
        make_record(source_id=5, phi31_sigma=0.2),         # phi31 cut
        # multiple failures: first failing rule in fixed order wins
        make_record(source_id=6, feh_sigma=0.9, amp_g=9.0),
    ]
    accepted, rejected = apply_selection(records, SelectionCriteria())
    assert [r.source_id for r in accepted] == [1]
    rules = {rej.record.source_id: rej.rule for rej in rejected}
    assert rules == {2: "max_feh_sigma", 3: "max_amp_g", 4: "min_epochs",
                     5: "max_phi31_sigma", 6: "max_feh_sigma"}


def test_selection_boundary_values_pass():
    rec = make_record(feh_sigma=0.4, amp_g=1.4, n_epochs=50, phi31_sigma=0.10)
    accepted, rejected = apply_selection([rec])
    assert accepted == [rec] and rejected == []


def test_selection_idempotent():
    records = [make_record(source_id=i, amp_g=0.5 + 0.1 * i) for i in range(12)]
    accepted, _ = apply_selection(records)
    again, rejected = apply_selection(accepted)
    assert again == accepted and rejected == []


def test_split_deterministic_and_disjoint():
    records = [make_record(source_id=i) for i in range(100)]
    spec = SplitSpec(train_fraction=0.8, seed=42)
    tr1, va1 = split_train_validation(records, spec)
    tr2, va2 = split_train_validation(records, spec)
    assert tr1 == tr2 and va1 == va2
    assert len(tr1) == 80 and len(va1) == 20
    ids = {r.source_id for r in tr1} | {r.source_id for r in va1}
    assert ids == set(range(100))
    # a different seed permutes differently
    tr3, _ = split_train_validation(records, SplitSpec(0.8, seed=43))
    assert tr3 != tr1


def test_split_default_fraction_reproduces_published_counts():
    records = [make_record(source_id=i) for i in range(6002)]
    train, valid = split_train_validation(records, SplitSpec())
    assert len(train) == 4801 and len(valid) == 1201


def test_split_degenerate():
    with pytest.raises(DegenerateSplit):
        split_train_validation([make_record()])
    records = [make_record(source_id=i) for i in range(5)]
    with pytest.raises(DegenerateSplit):
        split_train_validation(records, SplitSpec(train_fraction=0.999))


def test_join_photometry(tmp_path):
    path = tmp_path / "phot.csv"
    path.write_text("source_id,time_bjd,mag_g\n"
                    "1,2.0,15.1\n1,1.0,15.3\n1,3.0,15.2\n2,1.0,16.0\n")
    records = [make_record(source_id=1), make_record(source_id=2)]
    pairs = join_photometry(records, path)
    assert len(pairs) == 2
    np.testing.assert_array_equal(pairs[0][1].times, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(pairs[0][1].mags, [15.3, 15.1, 15.2])


def test_join_orphan_and_duplicate(tmp_path):
    path = tmp_path / "phot.csv"
    path.write_text("source_id,time_bjd,mag_g\n1,1.0,15.0\n1,1.0,15.1\n")
    with pytest.raises(OrphanStar):
        join_photometry([make_record(source_id=9)], path)
    with pytest.raises(DuplicateEpoch):
        join_photometry([make_record(source_id=1)], path)


def test_rejection_report(tmp_path):
    _, rejected = apply_selection([make_record(source_id=3, amp_g=2.0)])
    out = tmp_path / "rej.csv"
    write_rejection_report(out, rejected)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "source_id,failed_rule,offending_value"
    assert lines[1] == "3,max_amp_g,2.0"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=2, max_size=60,
                unique=True),
       st.integers(0, 2 ** 32 - 1))
def test_split_partition_property(ids, seed):
    records = [make_record(source_id=i) for i in ids]
    spec = SplitSpec(train_fraction=0.5, seed=seed)
    train, valid = split_train_validation(records, spec)
    assert len(train) + len(valid) == len(records)
    assert {r.source_id for r in train}.isdisjoint(
        {r.source_id for r in valid})


# --- exact integers, short rows, the two photometry parsers -----------------

@pytest.mark.parametrize("raw, value", [
    ("12", 12), (" 12 ", 12), ("+5", 5), ("-0", 0), ("12.0", 12), ("1e3", 1000),
    ("5937126236232323456", 5937126236232323456),
    ("9223372036854775807", 2 ** 63 - 1), ("-9223372036854775808", -2 ** 63),
    ("9007199254740992.0", 2 ** 53),
])
def test_parse_int_is_exact(raw, value):
    assert catalog._parse_value(raw, int, 2, "source_id", None) == value


@pytest.mark.parametrize("raw", [
    "12.5", "1e-3", "nan", "inf", "1e300", "9007199254740993.0",
    "4503599627370496.5", "9223372036854775808", "-9223372036854775809", "", "x",
])
def test_parse_int_rejects_inexact_or_out_of_range(raw):
    with pytest.raises(ParseError) as err:
        catalog._parse_value(raw, int, 7, "source_id", None)
    assert err.value.row == 7 and err.value.field == "source_id"


def test_load_catalog_short_row_is_parse_error(tmp_path):
    path = tmp_path / "cat.csv"
    path.write_text("source_id,period,amp_g,n_epochs,feh,feh_sigma\n"
                    "1,0.5,1.0,60,-1.0,0.2\n\n"
                    "2,0.5,1.0\n")
    with pytest.raises(ParseError) as err:
        load_catalog(path)
    assert (err.value.row, err.value.field) == (4, "n_epochs")


def reference_photometry(path, delimiter):
    """The original algorithm: csv rows, Python int/float, sorted (t, m)
    tuples per star."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    header = [h.strip().lower() for h in rows[0]]
    cols = [header.index(name) for name in ("source_id", "time_bjd", "mag_g")]
    by_star = {}
    for row in rows[1:]:
        if row and any(c.strip() for c in row):
            sid, t, m = (row[i].strip() for i in cols)
            sid = int(sid) if sid.lstrip("+-").isdigit() else int(float(sid))
            by_star.setdefault(sid, []).append((float(t), float(m)))
    return {sid: (np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))
            for sid, pts in ((s, sorted(p)) for s, p in by_star.items())}


def parse_both(path):
    """(fast result, whether it fell back, row-parser result)."""
    spy = mock.patch.object(catalog, "_photometry_rows",
                            wraps=catalog._photometry_rows)
    with spy as rows:
        fast = load_photometry(path)
    with mock.patch.object(catalog.np, "loadtxt", side_effect=ValueError):
        slow = load_photometry(path)
    return fast, rows.called, slow


def assert_same_curves(got, expected):
    assert list(got) == sorted(expected)
    for sid, curve in got.items():
        assert isinstance(curve, LightCurve) and curve.source_id == sid
        for arr, ref in zip((curve.times, curve.mags), expected[sid]):
            assert arr.dtype == np.float64 and arr.tobytes() == ref.tobytes()


GAIA_IDS = (5937126236232323456, 5937126236232323457)
ROWS = [(GAIA_IDS[1], 2.5, 15.25), (7, 1.0, 16.5), (GAIA_IDS[0], 2.5, 15.0),
        (7, 0.5, -0.0), (GAIA_IDS[1], -1.0e-7, 14.75), (7, 3.0, 16.0),
        (7, 1.0, 15.5)]     # a repeated time: the magnitude breaks the tie


def write_table(path, rows, order=(0, 1, 2), delim=",", eol="\n", fmt=repr):
    names = ("source_id", "time_bjd", "mag_g")
    lines = [delim.join(names[i] for i in order)]
    lines += [delim.join(str(r[0]) if i == 0 else fmt(r[i]) for i in order)
              for r in rows]
    path.write_text(eol.join(lines) + eol, newline="")


@pytest.mark.parametrize("delim", [",", ";", "\t", "|"])
@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_fast_parse_matches_row_parser(tmp_path, delim, order, eol):
    path = tmp_path / "phot.txt"
    write_table(path, ROWS, order, delim, eol)
    fast, fell_back, slow = parse_both(path)
    assert not fell_back
    expected = reference_photometry(path, delim)
    assert set(expected) == {7, *GAIA_IDS}
    assert_same_curves(fast, expected)
    assert_same_curves(slow, expected)


@pytest.mark.parametrize("edit, falls_back", [
    (lambda text: text.replace("\n7,", '\n"7",', 1), True),      # quoted field
    (lambda text: text.replace("\n7,", "\n7.0,", 1), True),      # float id
    (lambda text: text.replace("\n7,", "\n   \n7,", 1), True),   # whitespace row
    (lambda text: text + "\t\n", True),                         # tab-only row
    (lambda text: text.replace("\n7,", "\n\n\n7,", 1), False),   # blank rows
], ids=["quoted", "float_id", "whitespace_row", "tab_row", "blank_rows"])
def test_fallback_input_gives_the_same_curves(tmp_path, edit, falls_back):
    path = tmp_path / "phot.csv"
    write_table(path, ROWS)
    path.write_text(edit(path.read_text()), newline="")
    fast, fell_back, slow = parse_both(path)
    assert fell_back == falls_back
    expected = reference_photometry(path, ",")
    assert_same_curves(fast, expected)
    assert_same_curves(slow, expected)


@pytest.mark.parametrize("bad, field", [
    ("7,nan,16.0", "time"), ("7,1.5,inf", "mag"), ("7,-inf,16.0", "time"),
    ("7,1.5,NaN", "mag"), ("#7,1.5,16.0", "source_id"), ("7,1.5", "mag"),
    ("7.5,1.5,16.0", "source_id"), ("99999999999999999999,1.5,16.0", "source_id"),
])
def test_bad_photometry_row_reports_its_row(tmp_path, bad, field):
    path = tmp_path / "phot.csv"
    path.write_text("source_id,time_bjd,mag_g\n7,0.5,16.0\n\n\n" + bad
                    + "\n7,2.5,16.1\n")
    with pytest.raises(ParseError) as err:
        load_photometry(path)
    assert (err.value.row, err.value.field) == (5, field)


def test_header_only_photometry_is_empty(tmp_path):
    path = tmp_path / "phot.csv"
    path.write_text("source_id,time_bjd,mag_g\n")
    assert load_photometry(path) == {}


def test_load_photometry_missing_column(tmp_path):
    path = tmp_path / "phot.csv"
    path.write_text("source_id,time_bjd,flux\n1,2.0,3.0\n")
    with pytest.raises(MissingColumn, match="'mag'"):
        load_photometry(path)


def _number(draw_float):
    return st.one_of(
        st.builds(repr, draw_float), st.builds("{:.6e}".format, draw_float),
        st.builds("{:.3f}".format, draw_float), st.builds("{:.17g}".format, draw_float))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-3, 0, 12, 2 ** 62, *GAIA_IDS]),
                          _number(st.floats(-1e9, 1e9, allow_subnormal=True)),
                          _number(st.floats(-50, 50))),
                min_size=1, max_size=40),
       st.permutations((0, 1, 2)), st.sampled_from([",", ";", "\t", "|"]),
       st.sampled_from(["\n", "\r\n"]), st.lists(st.booleans(), max_size=40),
       st.booleans())
def test_random_tables_parse_alike(rows, order, delim, eol, blanks, quote):
    names = ("source_id", "time_bjd", "mag_g")
    lines = [delim.join(names[i] for i in order)]
    for k, row in enumerate(rows):
        if k < len(blanks) and blanks[k]:
            lines.append("")
        cells = [str(row[0]), row[1], row[2]]
        if quote and k == len(rows) - 1:
            cells[1] = f'"{cells[1]}"'
        lines.append(delim.join(cells[i] for i in order))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "phot.txt")
        with open(path, "w", newline="") as fh:
            fh.write(eol.join(lines) + eol)
        fast, fell_back, slow = parse_both(path)
        expected = reference_photometry(path, delim)
    assert fell_back == quote
    assert_same_curves(fast, expected)
    assert_same_curves(slow, expected)
