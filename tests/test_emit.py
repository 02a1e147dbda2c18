"""Table output: the column-wise emitters write the bytes of per-cell references."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkers_return.cli import Table, emit_csv, emit_gnuplot, emit_json

SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-310, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0, 1e16, 123456789012345678.0,
]
INT64 = st.integers(-(2**63), 2**63 - 1)
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())


@st.composite
def tables(draw, min_width=1):
    """(column names, columns as Python lists, integer flags, meta)."""
    width = draw(st.integers(min_width, 4))
    names = draw(st.lists(st.text(max_size=6), min_size=width, max_size=width, unique=True))
    nrows = draw(st.sampled_from([0, 1, draw(st.integers(0, 12))]))
    integer = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    columns = [
        draw(st.lists(INT64 if is_int else FLOATS, min_size=nrows, max_size=nrows)) for is_int in integer
    ]
    meta_values = st.one_of(
        FLOATS, INT64, st.text(max_size=5), st.lists(FLOATS, max_size=3),
        st.dictionaries(st.text(max_size=4), FLOATS, max_size=3),
    )
    meta = draw(st.dictionaries(st.text(max_size=6), meta_values, max_size=4))
    return names, columns, integer, meta


def _table(names, columns, integer, meta):
    data = [np.array(column, dtype=np.int64 if is_int else float) for column, is_int in zip(columns, integer)]
    return Table(columns=names, meta=meta, data=data)


def _cell(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.17g}"


def _rows(columns):
    return list(zip(*columns)) if columns[0] else []


def _reference_csv(names, columns):
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(names)
    for row in _rows(columns):
        writer.writerow([_cell(value) for value in row])
    return stream.getvalue()


def _reference_json(names, columns, meta):
    stream = io.StringIO()
    records = [dict(zip(names, row)) for row in _rows(columns)]
    json.dump({"meta": meta, "rows": records}, stream, indent=2)
    stream.write("\n")
    return stream.getvalue()


def _reference_gnuplot(names, columns):
    lines = [f"# {names[0]} {names[1]}\n"]
    lines += [f"{_cell(row[0])} {_cell(row[1])}\n" for row in _rows(columns)]
    return "".join(lines)


def _emitted(emitter, table):
    stream = io.StringIO()
    emitter(table, stream)
    return stream.getvalue()


@given(tables())
@settings(max_examples=120, deadline=None)
def test_csv_matches_per_cell_writer(case):
    names, columns, integer, meta = case
    table = _table(*case)
    assert len(table.rows) == len(columns[0])
    assert _emitted(emit_csv, table) == _reference_csv(names, columns)


@given(tables())
@settings(max_examples=120, deadline=None)
def test_json_matches_indented_json_dump(case):
    names, columns, integer, meta = case
    assert _emitted(emit_json, _table(*case)) == _reference_json(names, columns, meta)


@given(tables(min_width=2))
@settings(max_examples=60, deadline=None)
def test_gnuplot_matches_per_cell_lines(case):
    names, columns, integer, meta = case
    assert _emitted(emit_gnuplot, _table(*case)) == _reference_gnuplot(names, columns)


def test_tables_longer_than_one_block_of_rows():
    rng = np.random.default_rng(3)
    nrows = 2 * 4096 + 3
    floats = rng.standard_normal(nrows) * 10.0 ** rng.integers(-300, 300, nrows)
    floats[[0, 4095, 4096, nrows - 1]] = [math.nan, math.inf, -0.0, -math.inf]
    names = ["x", "p"]
    columns = [list(range(-nrows // 2, nrows - nrows // 2)), floats.tolist()]
    case = (names, columns, [True, False], {"time": nrows})
    assert _emitted(emit_csv, _table(*case)) == _reference_csv(names, columns)
    assert _emitted(emit_json, _table(*case)) == _reference_json(names, columns, case[3])
    assert _emitted(emit_gnuplot, _table(*case)) == _reference_gnuplot(names, columns)


# Column names that a row template could misread: conversion specifiers,
# str.format fields, JSON escapes, a line break and non-ASCII text.
AWKWARD_NAMES = ["%", "%%", "%s", "{", "}", "{0}", '"', "\\", "a\nb", "Größe π", "x%d{}"]


@pytest.mark.parametrize("name", AWKWARD_NAMES)
def test_awkward_column_names(name):
    names = [name, "p", name + "%"]
    columns = [[-1, 0, 7], [0.1, math.nan, -0.0], [math.inf, 5e-324, 1e308]]
    case = (names, columns, [True, False, False], {name: name})
    assert _emitted(emit_csv, _table(*case)) == _reference_csv(names, columns)
    assert _emitted(emit_json, _table(*case)) == _reference_json(names, columns, case[3])
    assert _emitted(emit_gnuplot, _table(*case)) == _reference_gnuplot(names, columns)


@pytest.mark.parametrize("nrows", [0, 1, 4095, 4096, 4097])
def test_tables_at_the_block_boundary(nrows):
    rng = np.random.default_rng(nrows)
    names = ["n", "r", "err"]
    floats = rng.standard_normal(nrows) * 10.0 ** rng.integers(-300, 300, nrows)
    columns = [list(range(nrows)), floats.tolist(), (-floats / 3).tolist()]
    case = (names, columns, [True, False, False], {"rows": nrows})
    assert _emitted(emit_csv, _table(*case)) == _reference_csv(names, columns)
    assert _emitted(emit_json, _table(*case)) == _reference_json(names, columns, case[3])
    assert _emitted(emit_gnuplot, _table(*case)) == _reference_gnuplot(names, columns)


def test_json_non_finite_cells_on_both_sides_of_a_block_boundary():
    nrows = 4096 + 5
    values = np.linspace(-1.0, 1.0, nrows)
    values[[4093, 4094, 4095, 4096, 4097, 4098]] = [math.nan, math.inf, -math.inf, -math.inf, math.nan, math.inf]
    names = ["i", "v"]
    columns = [list(range(nrows)), values.tolist()]
    emitted = _emitted(emit_json, _table(names, columns, [True, False], {}))
    assert emitted == _reference_json(names, columns, {})
    assert '"v": -Infinity\n    },\n    {\n      "i": 4096,\n      "v": -Infinity' in emitted


def test_rows_stop_at_the_shortest_column():
    table = Table(["a", "b"], [np.arange(5), np.array([0.5, 1.5])])
    assert _emitted(emit_csv, table) == "a,b\n0,0.5\n1,1.5\n"
    assert _emitted(emit_gnuplot, table) == "# a b\n0 0.5\n1 1.5\n"
