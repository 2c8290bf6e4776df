"""CSV ingest against its per-cell definition (``tests/oracles/csv_cells``).

``read_relation_csv`` casts whole numeric columns with numpy's
``StringDType`` and parses the rest once per distinct cell; the oracle
parses every cell on its own.  Generated small tables — with and without
a schema, with and without a one- or two-column primary key — draw
their cells from an adversarial pool (signs, underscores, non-ASCII
digits and padding, ``5.0`` under INT, ``-0``, ``1e400``, 400-digit and
int64-edge integers, NaN spellings, NULL spellings, quotes, commas,
newlines and NUL inside fields), and every column must match in dtype
and bytes (sign of zero and NaN bits included), inferred type and
dictionary encoding.  An error must match too: the oracle's exception
is the ``__cause__`` of production's located ``SchemaError``.

Beside it: the bugs the definition exposed at the parent commit, the
error contract (located, typed, one CLI line), and the two gate
datasets saved and read back.

CI also runs this file under the deterministic raised-example profile
(``HYPOTHESIS_PROFILE=ci``).
"""

from __future__ import annotations

import csv
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.db import ColumnType, Relation, SchemaError, TableSchema
from repro.db.csvio import read_relation_csv, save_database
from repro.db.errors import IntegrityError
from repro.db.schema import Column
from tests.oracles.csv_cells import read_csv_cells, text_encoding

settings.register_profile(
    "ci", settings(max_examples=200, deadline=None, derandomize=True)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

POOLS = {
    "ints": ["0", "1", "2", "-3", "+5", "007", "1_000", "١٢", " 4 ",
             "\xa05\xa0", "　6　"],
    "floats": ["1.5", "-0.5", "2.0", "1e3", "-0", "-0.0", "0", "inf",
               "-inf", "1e400"],
    "nulls": ["", " ", "NULL", " NuLl ", "nan", "-nan", "+nan", "NaN"],
    "text": ["a", " a", "b", "a,b", 'say "hi"', "two\nlines", "\x1c5",
             "5\x1c", "1__0", "True", "5\x00", "a\x00"],
    "edges": [str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1),
              "1" + "0" * 400, "9007199254740993", "5.0"],
}
TYPES = [ColumnType.INT, ColumnType.FLOAT, ColumnType.TEXT]


@st.composite
def tables(draw):
    """(column types, rows, primary key) of a small adversarial table."""
    width = draw(st.integers(min_value=1, max_value=3))
    height = draw(st.integers(min_value=0, max_value=6))
    types, columns = [], []
    for _ in range(width):
        types.append(draw(st.sampled_from(TYPES)))
        groups = draw(
            st.lists(st.sampled_from(sorted(POOLS)), min_size=1, max_size=2,
                     unique=True)
        )
        pool = [cell for group in groups for cell in POOLS[group]]
        columns.append(
            draw(st.lists(st.sampled_from(pool), min_size=height,
                          max_size=height))
        )
    key = draw(st.sampled_from([(), ("c0",), ("c0", "c1")][: width + 1]))
    return types, [list(row) for row in zip(*columns)], key


def write_csv(path, header, rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def outcome(read, *args, **kwargs):
    try:
        return read(*args, **kwargs), None
    except (SchemaError, IntegrityError, ValueError, OverflowError) as exc:
        return None, exc


def assert_same_relation(got: Relation, want: Relation) -> None:
    assert got.schema == want.schema
    for name in want.column_names:
        a, b = got.column(name), want.column(name)
        assert a.dtype == b.dtype, name
        if b.dtype == object:
            assert [(type(v), v) for v in a] == [(type(v), v) for v in b]
            # The reader hands every TEXT column its encoding ready-made.
            enc, ref = got.encoding(name), text_encoding(want, name)
            assert enc.codes.dtype == ref.codes.dtype
            assert np.array_equal(enc.codes, ref.codes), name
            assert list(enc.code_of.items()) == list(ref.code_of.items())
            assert enc.none_code == ref.none_code
        else:
            assert a.tobytes() == b.tobytes(), (name, a, b)


def assert_same_outcome(path, name=None, schema=None) -> None:
    got, error = outcome(read_relation_csv, path, name=name, schema=schema)
    want, expected = outcome(read_csv_cells, path, name=name, schema=schema)
    if expected is None:
        assert error is None, error
        assert_same_relation(got, want)
    elif isinstance(expected, (ValueError, OverflowError)):
        assert isinstance(error, SchemaError), error
        cause = error.__cause__
        assert (type(cause), str(cause)) == (type(expected), str(expected))
    else:
        assert (type(error), str(error)) == (type(expected), str(expected))


@given(table=tables())
def test_reader_matches_per_cell_oracle(table, tmp_path_factory):
    types, rows, key = table
    header = [f"c{i}" for i in range(len(types))]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, rows)
    schema = TableSchema(
        name="t",
        columns=[Column(c, t) for c, t in zip(header, types)],
        primary_key=key,
    )
    assert_same_outcome(path, schema=schema)
    assert_same_outcome(path)


@pytest.mark.parametrize("dataset", ["nba", "mimic"])
def test_gate_datasets_match_oracle(dataset, gate_databases, tmp_path):
    """Both gate datasets at scale 0.25, saved and read back."""
    db, _ = gate_databases[dataset]
    save_database(db, tmp_path)
    for table in db.table_names:
        schema = db.table(table).schema
        path = tmp_path / f"{table}.csv"
        assert_same_relation(
            read_relation_csv(path, schema=schema),
            read_csv_cells(path, schema=schema),
        )
        assert_same_relation(read_relation_csv(path), read_csv_cells(path))


# ----------------------------------------------------------------------
# Bugs the per-cell definition exposed (each failed at the parent)
# ----------------------------------------------------------------------
def read_column(tmp_path, cells, ctype=None):
    path = tmp_path / "t.csv"
    write_csv(path, ["v"], [[c] for c in cells])
    schema = None if ctype is None else TableSchema.build("t", {"v": ctype})
    return read_relation_csv(path, schema=schema).column("v")


@pytest.mark.parametrize("ctype", [ColumnType.FLOAT, None])
def test_integer_minus_zero_in_float_column_is_positive_zero(tmp_path, ctype):
    # "-0" parses to the integer 0, so it stores +0.0; "-0.0" is -0.0.
    column = read_column(tmp_path, ["-0", "-0.0", "1.5"], ctype)
    assert column.dtype == np.float64
    assert np.signbit(column).tolist() == [False, True, False]


def test_signed_nan_with_schema_is_the_canonical_null(tmp_path):
    column = read_column(tmp_path, ["-nan", "1.5"], ColumnType.FLOAT)
    assert column[:1].tobytes() == np.array([np.nan]).tobytes()


@pytest.mark.parametrize("ctype", [ColumnType.FLOAT, None])
def test_huge_integer_in_float_column_is_an_overflow(tmp_path, ctype):
    with pytest.raises(SchemaError, match=r"t\.v, data row 2") as info:
        read_column(tmp_path, ["1.5", "1" + "0" * 400], ctype)
    assert isinstance(info.value.__cause__, OverflowError)


def test_int_literal_beyond_2_53_beside_a_float_literal_is_exact(tmp_path):
    column = read_column(tmp_path, ["5.0", "9007199254740993"], ColumnType.INT)
    assert column.tolist() == [5, 9007199254740993]


def test_nul_characters_are_kept_in_text(tmp_path):
    column = read_column(tmp_path, ["a\x00", "a"], ColumnType.TEXT)
    assert column.tolist() == ["a\x00", "a"]


def test_duplicate_key_message_shows_python_values(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "s"], [["1", "x"], ["1", "x"]])
    schema = TableSchema.build(
        "t", {"k": ColumnType.INT, "s": ColumnType.TEXT}, primary_key=("k", "s")
    )
    with pytest.raises(IntegrityError) as info:
        read_relation_csv(path, schema=schema)
    assert str(info.value) == "duplicate primary key (1, 'x') in table 't'"


# ----------------------------------------------------------------------
# A malformed CSV fails closed with a located, typed error
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "ctype, cells, row, cause",
    [
        (ColumnType.FLOAT, ["1.5", "2", "abc"], 3, ValueError),
        (ColumnType.INT, ["1", str(2**63)], 2, OverflowError),
        (ColumnType.INT, ["", "x", "y"], 2, ValueError),
        (ColumnType.INT, ["", "1" + "0" * 400], 2, OverflowError),
    ],
)
def test_bad_cell_names_table_column_row_and_cell(
    tmp_path, ctype, cells, row, cause
):
    with pytest.raises(SchemaError) as info:
        read_column(tmp_path, cells, ctype)
    message = str(info.value)
    assert message.startswith(f"t.v, data row {row}: ")
    assert repr(cells[row - 1]) in message
    assert isinstance(info.value.__cause__, cause)


def test_ragged_row_names_file_and_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(SchemaError, match=r"t\.csv, data row 2: row of width 1"):
        read_relation_csv(path)


def test_cli_prints_one_error_line(tmp_path, capsys):
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    write_csv(db_dir / "t.csv", ["v"], [["1.5"], ["abc"]])
    (db_dir / "schema.json").write_text(
        '{"name": "d", "tables": {"t": {"columns": '
        '[{"name": "v", "type": "float"}], "primary_key": []}}}'
    )
    code = main(["ingest", str(db_dir), "--out", str(tmp_path / "store")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        "error: t.v, data row 2: cannot read 'abc' as float (ValueError: "
        "could not convert string to float: 'abc')"
    ]
