"""CSV ingest against its per-cell definition (``tests/oracles/csv_cells``).

``read_relation_csv`` has two paths: a file read against a schema takes
one typed ``np.loadtxt`` pass where that is provably exact, and every
other file the csv.reader path, which casts whole numeric columns with
numpy's ``StringDType``; both parse TEXT once per distinct cell.  The
oracle parses every cell on its own.  Generated small tables — with and
without a schema, with and without a one- or two-column primary key — draw
their cells from an adversarial pool (signs, underscores, non-ASCII
digits and padding, ``5.0`` under INT, ``-0``, ``1e400``, 400-digit and
int64-edge integers, NaN spellings, NULL spellings, quotes, commas,
newlines and NUL inside fields), and every column must match in dtype
and bytes (sign of zero and NaN bits included), inferred type and
dictionary encoding.  An error must match too: the oracle's exception
is the ``__cause__`` of production's located ``SchemaError``.

Beside it: a named file per fallback trigger of the typed pass (each
must take the csv.reader path), the bugs the definition exposed at the
parent commit, the error contract (located, typed, one CLI line; a
malformed ``schema.json`` too), and the two gate datasets saved and
read back through both paths.

CI also runs this file under the deterministic raised-example profile
(``HYPOTHESIS_PROFILE=ci``).
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.db import ColumnType, Database, Relation, SchemaError, TableSchema
from repro.db import csvio
from repro.db.csvio import load_database, read_relation_csv, save_database
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
    except (
        SchemaError, IntegrityError, ValueError, OverflowError, csv.Error
    ) as exc:
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


def spy_typed_pass(monkeypatch) -> list[bool]:
    """Record, per schema-bound read, whether the typed pass took it."""
    taken: list[bool] = []
    typed_storage = csvio._typed_storage

    def spy(text, schema):
        storage = typed_storage(text, schema)
        taken.append(storage is not None)
        return storage

    monkeypatch.setattr(csvio, "_typed_storage", spy)
    return taken


def test_reader_matches_per_cell_oracle(tmp_path_factory, monkeypatch):
    taken = spy_typed_pass(monkeypatch)

    @given(table=tables())
    def check(table):
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

    check()
    # Both readers are held to the oracle only if generated files reach
    # the typed pass: 57 of the ci profile's 200 do; a random run's
    # share swings (6 of 100 was seen), so it must only reach it once.
    floor = 40 if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 1
    assert sum(taken) >= floor, (sum(taken), len(taken))


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
# The typed pass and the csv.reader path it falls back to
# ----------------------------------------------------------------------
KXS = {"k": ColumnType.INT, "x": ColumnType.FLOAT, "s": ColumnType.TEXT}

# Files the typed pass reads: file text (header k,x,s).
TYPED_FILES = {
    "crlf": "k,x,s\r\n1,1.5,a\r\n2,2.5, b \r\n",
    "no_final_newline": "k,x,s\n1,1.5,a\n2,2.5,b",
    "padded_numbers": "k,x,s\n 4 ,\xa01.5\xa0,007\n+5,-2e3,#x\n",
    "nul_and_separators_in_text": "k,x,s\n1,1.5,a\x00\n2,2.5,\x1c5\n",
}

# One file per fallback trigger: file text (header k,x,s).
FALLBACK_FILES = {
    "quote": 'k,x,s\r\n1,1.5,"a,b"\r\n',
    "lone_cr": "k,x,s\r1,1.5,a\r2,2.5,b\r",
    "cr_inside_a_line": "k,x,s\n1,1.5,a\rb\n",
    "header_not_the_schema": "k,x,S\n1,1.5,a\n",
    "header_only": "k,x,s\r\n",
    "blank_line": "k,x,s\n1,1.5,a\n\n2,2.5,b\n",
    "blank_last_line": "k,x,s\n1,1.5,a\n\n",
    "empty_numeric_cell": "k,x,s\n1,,a\n",
    "empty_text_cell": "k,x,s\n1,1.5,\n",
    "empty_first_cell": "k,x,s\n,1.5,a\n",
    "null_spelled_out": "k,x,s\n NULL ,1.5,a\n2,2.5,b\n",
    "blank_cell": "k,x,s\n1, ,a\n",
    "ragged_row": "k,x,s\n1,1.5\n",
    "int_past_int64": f"k,x,s\n{2**63},1.5,a\n",
    "underscore_digits": "k,x,s\n1_000,1.5,a\n",
    "non_ascii_digits": "k,x,s\n\u0661\u0662,1.5,a\n",
    "float_literal_under_int": "k,x,s\n5.0,1.5,a\n",
    "float_nan": "k,x,s\n1,nan,a\n",
    "float_inf": "k,x,s\n1,inf,a\n",
    "float_minus_inf": "k,x,s\n1,-inf,a\n",
    "float_huge_int": "k,x,s\n1,1" + "0" * 400 + ",a\n",
    "int_minus_zero_under_float": "k,x,s\n1,-0,a\n",
    "float_minus_zero": "k,x,s\n1,-0.0,a\n",
}


def read_file(tmp_path, monkeypatch, text):
    """Write ``text`` verbatim, compare both readers on it against the
    oracle and return whether the typed pass took the file."""
    path = tmp_path / "t.csv"
    with path.open("w", newline="") as handle:
        handle.write(text)
    taken = spy_typed_pass(monkeypatch)
    assert_same_outcome(path, schema=TableSchema.build("t", KXS))
    (typed,) = taken
    return typed


@pytest.mark.parametrize("text", TYPED_FILES.values(), ids=TYPED_FILES.keys())
def test_typed_pass_equals_oracle(tmp_path, monkeypatch, text):
    assert read_file(tmp_path, monkeypatch, text)


@pytest.mark.parametrize(
    "text", FALLBACK_FILES.values(), ids=FALLBACK_FILES.keys()
)
def test_fallback_trigger_equals_oracle(tmp_path, monkeypatch, text):
    assert not read_file(tmp_path, monkeypatch, text)


def test_line_past_csv_field_limit_falls_back(tmp_path, monkeypatch):
    # A padded number the typed pass would read; csv.reader refuses the
    # field, and so must the reader.
    limit = csv.field_size_limit(16)
    try:
        assert not read_file(
            tmp_path, monkeypatch, "k,x,s\n1," + " " * 20 + "1.5,a\n"
        )
    finally:
        csv.field_size_limit(limit)


def test_row_count_mismatch_falls_back(tmp_path, monkeypatch):
    # No known input makes np.loadtxt drop a row silently; a parse that
    # did would still go to the csv.reader path.
    loadtxt = np.loadtxt
    monkeypatch.setattr(
        np, "loadtxt", lambda *args, **kwargs: loadtxt(*args, **kwargs)[:-1]
    )
    assert not read_file(tmp_path, monkeypatch, "k,x,s\n1,1.5,a\n2,2.5,b\n")


@pytest.mark.parametrize("dataset", ["nba", "mimic"])
def test_both_readers_save_the_same_store(dataset, tmp_path, monkeypatch):
    """A gate dataset at 0.05 read by the typed pass and, quoted, by the
    csv.reader path: every file ``Database.save`` writes is the same."""
    from repro.datasets import load_mimic, load_nba

    db, _ = {"nba": load_nba, "mimic": load_mimic}[dataset](scale=0.05)
    plain, quoted = tmp_path / "plain", tmp_path / "quoted"
    save_database(db, plain)
    quoted.mkdir()
    for source in plain.iterdir():
        target = quoted / source.name
        if source.suffix != ".csv":
            target.write_bytes(source.read_bytes())
            continue
        with source.open(newline="") as src:
            rows = list(csv.reader(src))
        with target.open("w", newline="") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(rows)
    taken = spy_typed_pass(monkeypatch)
    load_database(plain).save(tmp_path / "typed")
    assert sum(taken) >= len(taken) - 1  # MIMIC's patients holds a NULL
    del taken[:]
    load_database(quoted).save(tmp_path / "cells")
    assert taken and not any(taken)
    files = sorted(p.name for p in (tmp_path / "typed").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "cells").iterdir())
    for name in files:
        assert (tmp_path / "typed" / name).read_bytes() == (
            tmp_path / "cells" / name
        ).read_bytes(), name


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


# ----------------------------------------------------------------------
# A malformed CSV catalog fails closed before any CSV is read
# ----------------------------------------------------------------------
def _edit_catalog(edit):
    """A catalog edit applied to the parsed ``schema.json``."""

    def apply(directory):
        path = directory / "schema.json"
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))

    return apply


def _rename_table(meta, name):
    meta["tables"] = {name: meta["tables"].pop("t"), **meta["tables"]}


def _column_of(meta, name):
    columns = meta["tables"]["t"]["columns"]
    (column,) = (c for c in columns if c["name"] == name)
    return column


# (edit of the database directory, what the error must name).
MALFORMED_CATALOGS = {
    "no_catalog": (lambda d: (d / "schema.json").unlink(), None),
    "not_json": (lambda d: (d / "schema.json").write_text("{not json"), None),
    "json_list": (lambda d: (d / "schema.json").write_text("[]"), None),
    "tables_list": (
        _edit_catalog(lambda m: m.update(tables=list(m["tables"]))),
        "tables",
    ),
    "no_columns": (
        _edit_catalog(lambda m: m["tables"]["t"].pop("columns")), "'t'"
    ),
    "column_without_name": (
        _edit_catalog(lambda m: _column_of(m, "k").pop("name")), "'t'"
    ),
    "invalid_column_name": (
        _edit_catalog(lambda m: _column_of(m, "k").update(name="k k")), "'t'"
    ),
    "blob_type": (
        _edit_catalog(lambda m: _column_of(m, "k").update(type="blob")), "'k'"
    ),
    "key_not_a_list": (
        _edit_catalog(lambda m: m["tables"]["t"].update(primary_key="k")),
        "'t'",
    ),
    "key_not_a_column": (
        _edit_catalog(lambda m: m["tables"]["t"].update(primary_key=["z"])),
        "'z'",
    ),
    "missing_csv": (lambda d: (d / "t.csv").unlink(), "t.csv"),
    "table_outside_directory": (
        _edit_catalog(lambda m: _rename_table(m, "../../etc/passwd")),
        "'../../etc/passwd'",
    ),
    "table_name_dot_dot": (
        _edit_catalog(lambda m: _rename_table(m, "..")), "'..'"
    ),
    "foreign_keys_not_a_list": (
        _edit_catalog(lambda m: m.update(foreign_keys=5)), "foreign_keys"
    ),
    "malformed_foreign_key": (
        _edit_catalog(lambda m: m["foreign_keys"].append({"table": "t"})),
        "foreign key",
    ),
}


@pytest.mark.parametrize(
    "edit,named", MALFORMED_CATALOGS.values(), ids=MALFORMED_CATALOGS.keys()
)
def test_malformed_catalog(tmp_path, capsys, monkeypatch, edit, named):
    """A ``schema.json`` that is missing, not JSON, not shaped like one
    ``save_database`` writes, that names a file outside the directory or
    a CSV that is not there is a SchemaError naming schema.json and the
    table or column — raised before any CSV is opened — and the CLI
    prints it as one ``error:`` line."""
    schema = TableSchema.build(
        "t", {"k": ColumnType.INT, "s": ColumnType.TEXT}, primary_key=("k",)
    )
    db = Database(name="d")
    db.add_relation(Relation.from_rows(schema, [(1, "a"), (2, None)]))
    db.add_relation(Relation.from_rows(
        TableSchema.build("u", {"k": ColumnType.INT}), [(1,)]
    ))
    db.add_foreign_key("u", ["k"], "t", ["k"])
    directory = tmp_path / "db"
    save_database(db, directory)
    edit(directory)
    opened = []
    read = csvio.read_relation_csv
    monkeypatch.setattr(
        csvio,
        "read_relation_csv",
        lambda path, **kwargs: opened.append(path) or read(path, **kwargs),
    )
    with pytest.raises(SchemaError, match=r"schema\.json") as info:
        load_database(directory)
    if named is not None:
        assert named in str(info.value)
    # A foreign key is declared once its tables are read.
    assert bool(opened) == (named == "foreign key")
    code = main(["ingest", str(directory), "--out", str(tmp_path / "store")])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err == [f"error: {info.value}"]
