"""CSV import/export for relations and whole databases.

A database directory contains one ``<table>.csv`` per relation plus a
``schema.json`` describing column types, primary keys and foreign keys, so
a save→load round-trip reproduces the catalog exactly.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np
from numpy.dtypes import StringDType

from .database import Database
from .errors import SchemaError
from .relation import Relation, TextColumn, encoding_from_distinct
from .schema import Column, TableSchema, is_path_component
from .types import (
    ColumnType,
    coerce_value,
    infer_column_type,
    is_null_literal,
    parse_literal,
)

_STRINGS = StringDType()

CATALOG_NAME = "schema.json"


def write_relation_csv(relation: Relation, path: str | Path) -> None:
    """Write a relation to a CSV file with a header row."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(relation.column_names)
        for row in relation.iter_rows():
            writer.writerow(["" if v is None else v for v in row])


def _convert(
    convert: Callable[[Any], Any],
    value: Any,
    cell: str,
    ctype: ColumnType,
    cells: Sequence[str],
    where: str,
) -> Any:
    """``convert(value)``; a failure is a :class:`SchemaError` naming the
    column, the first data row holding ``cell`` and the cell itself."""
    try:
        return convert(value)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(
            f"{where}, data row {cells.index(cell) + 1}: cannot read "
            f"{cell!r} as {ctype.value} ({type(exc).__name__}: {exc})"
        ) from exc


def _exact_floats(
    floats: np.ndarray, cells: Sequence[str], where: str
) -> np.ndarray:
    """Make a whole-column ``float()`` cast equal the per-cell definition.

    ``float(cell)`` and ``coerce_value(parse_literal(cell), FLOAT)``
    agree on every cell except the ones the cast reads as NaN (a NULL
    per cell), ±inf (an integer literal past float range raises per
    cell) or −0.0 (``-0`` is the integer 0 per cell); those few are
    re-read one at a time, in row order.
    """
    odd = ~np.isfinite(floats) | ((floats == 0) & np.signbit(floats))
    for i in np.flatnonzero(odd):
        value = _convert(
            lambda v: coerce_value(v, ColumnType.FLOAT),
            parse_literal(cells[i]), cells[i], ColumnType.FLOAT, cells, where,
        )
        floats[i] = np.nan if value is None else value
    return floats


def _nulls_as_nan(values: np.ndarray, null: np.ndarray) -> np.ndarray:
    """Numeric storage as ``from_rows`` builds it: a NULL cell is NaN, so
    a column with one is float64."""
    if not null.any():
        return values
    values = values.astype(np.float64)
    values[null] = np.nan
    return values


def _distinct_coerced(
    cells: Sequence[str], ctype: ColumnType | None, where: str
) -> tuple[np.ndarray | TextColumn, ColumnType]:
    """The per-cell definition, paid once per *distinct* cell.

    ``parse_literal`` + ``coerce_value`` run on each distinct raw cell
    and the results gather back over the column.  Distincts are numbered
    in first-occurrence order, so the first one that fails is the first
    row that fails, and a TEXT column's coerced distincts are its
    dictionary (:func:`encoding_from_distinct`).  Numeric
    storage is built per distinct as ``Relation.from_rows`` builds it
    per row: an INT column with a NULL is float64.  ``ctype=None``
    infers the type from the parsed distincts (``infer_column_type``).
    """
    index = {cell: j for j, cell in enumerate(dict.fromkeys(cells))}
    inverse = np.fromiter(map(index.__getitem__, cells), np.intp, len(cells))
    # Parse fresh copies: a stored TEXT value that is csv.reader's own
    # string keeps the freed rows' memory arenas resident.
    parsed = [
        parse_literal(cell)
        for cell in np.array(list(index), dtype=_STRINGS).tolist()
    ]
    if ctype is None:
        ctype = infer_column_type(parsed)
    table = np.empty(len(parsed), dtype=object)
    for j, (cell, value) in enumerate(zip(index, parsed)):
        table[j] = _convert(
            lambda v: coerce_value(v, ctype), value, cell, ctype, cells, where
        )
    if ctype is ColumnType.TEXT:
        return encoding_from_distinct(table, inverse), ctype
    nullable = ctype is ColumnType.FLOAT or any(v is None for v in table)
    store = np.float64 if nullable else np.int64
    values = np.array(
        [
            np.nan if v is None else _convert(store, v, cell, ctype, cells, where)
            for cell, v in zip(index, table)
        ],
        dtype=store,
    )
    return values[inverse], ctype


def _coerce_column(
    cells: Sequence[str], ctype: ColumnType, where: str
) -> np.ndarray | TextColumn:
    """Build one column's storage array under an explicit schema type.

    A numeric column first takes one whole-column ``StringDType`` cast:
    numpy calls ``int()`` / ``float()`` per element in C, and both
    already strip whitespace and reject ``''``, ``NULL`` and text, so a
    cast that succeeds proves the column holds no NULL and equals the
    per-cell definition (floats after :func:`_exact_floats`).  If it
    fails, the NULL cells are masked and the rest cast once more.  A
    column that still fails — ``5.0`` under INT, a NaN or a bad cell —
    and every TEXT column take :func:`_distinct_coerced`.
    """
    if ctype is not ColumnType.TEXT:
        strings = np.array(cells, dtype=_STRINGS)
        null = np.zeros(len(cells), dtype=bool)
        try:
            values = strings.astype(ctype.numpy_dtype())
        except (ValueError, OverflowError):
            null = np.fromiter(map(is_null_literal, cells), bool, len(cells))
            strings[null] = "0"
            try:
                values = strings.astype(ctype.numpy_dtype())
            except (ValueError, OverflowError):
                values = None
        if values is not None:
            if ctype is ColumnType.FLOAT:
                values = _exact_floats(values, cells, where)
            return _nulls_as_nan(values, null)
    return _distinct_coerced(cells, ctype, where)[0]


def _infer_column(
    cells: Sequence[str], where: str
) -> tuple[np.ndarray | TextColumn, ColumnType]:
    """Parse one schemaless column: (storage, inferred type).

    The definition is ``parse_literal`` per cell, ``infer_column_type``
    over the parsed values, then ``from_rows``.  With the NULL cells
    masked, two casts settle the common columns in C: if ``int()`` reads
    every other cell the column is INT; if it rejects one that
    ``float()`` reads, and ``float()`` reads every cell as a non-NaN
    number, that cell parses to a float, so the column is FLOAT.
    Everything else (all-NULL and NaN cells, text, ints past int64) is
    inferred per distinct.
    """
    null = np.fromiter(map(is_null_literal, cells), bool, len(cells))
    if not null.all():
        strings = np.array(cells, dtype=_STRINGS)
        strings[null] = "0"
        try:
            ints = strings.astype(np.int64)
            return _nulls_as_nan(ints, null), ColumnType.INT
        except OverflowError:
            pass
        except ValueError:
            try:
                floats = strings.astype(np.float64)
            except ValueError:
                floats = None
            if floats is not None and not np.isnan(floats).any():
                floats = _exact_floats(floats, cells, where)
                return _nulls_as_nan(floats, null), ColumnType.FLOAT
    return _distinct_coerced(cells, None, where)


def _irregular(text: str, start: int) -> bool:
    """Whether csv.reader could split the data lines (``text``'s UTF-8
    bytes from ``start`` on, in which ``,``, ``\\n`` and ``\\r`` never
    occur inside a character) other than one row per ``\\n`` and one
    cell per ``,``, or a row holds an empty cell: a blank line, an empty
    cell or a ``\\r`` outside ``\\r\\n``.  One vectorised scan, three
    byte masks."""
    raw = np.frombuffer(text.encode(), dtype=np.uint8)[start:]
    if raw[0] in (10, 13, 44) or raw[-1] in (13, 44):
        return True
    cr = raw == 13
    sep = raw == 44
    np.logical_or(sep, raw == 10, out=sep)
    # ",," ",\n" ",\r" "\n," "\n\n" "\n\r": an empty cell or line.
    pair = sep[1:] | cr[1:]
    np.logical_and(pair, sep[:-1], out=pair)
    if pair.any():
        return True
    np.equal(raw[1:], 10, out=pair)
    np.greater(cr[:-1], pair, out=pair)
    return bool(pair.any())


def _typed_storage(
    text: str, schema: TableSchema
) -> dict[str, np.ndarray | TextColumn] | None:
    """Every column of ``text`` from one ``np.loadtxt`` pass, or ``None``
    where that pass might differ from the per-cell definition.

    The dtype has one field per schema column: INT ``int64``, FLOAT
    ``float64``, TEXT ``object`` (the raw cell, parsed once per distinct
    by :func:`_distinct_coerced`).  Every numeric cell ``np.loadtxt``
    accepts reads equal to ``int()`` / ``float()``, and it rejects blank
    and ``NULL`` cells, ``1_000``, non-ASCII digits and ints past int64.
    So the pass is exact except where csv.reader would split the text
    differently or a float is one of the few the per-cell rule reads
    otherwise; those files return ``None`` for the csv.reader path:

    - a quote; a header other than the schema's column names; no data
      line; a line longer than csv's field size limit;
    - a blank line (csv.reader yields a ragged width-0 row, while
      ``np.loadtxt`` skips it), a ``\\r`` outside ``\\r\\n``, or an
      empty cell, which is how :func:`write_relation_csv` writes a NULL
      (:func:`_irregular`: found before parsing, so a NULL-bearing file
      pays no failed parse);
    - ``np.loadtxt`` raising or warning, or parsing a different number
      of rows than there are lines;
    - a FLOAT NaN, ±inf or −0.0 (per cell: NULL, an error or +0.0).
    """
    if '"' in text:
        return None
    end = text.find("\n")
    if end < 0:
        return None
    header = text[:end]
    if header.removesuffix("\r").split(",") != schema.column_names:
        return None
    if end + 1 == len(text) or _irregular(text, len(header.encode()) + 1):
        return None
    lines = text.split("\n")
    del lines[0]
    if not lines[-1]:
        lines.pop()
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    types = [column.ctype for column in schema.columns]
    dtype = np.dtype(
        [(f"c{i}", ctype.numpy_dtype()) for i, ctype in enumerate(types)]
    )
    try:
        # Older numpy reads an INT cell such as 1e20 through a float (and
        # truncates it) after a DeprecationWarning; as an error, such a
        # file takes the csv.reader path.  A line's closing \r ends it
        # here as it does for csv.reader.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parsed = np.loadtxt(
                lines, dtype=dtype, delimiter=",", comments=None, ndmin=1
            )
    except (ValueError, OverflowError, Warning):
        return None
    if len(parsed) != len(lines):
        return None
    fields = [parsed[f"c{i}"] for i in range(len(types))]
    for ctype, values in zip(types, fields):
        if ctype is ColumnType.FLOAT and (
            ~np.isfinite(values) | ((values == 0) & np.signbit(values))
        ).any():
            return None
    storage: dict[str, np.ndarray | TextColumn] = {}
    for column, values in zip(schema.columns, fields):
        if column.ctype is ColumnType.TEXT:
            where = f"{schema.name}.{column.name}"
            storage[column.name] = _distinct_coerced(
                values.tolist(), ColumnType.TEXT, where
            )[0]
        else:
            storage[column.name] = values.copy()
    return storage


def _cell_storage(
    path: Path, table: str, schema: TableSchema | None
) -> tuple[dict[str, np.ndarray | TextColumn], TableSchema]:
    """The csv.reader path: rows, transposed, then a column at a time —
    the only reader of quoted or NULL-bearing files, and of every file
    read without a schema.  Returns the storage and the (inferred)
    schema."""
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise SchemaError(f"CSV file {path} is empty") from exc
        rows = list(reader)
    if schema is not None and schema.column_names != header:
        raise SchemaError(
            f"CSV header {header} does not match schema "
            f"{schema.column_names}"
        )
    width = len(header)
    for number, row in enumerate(rows, start=1):
        if len(row) != width:
            raise SchemaError(
                f"{path}, data row {number}: row of width {len(row)} for "
                f"schema of width {width}"
            )
    columns_cells: list[Sequence[str]] = (
        list(zip(*rows)) if rows else [()] * width
    )

    storage: dict[str, np.ndarray | TextColumn] = {}
    columns = []
    for index, (cname, cells) in enumerate(zip(header, columns_cells)):
        where = f"{table}.{cname}"
        if schema is None:
            storage[cname], ctype = _infer_column(cells, where)
            columns.append(Column(cname, ctype))
        else:
            storage[cname] = _coerce_column(
                cells, schema.columns[index].ctype, where
            )
    if schema is None:
        schema = TableSchema(name=table, columns=columns)
    return storage, schema


def read_relation_csv(
    path: str | Path,
    name: str | None = None,
    schema: TableSchema | None = None,
) -> Relation:
    """Read a CSV file into a relation, column at a time.

    Without an explicit ``schema`` the column types are inferred from the
    parsed values (ints, floats, text; empty cells are NULL).  Every
    column equals the per-cell definition — ``parse_literal`` on each
    cell, then ``Relation.from_rows`` (``infer_column_type`` first,
    without a schema) — byte for byte; ``tests/oracles/csv_cells.py``
    states it.  Against a schema, :func:`_typed_storage` parses the
    file in one typed pass where that is provably exact; every other
    file takes the csv.reader path (:func:`_cell_storage`).  A
    ragged row is a :class:`SchemaError` naming the file and the data
    row; a cell its column's type cannot take is one naming
    ``<table>.<column>``, the data row and the cell, raised from the
    per-cell error.
    """
    path = Path(path)
    table = schema.name if schema is not None else name or path.stem
    storage = None
    if schema is not None:
        with path.open(newline="") as handle:
            storage = _typed_storage(handle.read(), schema)
    if storage is None:
        storage, schema = _cell_storage(path, table, schema)
    relation = Relation(schema, storage)
    if schema.primary_key:
        relation._check_primary_key()
    return relation


def save_database(db: Database, directory: str | Path) -> None:
    """Write every relation and the catalog metadata to ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta: dict[str, Any] = {"name": db.name, "tables": {}, "foreign_keys": []}
    for table_name in db.table_names:
        relation = db.table(table_name)
        write_relation_csv(relation, directory / f"{table_name}.csv")
        meta["tables"][table_name] = {
            "columns": [
                {"name": c.name, "type": c.ctype.value}
                for c in relation.schema.columns
            ],
            "primary_key": list(relation.schema.primary_key),
        }
    for fk in db.foreign_keys:
        meta["foreign_keys"].append(
            {
                "table": fk.table,
                "columns": list(fk.columns),
                "ref_table": fk.ref_table,
                "ref_columns": list(fk.ref_columns),
            }
        )
    (directory / CATALOG_NAME).write_text(json.dumps(meta, indent=2))


def _catalog_schema(directory: Path, table: str, info: Any) -> TableSchema:
    """One table's schema from its ``schema.json`` entry; a malformed
    entry, or one whose CSV is missing or outside ``directory``, is a
    :class:`SchemaError` naming the file and the table or column."""
    where = f"{CATALOG_NAME}: table {table!r}"
    if not is_path_component(table):
        raise SchemaError(f"{where}: not a single path component")
    if not isinstance(info, dict) or not isinstance(info.get("columns"), list):
        raise SchemaError(f"{where}: no 'columns' list")
    columns = []
    for column in info["columns"]:
        if not isinstance(column, dict) or not isinstance(
            column.get("name"), str
        ):
            raise SchemaError(f"{where}: a column entry has no name")
        try:
            ctype = ColumnType(column.get("type"))
        except ValueError:
            raise SchemaError(
                f"{where} column {column['name']!r}: unknown type "
                f"{column.get('type')!r}"
            ) from None
        columns.append((column["name"], ctype))
    key = info.get("primary_key", [])
    if not isinstance(key, list) or not all(isinstance(k, str) for k in key):
        raise SchemaError(f"{where}: 'primary_key' is not a list of names")
    try:
        schema = TableSchema(
            name=table,
            columns=[Column(name, ctype) for name, ctype in columns],
            primary_key=tuple(key),
        )
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from None
    if not (directory / f"{table}.csv").is_file():
        raise SchemaError(f"{where}: no {table}.csv in {directory}")
    return schema


def load_database(directory: str | Path) -> Database:
    """Load a database saved by :func:`save_database`.

    Fails closed: ``schema.json`` must be a JSON object with a
    ``tables`` object whose names are single path components, each with
    a ``columns`` list of names and known types and a ``<table>.csv``
    beside it; otherwise a :class:`SchemaError` names the file and the
    table or column, before any CSV is read.
    """
    directory = Path(directory)
    path = directory / CATALOG_NAME
    if not path.is_file():
        raise SchemaError(
            f"no CSV database at {directory} (missing {CATALOG_NAME})"
        )
    try:
        meta = json.loads(path.read_bytes())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise SchemaError(f"{CATALOG_NAME}: not JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise SchemaError(f"{CATALOG_NAME}: not a JSON object")
    if not isinstance(meta.get("tables"), dict):
        raise SchemaError(f"{CATALOG_NAME}: no 'tables' object")
    if not isinstance(meta.get("foreign_keys", []), list):
        raise SchemaError(f"{CATALOG_NAME}: 'foreign_keys' is not a list")
    schemas = [
        _catalog_schema(directory, table, info)
        for table, info in meta["tables"].items()
    ]
    db = Database(name=meta.get("name", directory.name))
    for schema in schemas:
        db.add_relation(
            read_relation_csv(directory / f"{schema.name}.csv", schema=schema)
        )
    for fk in meta.get("foreign_keys", []):
        try:
            db.add_foreign_key(
                fk["table"], fk["columns"], fk["ref_table"], fk["ref_columns"]
            )
        except (KeyError, TypeError):
            raise SchemaError(
                f"{CATALOG_NAME}: malformed foreign key {fk!r}"
            ) from None
    return db
