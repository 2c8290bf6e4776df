"""CSV import/export for relations and whole databases.

A database directory contains one ``<table>.csv`` per relation plus a
``schema.json`` describing column types, primary keys and foreign keys, so
a save→load round-trip reproduces the catalog exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .database import Database
from .errors import SchemaError
from .relation import (
    ColumnEncoding,
    Relation,
    _column_array,
    encoding_from_distinct,
)
from .schema import Column, TableSchema
from .types import ColumnType, coerce_value, infer_column_type, parse_literal

# int64 range guard for the float→int truncation fast path: values at or
# beyond 2**63 must take the per-value fallback so they raise the same
# OverflowError the historical int() coercion raised.
_INT64_EDGE = float(2**63)


def write_relation_csv(relation: Relation, path: str | Path) -> None:
    """Write a relation to a CSV file with a header row."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(relation.column_names)
        for row in relation.iter_rows():
            writer.writerow(["" if v is None else v for v in row])


def _stripped_and_nulls(
    cells: Sequence[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Whitespace-stripped cells plus the NULL mask (empty / ``NULL``)."""
    arr = np.asarray(cells, dtype=str)
    if arr.size == 0:
        return arr, np.zeros(0, dtype=bool)
    stripped = np.char.strip(arr)
    null_mask = (stripped == "") | (np.char.upper(stripped) == "NULL")
    return stripped, null_mask


def _distinct_coerced(
    stripped: np.ndarray, ctype: ColumnType
) -> tuple[np.ndarray, ColumnEncoding | None]:
    """Per-cell reference semantics, paid once per *distinct* cell.

    ``parse_literal`` + ``coerce_value`` run on each unique string and
    the results gather back over the whole column — exact for mixed and
    text columns, and the path that reproduces the historical
    ValueError/OverflowError for cells the fast paths rejected.
    Distincts coerce in first-occurrence order so a file with several
    differently-malformed cells raises for the same cell the per-row
    pipeline raised for.

    The same ``np.unique`` triple also yields the column's dictionary
    encoding for free (:func:`encoding_from_distinct` dedups coerced
    values at O(distinct) cost), so loading a CSV never pays the
    per-row first-occurrence encoding loop.  Numeric types get no
    encoding.
    """
    uniq, first_idx, inverse = np.unique(
        stripped, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    table = np.empty(len(uniq), dtype=object)
    for j in np.argsort(first_idx, kind="stable"):
        table[j] = coerce_value(parse_literal(str(uniq[j])), ctype)
    gathered = table[inverse] if len(stripped) else table[:0]
    if ctype is not ColumnType.TEXT:
        return gathered, None
    return gathered, encoding_from_distinct(table, first_idx, inverse)


def _coerce_column(
    cells: Sequence[str], ctype: ColumnType
) -> tuple[np.ndarray, ColumnEncoding | None]:
    """Build one column's storage array under an explicit schema type.

    Numeric columns first try one whole-column ``astype`` (numpy calls
    the same ``int()``/``float()`` per element the scalar path used, so
    the semantics — underscored literals, unicode digits, whitespace —
    are identical, minus the per-cell try/except chain).  Columns the
    fast path cannot prove safe (text cells, NaN/huge values under INT,
    out-of-range ints) fall back to :func:`_distinct_coerced`.

    Returns ``(storage, encoding)``; the encoding is the column's
    dictionary encoding when the storage is an object array (built from
    the distinct table, byte-identical to the lazy per-row build) and
    ``None`` for numeric storage.
    """
    stripped, null_mask = _stripped_and_nulls(cells)
    has_null = bool(null_mask.any())
    values = stripped[~null_mask] if has_null else stripped

    if ctype is ColumnType.INT and values.size:
        ints: np.ndarray | None = None
        try:
            ints = values.astype(np.int64)
        except OverflowError:
            pass  # bigint cells: fallback preserves the historical raise
        except ValueError:
            # e.g. "5.0": the scalar path coerces via int(float(...)).
            try:
                floats = values.astype(np.float64)
            except (ValueError, OverflowError):
                floats = None
            if (
                floats is not None
                and not np.isnan(floats).any()
                and not (np.abs(floats) >= _INT64_EDGE).any()
            ):
                ints = np.trunc(floats).astype(np.int64)
        if ints is not None:
            if not has_null:
                return ints, None
            out = np.full(len(stripped), np.nan, dtype=np.float64)
            out[~null_mask] = ints.astype(np.float64)
            return out, None
    elif ctype is ColumnType.FLOAT and values.size:
        try:
            floats = values.astype(np.float64)
        except (ValueError, OverflowError):
            floats = None
        if floats is not None:
            out = np.full(len(stripped), np.nan, dtype=np.float64)
            out[~null_mask] = floats
            return out, None
    elif values.size == 0:  # all-NULL column: storage by type alone
        storage = _column_array([None] * len(stripped), ctype)
        return storage, _all_null_encoding(storage)

    coerced, encoding = _distinct_coerced(stripped, ctype)
    return _column_array(list(coerced), ctype), encoding


def _all_null_encoding(storage: np.ndarray) -> ColumnEncoding | None:
    """The trivial encoding of an all-``None`` object column."""
    if storage.dtype != object:
        return None
    if not len(storage):
        return ColumnEncoding(
            codes=np.empty(0, dtype=np.int32), code_of={}, none_code=None
        )
    return ColumnEncoding(
        codes=np.zeros(len(storage), dtype=np.int32),
        code_of={None: 0},
        none_code=0,
    )


def _infer_column(
    cells: Sequence[str],
) -> tuple[np.ndarray, ColumnEncoding | None, ColumnType]:
    """Parse one schemaless column: (storage, encoding, inferred type).

    Mirrors ``parse_literal`` + ``infer_column_type`` + ``from_rows``:
    all-int columns infer INT, any float-parseable cell promotes to
    FLOAT, any text cell (or an all-NULL / all-NaN column) infers TEXT.
    """
    stripped, null_mask = _stripped_and_nulls(cells)
    if stripped.size:
        # Cells parsing to NaN are NULLs to the scalar pipeline:
        # infer_column_type skips them (no type evidence) and
        # coerce_value nulls them, so ["1", "nan"] infers INT with one
        # NULL — the numeric fast paths must see them as missing.
        upper = np.char.upper(stripped)
        null_mask = (
            null_mask | (upper == "NAN") | (upper == "+NAN")
            | (upper == "-NAN")
        )
    has_null = bool(null_mask.any())
    values = stripped[~null_mask] if has_null else stripped

    overflow = False
    if values.size:
        ints = None
        try:
            ints = values.astype(np.int64)
        except OverflowError:
            # Bigint cells: the scalar path infers INT and then raises
            # OverflowError building int64 storage — the fallback below
            # reproduces that, so the float path must not swallow it.
            overflow = True
        except ValueError:
            pass
        if ints is not None:
            if not has_null:
                return ints, None, ColumnType.INT
            out = np.full(len(stripped), np.nan, dtype=np.float64)
            out[~null_mask] = ints.astype(np.float64)
            return out, None, ColumnType.INT
        floats = None
        if not overflow:
            try:
                floats = values.astype(np.float64)
            except (ValueError, OverflowError):
                pass
        # An all-NaN column carries no type evidence (NaN coerces to
        # NULL), so it must infer TEXT like the scalar path does.
        if floats is not None and not np.isnan(floats).all():
            out = np.full(len(stripped), np.nan, dtype=np.float64)
            out[~null_mask] = floats
            return out, None, ColumnType.FLOAT

    uniq, first_idx, inverse = np.unique(
        stripped, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    parsed = [parse_literal(str(u)) for u in uniq]
    ctype = infer_column_type(parsed)
    table = np.empty(len(uniq), dtype=object)
    for j in np.argsort(first_idx, kind="stable"):
        table[j] = coerce_value(parsed[j], ctype)
    gathered = table[inverse] if len(stripped) else table[:0]
    storage = _column_array(list(gathered), ctype)
    encoding = (
        encoding_from_distinct(table, first_idx, inverse)
        if storage.dtype == object
        else None
    )
    return storage, encoding, ctype


def read_relation_csv(
    path: str | Path,
    name: str | None = None,
    schema: TableSchema | None = None,
) -> Relation:
    """Read a CSV file into a relation, column at a time.

    Without an explicit ``schema`` the column types are inferred from the
    parsed values (ints, floats, text; empty cells are NULL).  Cell
    semantics are exactly the historical per-cell ``parse_literal`` /
    ``coerce_value`` pipeline; the columns are just coerced with one
    numpy ``astype`` per column (with a parse-each-distinct-value
    fallback for mixed/text columns) instead of a Python loop per cell.
    """
    path = Path(path)
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
    for row in rows:
        if len(row) != width:
            raise SchemaError(
                f"row of width {len(row)} for schema of width {width}"
            )
    columns_cells: list[Sequence[str]] = (
        list(zip(*rows)) if rows else [()] * width
    )

    storage: dict[str, np.ndarray] = {}
    encodings: dict[str, ColumnEncoding] = {}
    if schema is not None:
        for col, cells in zip(schema.columns, columns_cells):
            array, encoding = _coerce_column(cells, col.ctype)
            storage[col.name] = array
            if encoding is not None:
                encodings[col.name] = encoding
        relation = Relation(schema, storage)
        relation._encodings.update(encodings)
        if schema.primary_key:
            relation._check_primary_key()
        return relation

    columns = []
    for cname, cells in zip(header, columns_cells):
        array, encoding, ctype = _infer_column(cells)
        storage[cname] = array
        if encoding is not None:
            encodings[cname] = encoding
        columns.append(Column(cname, ctype))
    inferred = TableSchema(name=name or path.stem, columns=columns)
    relation = Relation(inferred, storage)
    relation._encodings.update(encodings)
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
    (directory / "schema.json").write_text(json.dumps(meta, indent=2))


def load_database(directory: str | Path) -> Database:
    """Load a database saved by :func:`save_database`."""
    directory = Path(directory)
    meta = json.loads((directory / "schema.json").read_text())
    db = Database(name=meta.get("name", directory.name))
    for table_name, info in meta["tables"].items():
        schema = TableSchema(
            name=table_name,
            columns=[
                Column(c["name"], ColumnType(c["type"]))
                for c in info["columns"]
            ],
            primary_key=tuple(info.get("primary_key", [])),
        )
        relation = read_relation_csv(
            directory / f"{table_name}.csv", schema=schema
        )
        db.add_relation(relation)
    for fk in meta.get("foreign_keys", []):
        db.add_foreign_key(
            fk["table"], fk["columns"], fk["ref_table"], fk["ref_columns"]
        )
    return db
