"""Oracle for CSV ingest: every cell parsed on its own.

Production (:func:`repro.db.csvio.read_relation_csv`) parses a file read
against a schema in one typed ``np.loadtxt`` pass where that is exact,
casts whole numeric columns in C on its csv.reader path, and parses TEXT
once per *distinct* cell.  This oracle reads a file the way the
definition does:

- ``csv.reader`` rows, then ``parse_literal`` on every cell;
- with a schema, ``Relation.from_rows(schema, parsed)`` — ``coerce_value``
  per cell and the NULL promotion of ``_column_array``;
- without one, ``infer_column_type`` over each parsed column first;
- a TEXT column's encoding from ``encode_object_column``'s per-row loop;
- the primary key by a scan with a set of key tuples (a TEXT NULL equals
  a TEXT NULL; a NaN never equals anything, as fresh floats in tuples).

Errors: a ragged row raises the reader's :class:`SchemaError` (file and
data row), a duplicate key its :class:`IntegrityError`; a cell its column
cannot take raises whatever the per-cell pipeline raises
(``ValueError`` / ``OverflowError``), which production must carry as the
``__cause__`` of a located :class:`SchemaError`.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.db.errors import IntegrityError, SchemaError
from repro.db.relation import Relation, TextColumn, encode_object_column
from repro.db.schema import Column, TableSchema
from repro.db.types import infer_column_type, parse_literal


def read_csv_cells(
    path: str | Path,
    name: str | None = None,
    schema: TableSchema | None = None,
) -> Relation:
    """The relation ``read_relation_csv(path, name, schema)`` must equal."""
    path = Path(path)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise SchemaError(f"CSV file {path} is empty")
    header, body = rows[0], rows[1:]
    if schema is not None and schema.column_names != header:
        raise SchemaError(
            f"CSV header {header} does not match schema "
            f"{schema.column_names}"
        )
    for number, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise SchemaError(
                f"{path}, data row {number}: row of width {len(row)} for "
                f"schema of width {len(header)}"
            )
    parsed = [[parse_literal(cell) for cell in row] for row in body]
    if schema is None:
        schema = TableSchema(
            name=name or path.stem,
            columns=[
                Column(cname, infer_column_type([row[i] for row in parsed]))
                for i, cname in enumerate(header)
            ],
        )
    keyless = TableSchema(name=schema.name, columns=list(schema.columns))
    relation = Relation.from_rows(keyless, parsed)
    _check_key(relation, schema.primary_key)
    return Relation(
        schema, {c: relation.column(c) for c in schema.column_names}
    )


def _check_key(relation: Relation, key_cols: tuple[str, ...]) -> None:
    if not key_cols:
        return
    columns = [relation.column(c).tolist() for c in key_cols]
    seen: set[tuple] = set()
    for key in zip(*columns):
        if key in seen:
            raise IntegrityError(
                f"duplicate primary key {key} in table "
                f"{relation.schema.name!r}"
            )
        seen.add(key)


def text_encoding(relation: Relation, name: str) -> TextColumn:
    """A TEXT column's encoding by the per-row first-occurrence loop."""
    return encode_object_column(relation.column(name))
