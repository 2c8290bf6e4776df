"""Columnar in-memory relations.

A :class:`Relation` couples a :class:`~repro.db.schema.TableSchema` with one
numpy array per column.  Numeric columns use ``int64``/``float64`` arrays so
predicate evaluation and pattern matching (the hot path of CaJaDE's F-score
computation) are vectorized; TEXT columns use object arrays.

Relations are treated as immutable once built: every operation returns a new
Relation that shares column arrays when possible (selection via fancy
indexing copies, projection does not).

Every object (TEXT) column additionally carries a table-level dictionary
encoding (:class:`ColumnEncoding`): int32 first-occurrence codes plus the
value → code dictionary, built once per relation and shared by every
derived relation that shares the column array (rename / projection /
prefixing).  The late-materialized storage engine gathers these codes
through join index vectors instead of re-encoding values per APT, and the
vectorized ``distinct`` / primary-key paths dedup on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import IntegrityError, SchemaError
from .schema import Column, TableSchema
from .types import ColumnType, coerce_value


def check_text_values(values: Iterable[Any], where: str) -> None:
    """Raise :class:`SchemaError` unless every value is ``str`` or ``None``.

    The one statement of the TEXT invariant (see "Values and NULLs" in
    ``docs/ARCHITECTURE.md``), run over a column's *distinct* values
    wherever a dictionary enters the process by encoding a column.  (A
    saved store's dictionary in :mod:`repro.db.colstore` holds UTF-8
    bytes, so it decodes to ``str`` and ``None`` only.)
    """
    for value in values:
        if value is not None and not isinstance(value, str):
            raise SchemaError(
                f"TEXT column {where} holds {value!r} "
                f"({type(value).__name__}); a TEXT cell is str or None"
            )


@dataclass
class ColumnEncoding:
    """Table-level dictionary encoding of one object column.

    ``codes`` assigns each row the first-occurrence code of its value
    (``str`` or ``None`` — nothing else gets past
    :func:`check_text_values`).  A NULL cell keeps its code here
    (:attr:`none_code`); :attr:`match_codes` replaces it with the
    kernel's ``-1`` sentinel, which never compares equal to a looked-up
    value code.
    """

    codes: np.ndarray
    code_of: dict[Any, int]
    none_code: int | None
    _match: np.ndarray | None = field(default=None, repr=False)

    @property
    def match_codes(self) -> np.ndarray:
        """Codes with every NULL cell replaced by ``-1``."""
        if self._match is None:
            if self.none_code is None:
                self._match = self.codes
            else:
                match = self.codes.copy()
                match[match == self.none_code] = -1
                self._match = match
        return self._match

    @property
    def num_codes(self) -> int:
        return len(self.code_of)

    def gather_match(self, rows: np.ndarray | None) -> np.ndarray:
        """Match codes for a row subset without materializing the table.

        Equivalent to ``match_codes[rows]`` but, when the full match
        array has not been built yet, gathers the raw codes first and
        masks the NULL code on the (much smaller) gathered slice — so
        disk-backed code arrays never force a whole-column temporary
        just to serve a subset gather.
        """
        if rows is None:
            return self.match_codes
        if self._match is not None:
            return self._match[rows]
        gathered = np.asarray(self.codes[rows])  # fancy indexing: a copy
        if self.none_code is not None:
            gathered[gathered == self.none_code] = -1
        return gathered


def encode_object_column(
    arr: np.ndarray, where: str = "<column>"
) -> ColumnEncoding:
    """Dictionary-encode one object column (first-occurrence codes).

    Raises :class:`SchemaError`, naming ``where``, on a cell that is not
    ``str | None`` — checked on the dictionary, O(distinct).
    """
    code_of: dict[Any, int] = {}
    codes = np.empty(len(arr), dtype=np.int32)
    try:
        for i, value in enumerate(arr):
            code = code_of.get(value)
            if code is None:
                code = len(code_of)
                code_of[value] = code
            codes[i] = code
    except TypeError:  # unhashable, so not a str either
        check_text_values([value], where)
        raise
    check_text_values(code_of, where)
    return ColumnEncoding(
        codes=codes, code_of=code_of, none_code=code_of.get(None)
    )


def encoding_from_distinct(
    table: np.ndarray, inverse: np.ndarray, where: str = "<column>"
) -> ColumnEncoding:
    """Build a :class:`ColumnEncoding` from a column's distinct raw cells.

    ``table[j]`` holds the coerced value of the ``j``-th distinct *raw*
    cell, numbered in first-occurrence order, and ``inverse`` maps every
    row to its raw distinct — what the CSV reader's one pass over a
    column produces.  Several raw cells may coerce to one value (``' a'``
    and ``'a'``, ``''`` and ``'NULL'``), so values are deduplicated
    under dict semantics in table order: the ``k``-th new value gets
    code ``k``, the numbering :func:`encode_object_column`'s per-row
    loop assigns, at O(distinct) Python cost instead of O(rows).  Raises
    :class:`SchemaError` like :func:`encode_object_column`.
    """
    check_text_values(table, where)  # what passes is hashable
    raw_to_code = np.empty(len(table), dtype=np.int32)
    code_of: dict[Any, int] = {}
    for j, value in enumerate(table):
        raw_to_code[j] = code_of.setdefault(value, len(code_of))
    return ColumnEncoding(
        codes=raw_to_code[inverse], code_of=code_of, none_code=code_of.get(None)
    )


def _column_array(values: Sequence[Any], ctype: ColumnType) -> np.ndarray:
    """Build the storage array for one column, handling NULL promotion."""
    has_null = any(v is None for v in values)
    if ctype is ColumnType.INT and has_null:
        # Integer columns with NULLs are stored as float64 with NaN.
        data = np.array(
            [np.nan if v is None else float(v) for v in values], dtype=np.float64
        )
        return data
    if ctype is ColumnType.INT:
        return np.array([int(v) for v in values], dtype=np.int64)
    if ctype is ColumnType.FLOAT:
        return np.array(
            [np.nan if v is None else float(v) for v in values], dtype=np.float64
        )
    return np.array(list(values), dtype=object)


# ----------------------------------------------------------------------
# Lazy (disk-backed) column support
# ----------------------------------------------------------------------
# A Relation column slot may hold, instead of an ndarray, any object
# implementing the lazy-column protocol: ``dtype``, ``__len__``,
# ``nbytes``, ``materialize() -> np.ndarray`` (cached, identity-stable)
# and ``gather(rows) -> np.ndarray`` (bounded by ``len(rows)``).  The
# out-of-core column store (repro.db.colstore) installs such proxies for
# object columns so opening a saved database never reads a value
# dictionary it does not touch.  The proxy object itself stays in
# ``_columns`` forever — inherited encodings are shared by every
# relation holding the same slot, which must not change.


def _column_values(arr: Any) -> np.ndarray:
    """The full value array of a column slot (materializing proxies)."""
    if isinstance(arr, np.ndarray):
        return arr
    return arr.materialize()


def _gather_values(arr: Any, rows: np.ndarray) -> np.ndarray:
    """``arr[rows]`` for ndarrays; a bounded proxy gather otherwise."""
    if isinstance(arr, np.ndarray):
        return arr[rows]
    return arr.gather(rows)


class Relation:
    """An immutable columnar table: a schema plus one array per column."""

    __slots__ = ("schema", "_columns", "_nrows", "_encodings")

    def __init__(self, schema: TableSchema, columns: dict[str, np.ndarray]):
        if set(columns) != set(schema.column_names):
            raise SchemaError(
                f"columns {sorted(columns)} do not match schema "
                f"{schema.column_names}"
            )
        lengths = {len(arr) for arr in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns with lengths {sorted(lengths)}")
        self.schema = schema
        self._columns = columns
        self._nrows = lengths.pop() if lengths else 0
        # Column name -> ColumnEncoding (None for a numeric column).
        # Lazily filled; derived relations sharing a column array
        # inherit its entry (see rename/rename_columns).
        self._encodings: dict[str, ColumnEncoding | None] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        schema: TableSchema,
        rows: Iterable[Sequence[Any]],
    ) -> "Relation":
        """Build a relation from row tuples, coercing values to the schema."""
        materialized = [tuple(row) for row in rows]
        width = len(schema.columns)
        for row in materialized:
            if len(row) != width:
                raise SchemaError(
                    f"row of width {len(row)} for schema of width {width}"
                )
        columns: dict[str, np.ndarray] = {}
        for index, col in enumerate(schema.columns):
            raw = [coerce_value(row[index], col.ctype) for row in materialized]
            columns[col.name] = _column_array(raw, col.ctype)
        relation = cls(schema, columns)
        if schema.primary_key:
            relation._check_primary_key()
        return relation

    @classmethod
    def empty(cls, schema: TableSchema) -> "Relation":
        """A zero-row relation with the given schema."""
        columns = {
            col.name: np.empty(0, dtype=col.ctype.numpy_dtype())
            for col in schema.columns
        }
        return cls(schema, columns)

    def _check_primary_key(self) -> None:
        """Reject duplicate primary keys with one sort of the key codes.

        Row equality is :meth:`_row_codes`': TEXT cells compare by
        value (two NULLs are equal), float NaN keys never compare equal
        (each NaN row gets a distinct code).  A stable ``lexsort`` puts
        equal keys side by side in row order, so each row equal to its
        sorted predecessor repeats an earlier key, and the smallest such
        row is the first duplicate a top-to-bottom scan meets.
        """
        key_cols = list(self.schema.primary_key)
        codes = self._row_codes(key_cols)
        order = np.lexsort(codes.T)
        ranked = codes[order]
        repeats = order[1:][(ranked[1:] == ranked[:-1]).all(axis=1)]
        if len(repeats):
            i = int(repeats.min())
            key = tuple(self.column(c)[i:i + 1].tolist()[0] for c in key_cols)
            raise IntegrityError(
                f"duplicate primary key {key} in table {self.schema.name!r}"
            )

    def _row_codes(self, names: list[str]) -> np.ndarray:
        """An ``(nrows, len(names))`` int64 code matrix whose row equality
        matches per-row tuple equality.

        Object columns use their table-level :class:`ColumnEncoding`;
        float columns give every NaN cell a distinct code (fresh NaN
        scalars never compare equal in a tuple either); integer columns
        factorize exactly.
        """
        columns: list[np.ndarray] = []
        for name in names:
            arr = self._columns[name]
            if arr.dtype == object:
                columns.append(self.encoding(name).codes.astype(np.int64))
            elif arr.dtype.kind == "f":
                codes = np.empty(self._nrows, dtype=np.int64)
                nan_mask = np.isnan(arr)
                finite = ~nan_mask
                if finite.any():
                    _, inverse = np.unique(arr[finite], return_inverse=True)
                    codes[finite] = inverse.reshape(-1)
                distinct_base = int(finite.sum())
                n_nan = int(nan_mask.sum())
                if n_nan:
                    codes[nan_mask] = distinct_base + np.arange(n_nan)
                columns.append(codes)
            else:
                _, inverse = np.unique(arr, return_inverse=True)
                columns.append(inverse.reshape(-1).astype(np.int64))
        if not columns:
            return np.zeros((self._nrows, 0), dtype=np.int64)
        return np.stack(columns, axis=1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def num_rows(self) -> int:
        return self._nrows

    @property
    def estimated_bytes(self) -> int:
        """Approximate *incremental* resident size, in bytes.

        Sums the column arrays' buffer sizes.  Object columns count only
        their pointer arrays: derived relations (joins, selections) copy
        pointers, not the boxed values, which stay shared with the source
        relations — so the pointer array is the true marginal cost.  Used
        by the engine's bounded-memory APT prefix cache.
        """
        return sum(arr.nbytes for arr in self._columns.values())

    @property
    def column_names(self) -> list[str]:
        return self.schema.column_names

    def __len__(self) -> int:
        return self._nrows

    def column(self, name: str) -> np.ndarray:
        """The storage array for one column (do not mutate).

        Disk-backed object columns materialize here (decode table
        applied to the code array, cached on the proxy); prefer
        :meth:`column_dtype` / :meth:`gather_column` when the full value
        array is not actually needed.
        """
        if name not in self._columns:
            raise SchemaError(f"no column {name!r} in {self.schema.name!r}")
        return _column_values(self._columns[name])

    def column_dtype(self, name: str) -> np.dtype:
        """One column's storage dtype, without materializing any values."""
        if name not in self._columns:
            raise SchemaError(f"no column {name!r} in {self.schema.name!r}")
        return self._columns[name].dtype

    def gather_column(self, name: str, rows: np.ndarray | None) -> np.ndarray:
        """``column(name)[rows]`` without materializing lazy columns.

        The gather's peak footprint is bounded by ``len(rows)`` even for
        disk-backed columns (codes gather from the memmap, then only the
        gathered slice decodes).  ``rows=None`` returns the full column.
        """
        if name not in self._columns:
            raise SchemaError(f"no column {name!r} in {self.schema.name!r}")
        arr = self._columns[name]
        if rows is None:
            return _column_values(arr)
        return _gather_values(arr, rows)

    def column_type(self, name: str) -> ColumnType:
        return self.schema.column_type(name)

    # ------------------------------------------------------------------
    # Dictionary encoding (late-materialization support)
    # ------------------------------------------------------------------
    def encoding(self, name: str) -> ColumnEncoding | None:
        """The dictionary encoding of an object column, built on demand.

        A :class:`ColumnEncoding` for every object column — a cell that
        is not ``str | None`` raises :class:`SchemaError` naming table
        and column — and ``None`` for a numeric one.  The result is
        cached on this relation and inherited by derived relations that
        share the column array (rename, projection, prefixing), so a
        base table is encoded at most once per process regardless of
        how many aliases, APTs or questions consume it.
        """
        if name in self._encodings:
            return self._encodings[name]
        if self.column_dtype(name) != object:
            self._encodings[name] = None
            return None
        encoding = encode_object_column(
            self.column(name), f"{self.schema.name}.{name}"
        )
        self._encodings[name] = encoding
        return encoding

    def encode_categoricals(self) -> None:
        """Eagerly build the dictionary encoding of every object column.

        :class:`repro.db.database.Database` calls this at load time so
        the late-materialized engine's code gathers never pay the
        encoding pass on a hot path.
        """
        for col in self.schema.columns:
            if self._columns[col.name].dtype == object:
                self.encoding(col.name)

    def _inherit_encodings(
        self, source: "Relation", mapping: dict[str, str] | None = None
    ) -> "Relation":
        """Adopt ``source``'s cached encodings for shared column arrays."""
        for name, enc in source._encodings.items():
            new_name = name if mapping is None else mapping.get(name, name)
            if new_name in self._columns:
                self._encodings[new_name] = enc
        return self

    def row(self, index: int) -> tuple[Any, ...]:
        """One row as a tuple in schema column order."""
        return tuple(self.column(c)[index] for c in self.schema.column_names)

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        names = self.schema.column_names
        arrays = [self.column(c) for c in names]
        for i in range(self._nrows):
            yield tuple(arr[i] for arr in arrays)

    def to_dicts(self) -> list[dict[str, Any]]:
        names = self.schema.column_names
        return [dict(zip(names, row)) for row in self.iter_rows()]

    def __repr__(self) -> str:
        return (
            f"Relation({self.schema.name!r}, {self._nrows} rows, "
            f"{len(self.schema.columns)} cols)"
        )

    # ------------------------------------------------------------------
    # Relational operations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Relation":
        """Rows selected by an index array (preserves duplicates/order)."""
        columns = {
            name: _gather_values(arr, indices)
            for name, arr in self._columns.items()
        }
        return Relation(self.schema, columns)

    def filter_mask(self, mask: np.ndarray) -> "Relation":
        """Rows where the boolean ``mask`` is True."""
        if mask.dtype != np.bool_ or len(mask) != self._nrows:
            raise SchemaError("filter mask must be boolean and row-aligned")
        return self.take(np.nonzero(mask)[0])

    def project(self, names: list[str]) -> "Relation":
        """Keep only ``names``, in the given order (shares arrays)."""
        schema = self.schema.project(names)
        projected = Relation(schema, {n: self._columns[n] for n in names})
        return projected._inherit_encodings(self)

    def rename(self, new_name: str) -> "Relation":
        renamed = Relation(self.schema.rename(new_name), dict(self._columns))
        return renamed._inherit_encodings(self)

    def rename_columns(self, mapping: dict[str, str]) -> "Relation":
        """Rename columns via ``mapping`` (missing names keep theirs)."""
        new_cols = [
            Column(mapping.get(col.name, col.name), col.ctype)
            for col in self.schema.columns
        ]
        pk = tuple(mapping.get(c, c) for c in self.schema.primary_key)
        schema = TableSchema(name=self.schema.name, columns=new_cols, primary_key=pk)
        columns = {
            mapping.get(name, name): arr for name, arr in self._columns.items()
        }
        return Relation(schema, columns)._inherit_encodings(self, mapping)

    def prefix_columns(self, prefix: str) -> "Relation":
        """Prefix every column name, used for APT disambiguation."""
        return self.rename_columns(
            {name: f"{prefix}{name}" for name in self.schema.column_names}
        )

    def with_column(
        self, name: str, ctype: ColumnType, values: np.ndarray
    ) -> "Relation":
        """A copy with one extra column appended."""
        if len(values) != self._nrows:
            raise SchemaError("new column length does not match relation")
        schema = TableSchema(
            name=self.schema.name,
            columns=list(self.schema.columns) + [Column(name, ctype)],
            primary_key=self.schema.primary_key,
        )
        columns = dict(self._columns)
        columns[name] = values
        return Relation(schema, columns)._inherit_encodings(self)

    def concat(self, other: "Relation") -> "Relation":
        """Union-all of two relations with identical column names/types."""
        if self.schema.column_names != other.schema.column_names:
            raise SchemaError("concat requires identical column lists")
        columns = {}
        for col in self.schema.columns:
            left = self.column(col.name)
            right = other.column(col.name)
            if left.dtype != right.dtype:
                left = left.astype(np.float64)
                right = right.astype(np.float64)
            columns[col.name] = np.concatenate([left, right])
        schema = TableSchema(
            name=self.schema.name,
            columns=list(self.schema.columns),
            primary_key=(),
        )
        return Relation(schema, columns)

    def sample(self, fraction: float, rng: np.random.Generator,
               max_rows: int | None = None) -> "Relation":
        """A uniform row sample of ``fraction`` of the rows.

        ``max_rows`` caps the absolute sample size (the paper caps LCA
        samples at 1000 rows).  Sampling is without replacement.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"sample fraction must be in (0, 1], got {fraction}")
        size = max(1, int(round(self._nrows * fraction))) if self._nrows else 0
        if max_rows is not None:
            size = min(size, max_rows)
        if size >= self._nrows:
            return self
        indices = rng.choice(self._nrows, size=size, replace=False)
        return self.take(np.sort(indices))

    def distinct(self) -> "Relation":
        """Duplicate-free copy preserving first occurrence order.

        Deduplicates on the table-level dictionary codes (one
        ``np.unique`` over an int64 code matrix); row equality is
        :meth:`_row_codes`'.
        """
        codes = self._row_codes(self.schema.column_names)
        if codes.shape[1] == 0:
            return self
        _, first_idx = np.unique(codes, axis=0, return_index=True)
        return self.take(np.sort(first_idx))

    def sort_by(self, names: list[str]) -> "Relation":
        """Rows sorted ascending by the listed columns (stable)."""
        order = np.arange(self._nrows)
        for name in reversed(names):
            arr = self.column(name)
            if arr.dtype == object:
                keys = np.array([str(v) for v in arr[order]])
            else:
                keys = arr[order]
            order = order[np.argsort(keys, kind="stable")]
        return self.take(order)
