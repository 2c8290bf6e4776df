"""Columnar in-memory relations.

A :class:`Relation` couples a :class:`~repro.db.schema.TableSchema` with one
column per name.  Numeric columns are ``int64``/``float64`` arrays so
predicate evaluation and pattern matching (the hot path of CaJaDE's F-score
computation) are vectorized.  A TEXT column is a :class:`TextColumn`, and only
that: int32 first-occurrence codes over a :class:`TextDictionary` (decode
table, value → code dict, NULL code), whether the table was built from rows,
read from CSV or opened from the column store (which loads the dictionary on
first touch).  An object array handed to a constructor is encoded there, so
the ``str | None`` TEXT invariant holds for every relation.

Relations are treated as immutable once built: every operation returns a new
Relation that shares column arrays when possible (selection via fancy
indexing copies, projection does not).  Derived relations gather TEXT *codes*
and keep the base column's dictionary object, so the mining kernel, grouping
and primary-key checks read codes that were encoded once, at load.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

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


class TextDictionary:
    """The values of one base TEXT column, shared by every column
    gathered from it: the decode table (code → value), ``code_of``
    (value → code) and :attr:`none_code`, the code of the NULL cell.

    An in-memory dictionary (:meth:`of`) is built when a column is
    encoded; a stored table's comes from ``load``, which reads and
    checks its dictionary file on first touch
    (:mod:`repro.db.colstore`).  ``none_code`` is known without loading.
    """

    __slots__ = ("none_code", "_load", "_tables")

    def __init__(
        self,
        none_code: int | None,
        load: Callable[[], tuple[np.ndarray, dict[Any, int]]] | None,
    ):
        self.none_code = none_code
        self._load = load
        self._tables: tuple[np.ndarray, dict[Any, int]] | None = None

    @classmethod
    def of(cls, code_of: dict[Any, int]) -> "TextDictionary":
        """The dictionary whose values are ``code_of``'s keys, coded
        0, 1, … in insertion order (what the encoders build)."""
        decode = np.empty(len(code_of), dtype=object)
        decode[:] = list(code_of)
        dictionary = cls(code_of.get(None), None)
        dictionary._tables = (decode, code_of)
        return dictionary

    def _loaded(self) -> tuple[np.ndarray, dict[Any, int]]:
        # One tuple, so a racing first touch never sees half of it.
        if self._tables is None:
            self._tables = self._load()
        return self._tables

    @property
    def decode(self) -> np.ndarray:
        """Code → value, as an object array."""
        return self._loaded()[0]

    @property
    def code_of(self) -> dict[Any, int]:
        return self._loaded()[1]


class TextColumn:
    """A TEXT column: int32 codes over a shared :class:`TextDictionary`.

    ``codes`` (possibly a read-only memmap view) give each row the code
    of its value (``str`` or ``None`` — nothing else gets past
    :func:`check_text_values`).  A NULL cell keeps its code here
    (:attr:`none_code`); :attr:`match_codes` replaces it with the
    kernel's ``-1`` sentinel, which never compares equal to a looked-up
    value code.  Values decode on demand: :meth:`values` once, cached
    and identity-stable; :meth:`gather` only the rows asked for.
    :meth:`take` gathers codes and keeps the dictionary.
    """

    __slots__ = ("codes", "dictionary", "_values", "_match")

    dtype = np.dtype(object)

    def __init__(self, codes: np.ndarray, dictionary: TextDictionary):
        self.codes = codes
        self.dictionary = dictionary
        self._values: np.ndarray | None = None
        self._match: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def code_of(self) -> dict[Any, int]:
        return self.dictionary.code_of

    @property
    def none_code(self) -> int | None:
        return self.dictionary.none_code

    def values(self) -> np.ndarray:
        """Every row's value, decoded once."""
        if self._values is None:
            self._values = self.dictionary.decode[self.codes]
        return self._values

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """``values()[rows]``, decoding only the gathered rows."""
        if self._values is not None:
            return self._values[rows]
        return self.dictionary.decode[self.codes[rows]]

    def take(self, rows: np.ndarray) -> "TextColumn":
        """The column of the gathered rows, over the same dictionary."""
        return TextColumn(self.codes[rows], self.dictionary)

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
        gathered = self.codes[rows]  # fancy indexing: a copy
        if self.none_code is not None:
            gathered[gathered == self.none_code] = -1
        return gathered


def encode_object_column(
    arr: np.ndarray, where: str = "<column>"
) -> TextColumn:
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
    return TextColumn(codes, TextDictionary.of(code_of))


def encoding_from_distinct(
    table: np.ndarray, inverse: np.ndarray, where: str = "<column>"
) -> TextColumn:
    """Build a :class:`TextColumn` from a column's distinct raw cells.

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
    return TextColumn(raw_to_code[inverse], TextDictionary.of(code_of))


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


class Relation:
    """An immutable columnar table: a schema plus one column per name —
    a numeric ndarray or a :class:`TextColumn`."""

    __slots__ = ("schema", "_columns", "_nrows")

    def __init__(
        self, schema: TableSchema, columns: dict[str, np.ndarray | TextColumn]
    ):
        """An object ndarray among ``columns`` is encoded here, so a TEXT
        cell that is not ``str | None`` is a :class:`SchemaError` naming
        table and column before anything reads the relation."""
        if set(columns) != set(schema.column_names):
            raise SchemaError(
                f"columns {sorted(columns)} do not match schema "
                f"{schema.column_names}"
            )
        lengths = {len(arr) for arr in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns with lengths {sorted(lengths)}")
        self.schema = schema
        self._columns = {
            name: (
                encode_object_column(arr, f"{schema.name}.{name}")
                if isinstance(arr, np.ndarray) and arr.dtype == object
                else arr
            )
            for name, arr in columns.items()
        }
        self._nrows = lengths.pop() if lengths else 0

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
    def hstack(
        cls, schema: TableSchema, parts: Sequence["Relation"]
    ) -> "Relation":
        """``parts``' columns side by side under ``schema`` (sharing
        their arrays and dictionaries)."""
        columns: dict[str, np.ndarray | TextColumn] = {}
        for part in parts:
            columns.update(part._columns)
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

        TEXT columns use their dictionary codes; float columns give
        every NaN cell a distinct code (fresh NaN scalars never compare
        equal in a tuple either); integer columns factorize exactly.
        """
        columns: list[np.ndarray] = []
        for name in names:
            arr = self._columns[name]
            if isinstance(arr, TextColumn):
                columns.append(arr.codes.astype(np.int64))
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
    def column_names(self) -> list[str]:
        return self.schema.column_names

    def __len__(self) -> int:
        return self._nrows

    def _slot(self, name: str) -> np.ndarray | TextColumn:
        if name not in self._columns:
            raise SchemaError(f"no column {name!r} in {self.schema.name!r}")
        return self._columns[name]

    def column(self, name: str) -> np.ndarray:
        """One column's values (do not mutate).

        A TEXT column decodes here once and caches the result; prefer
        :meth:`column_dtype` / :meth:`gather_column` / :meth:`encoding`
        when the full value array is not actually needed.
        """
        arr = self._slot(name)
        return arr.values() if isinstance(arr, TextColumn) else arr

    def column_dtype(self, name: str) -> np.dtype:
        """One column's storage dtype, without decoding any values."""
        return self._slot(name).dtype

    def gather_column(self, name: str, rows: np.ndarray | None) -> np.ndarray:
        """``column(name)[rows]``, decoding only the gathered TEXT rows
        (bounded by ``len(rows)`` even over a disk-backed column).
        ``rows=None`` returns the full column."""
        arr = self._slot(name)
        if rows is None:
            return self.column(name)
        return arr.gather(rows) if isinstance(arr, TextColumn) else arr[rows]

    def column_type(self, name: str) -> ColumnType:
        return self.schema.column_type(name)

    def encoding(self, name: str) -> TextColumn | None:
        """A TEXT column's :class:`TextColumn` (codes and dictionary),
        or ``None`` for a numeric column."""
        arr = self._slot(name)
        return arr if isinstance(arr, TextColumn) else None

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
    # Relational operations (TEXT columns gather codes, never values)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Relation":
        """Rows selected by an index array (preserves duplicates/order)."""
        columns = {
            name: arr.take(indices) if isinstance(arr, TextColumn)
            else arr[indices]
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
        return Relation(schema, {n: self._columns[n] for n in names})

    def rename(self, new_name: str) -> "Relation":
        return Relation(self.schema.rename(new_name), self._columns)

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
        return Relation(schema, columns)

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
        return Relation(schema, columns)

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
