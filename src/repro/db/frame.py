"""Late-materialized join results: base relations + row-index vectors.

An :class:`IndexFrame` represents the output of a (chain of) equi-joins
without copying any data columns: it holds the participating *source*
relations and, per source, an int64 array mapping each output row to a
source row.  Joins compose index vectors, selections apply masks to
them, and actual column values are gathered only at the edges — when a
predicate needs a key column, when an APT hands columns to the mining
kernel, or when :meth:`to_relation` materializes the full relation.

Row order and schema order are those of joining the relations
themselves: frame joins run the :func:`repro.db.executor.join_row_indices`
core, and gathers concatenate source columns in join order (the eager
relation-level join in ``tests/oracles/eager.py`` checks both).  The
shared-prefix materialization trie caches these frames instead of full
relations; a frame's :attr:`estimated_bytes` is just its index vectors —
roughly the joined table's width times smaller than the joined relation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ExecutionError, SchemaError
from .relation import Relation, TextColumn
from .schema import TableSchema
from .types import ColumnType

_INT32_MAX = 2**31 - 1


class IndexFrame:
    """A late-materialized view over one or more source relations.

    ``sources[i]`` supplies the columns named by its schema (callers
    prefix/qualify names before building frames); ``rows[i]`` maps each
    frame row to a row of ``sources[i]``, with ``None`` meaning the
    identity mapping (the frame *is* the source, row for row).
    """

    __slots__ = ("sources", "rows", "_nrows", "_lookup", "_schema")

    def __init__(
        self,
        sources: Sequence[Relation],
        rows: Sequence[np.ndarray | None],
    ):
        if len(sources) != len(rows):
            raise ExecutionError("sources and rows must align")
        if not sources:
            raise ExecutionError("an IndexFrame needs at least one source")
        self.sources = tuple(sources)
        self.rows = tuple(rows)
        nrows: int | None = None
        for source, idx in zip(self.sources, self.rows):
            n = source.num_rows if idx is None else len(idx)
            if nrows is None:
                nrows = n
            elif n != nrows:
                raise ExecutionError(
                    f"ragged index vectors: {n} vs {nrows} rows"
                )
        self._nrows = nrows or 0
        self._lookup: dict[str, int] | None = None
        self._schema: TableSchema | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_relation(cls, relation: Relation) -> "IndexFrame":
        """The identity frame over one relation (zero marginal bytes)."""
        return cls((relation,), (None,))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._nrows

    def __len__(self) -> int:
        return self._nrows

    @property
    def column_names(self) -> list[str]:
        names: list[str] = []
        for source in self.sources:
            names.extend(source.column_names)
        return names

    def _source_index(self, name: str) -> int:
        if self._lookup is None:
            lookup: dict[str, int] = {}
            for index, source in enumerate(self.sources):
                for cname in source.column_names:
                    lookup[cname] = index
            self._lookup = lookup
        index = self._lookup.get(name)
        if index is None:
            raise SchemaError(f"no column {name!r} in frame")
        return index

    def column_type(self, name: str) -> ColumnType:
        return self.sources[self._source_index(name)].column_type(name)

    @property
    def schema(self) -> TableSchema:
        """A schema view over the concatenated source columns.

        Mirrors the table name a chain of relation-level joins would
        produce, so predicate resolution
        (:func:`repro.db.expressions.resolve_column`) and error messages
        behave identically on frames and materialized relations.
        """
        if self._schema is None:
            columns = []
            name: str | None = None
            for source in self.sources:
                columns.extend(source.schema.columns)
                name = (
                    source.schema.name
                    if name is None
                    else f"{name}_x_{source.schema.name}"
                )
            if len(self.sources) == 1:
                self._schema = self.sources[0].schema
            else:
                assert name is not None
                self._schema = TableSchema(name=name, columns=columns)
        return self._schema

    @property
    def estimated_bytes(self) -> int:
        """Marginal resident size: the index vectors only.

        Source relations are shared (base tables, the provenance table,
        memoized prefixed contexts), so a frame's true incremental cost
        in the prefix trie is its per-source row arrays.
        """
        return sum(idx.nbytes for idx in self.rows if idx is not None)

    def compact(self) -> "IndexFrame":
        """The same frame with its row vectors cast to int32 where every
        source fits, halving what the engine's prefix trie holds per
        cached step.  Values are unchanged, so gathers and joins over
        the result produce identical bytes."""
        if all(idx is None or idx.dtype == np.int32 for idx in self.rows):
            return self
        if any(source.num_rows > _INT32_MAX for source in self.sources):
            return self
        rows = tuple(
            None if idx is None else idx.astype(np.int32, copy=False)
            for idx in self.rows
        )
        return IndexFrame(self.sources, rows)

    def __repr__(self) -> str:
        return (
            f"IndexFrame({self._nrows} rows over "
            f"{len(self.sources)} sources, "
            f"{self.estimated_bytes} index bytes)"
        )

    # ------------------------------------------------------------------
    # Gathers
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Gather one column's values (a copy unless identity-mapped)."""
        index = self._source_index(name)
        source = self.sources[index]
        idx = self.rows[index]
        return source.column(name) if idx is None else source.gather_column(
            name, idx
        )

    def gather_column(
        self, name: str, subset: np.ndarray | None = None
    ) -> np.ndarray:
        """Gather ``name`` for ``subset`` frame rows (all rows if None).

        Index composition happens before touching the data array, so a
        sampled evaluator over a huge frame gathers only its own rows —
        and disk-backed source columns decode only the gathered slice.
        """
        index = self._source_index(name)
        source = self.sources[index]
        idx = self.rows[index]
        if subset is None:
            return self.column(name)
        combined = subset if idx is None else idx[subset]
        return source.gather_column(name, combined)

    def column_encoding(
        self, name: str, subset: np.ndarray | None = None
    ) -> tuple[TextColumn, np.ndarray | None] | None:
        """The source-level :class:`TextColumn` behind a frame column.

        Returns ``(column, row_indices)`` where ``row_indices`` maps the
        requested (sub)rows into the column's codes — ``None`` meaning
        identity.  Returns ``None`` for a numeric column.
        """
        index = self._source_index(name)
        encoding = self.sources[index].encoding(name)
        if encoding is None:
            return None
        idx = self.rows[index]
        if subset is None:
            return encoding, idx
        combined = subset if idx is None else idx[subset]
        return encoding, combined

    # ------------------------------------------------------------------
    # Relational operations on index vectors
    # ------------------------------------------------------------------
    def select(self, indices: np.ndarray) -> "IndexFrame":
        """Frame rows selected by an index array (order-preserving)."""
        rows = tuple(
            indices if idx is None else idx[indices] for idx in self.rows
        )
        return IndexFrame(self.sources, rows)

    def filter_mask(self, mask: np.ndarray) -> "IndexFrame":
        """Frame rows where the boolean ``mask`` is True."""
        if mask.dtype != np.bool_ or len(mask) != self._nrows:
            raise SchemaError("filter mask must be boolean and row-aligned")
        return self.select(np.nonzero(mask)[0])

    def join(
        self,
        other: "IndexFrame | Relation",
        conditions: list[tuple[str, str]],
    ) -> "IndexFrame":
        """Equi-join with another frame/relation on index vectors.

        Gathers only the key columns, runs the
        :func:`~repro.db.executor.join_row_indices` core (build on the
        smaller side, stable probe order), and composes the row index
        vectors of both sides.
        """
        from .executor import join_row_indices

        if not conditions:
            raise ExecutionError("join requires at least one condition")
        right = (
            other
            if isinstance(other, IndexFrame)
            else IndexFrame.from_relation(other)
        )
        overlap = set(self.column_names) & set(right.column_names)
        if overlap:
            raise ExecutionError(
                f"join would produce duplicate columns: {overlap}"
            )
        left_arrays = [self.column(lc) for lc, _ in conditions]
        right_arrays = [right.column(rc) for _, rc in conditions]
        left_idx, right_idx = join_row_indices(
            left_arrays, right_arrays, self.num_rows, right.num_rows
        )
        rows = tuple(
            left_idx if idx is None else idx[left_idx] for idx in self.rows
        ) + tuple(
            right_idx if idx is None else idx[right_idx]
            for idx in right.rows
        )
        return IndexFrame(self.sources + right.sources, rows)

    def cross(self, other: "IndexFrame | Relation") -> "IndexFrame":
        """Cartesian product (only when no join condition connects)."""
        right = (
            other
            if isinstance(other, IndexFrame)
            else IndexFrame.from_relation(other)
        )
        n, m = self.num_rows, right.num_rows
        left_idx = np.repeat(np.arange(n, dtype=np.int64), m)
        right_idx = np.tile(np.arange(m, dtype=np.int64), n)
        rows = tuple(
            left_idx if idx is None else idx[left_idx] for idx in self.rows
        ) + tuple(
            right_idx if idx is None else idx[right_idx]
            for idx in right.rows
        )
        return IndexFrame(self.sources + right.sources, rows)

    # ------------------------------------------------------------------
    # The materialization edge
    # ------------------------------------------------------------------
    def to_relation(self) -> Relation:
        """Gather every column into a :class:`Relation`.

        Byte-identical (schema order, rows, dtypes, table name) to
        joining the source relations themselves: each source reduces to
        ``source.take(rows)`` (TEXT columns gather codes and keep their
        dictionaries); a single-source frame is that relation (source
        schema, primary key included), a multi-source frame the
        sources' columns side by side in join order.
        """
        parts = [
            source if idx is None else source.take(idx)
            for source, idx in zip(self.sources, self.rows)
        ]
        if len(parts) == 1:
            return parts[0]
        return Relation.hstack(self.schema, parts)
