"""The database catalog: named relations plus declared constraints.

A :class:`Database` owns relations keyed by table name, a foreign-key
registry (the seed of CaJaDE's schema graph), and cached per-table
statistics used by the cost model (:mod:`repro.db.statistics`).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from .errors import CatalogError, SchemaError
from .relation import Relation
from .schema import ForeignKey, TableSchema


class Database:
    """A named collection of relations with key constraints."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: dict[str, Relation] = {}
        self._foreign_keys: list[ForeignKey] = []
        self._stats_cache: dict[str, "TableStatistics"] = {}

    # ------------------------------------------------------------------
    # Catalog management
    # ------------------------------------------------------------------
    def create_table(
        self,
        schema: TableSchema,
        rows: Iterable[Sequence[Any]] = (),
    ) -> Relation:
        """Create a table from a schema and row tuples."""
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        relation = Relation.from_rows(schema, rows)
        self._tables[schema.name] = relation
        return relation

    def add_relation(self, relation: Relation, replace: bool = False) -> None:
        """Register an already-built relation under its schema name.

        Its TEXT columns were encoded when it was built (a TEXT cell
        that is not ``str | None`` never gets this far).
        """
        if relation.schema.name in self._tables and not replace:
            raise SchemaError(f"table {relation.schema.name!r} already exists")
        self._tables[relation.schema.name] = relation
        self._stats_cache.pop(relation.schema.name, None)

    def table(self, name: str) -> Relation:
        if name not in self._tables:
            raise CatalogError(
                f"no table named {name!r}; available: {sorted(self._tables)}"
            )
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{name}({rel.num_rows})" for name, rel in sorted(self._tables.items())
        )
        return f"Database({self.name!r}: {sizes})"

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    def add_foreign_key(
        self,
        table: str,
        columns: Sequence[str],
        ref_table: str,
        ref_columns: Sequence[str],
    ) -> ForeignKey:
        """Declare a foreign key; both sides must exist in the catalog."""
        for side, cols in ((table, columns), (ref_table, ref_columns)):
            schema = self.table(side).schema
            for col in cols:
                if not schema.has_column(col):
                    raise SchemaError(
                        f"foreign key references missing column "
                        f"{side}.{col}"
                    )
        fk = ForeignKey(
            table=table,
            columns=tuple(columns),
            ref_table=ref_table,
            ref_columns=tuple(ref_columns),
        )
        self._foreign_keys.append(fk)
        return fk

    @property
    def foreign_keys(self) -> list[ForeignKey]:
        return list(self._foreign_keys)

    def foreign_keys_of(self, table: str) -> list[ForeignKey]:
        return [fk for fk in self._foreign_keys if fk.table == table]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def warm_join_indexes(self) -> int:
        """Do nothing and return 0.

        Joins build no per-column index (every plan join step runs the
        hash core, ``IndexFrame.join``), so there is nothing to warm.
        Kept only because ``benchmarks/e2e/workloads.py`` still calls it;
        ROADMAP direction 1 deletes the call and this method together.
        """
        return 0

    def statistics(self, name: str) -> "TableStatistics":
        """Cached per-table statistics for the cost model."""
        from .statistics import TableStatistics

        if name not in self._stats_cache:
            self._stats_cache[name] = TableStatistics(self.table(name))
        return self._stats_cache[name]

    # ------------------------------------------------------------------
    # Persistence (out-of-core column store)
    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        """Persist every table in the memory-mappable column-store format.

        See :mod:`repro.db.colstore` for the file layout.  A database
        saved here reopens with :meth:`open` in O(manifest + dicts
        touched) time instead of re-running CSV coercion and encoding.
        """
        from .colstore import save_columnar

        save_columnar(self, directory)

    @classmethod
    def open(cls, directory) -> "Database":
        """Open a database saved by :meth:`save` with memmap-backed columns."""
        from .colstore import open_columnar

        return open_columnar(directory)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def sql(self, text: str) -> Relation:
        """Parse and execute a SQL query against this database."""
        from .executor import execute
        from .parser import parse_sql

        return execute(parse_sql(text), self)

    def total_rows(self) -> int:
        return sum(rel.num_rows for rel in self._tables.values())
