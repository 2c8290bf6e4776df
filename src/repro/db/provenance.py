"""Why-provenance for single-block aggregate queries (paper §2.1).

For a query Q with relsQ(D) = {R_1, ..., R_p}, the provenance table
PT(Q, D) is the subset of R_1 × ... × R_p that satisfies Q's WHERE clause —
i.e. the pre-aggregation working table.  PT(Q, D, t) restricts it to the
rows that contribute to output tuple t (same group-by values).

This module plays the role GProM/Perm play in the paper's implementation.
Every PT carries a synthetic ``__pt_row_id`` column so downstream APTs can
attribute each augmented row back to its provenance row, which is what
Definition 7's per-PT-row coverage needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .database import Database
from .errors import ExecutionError
from .executor import (
    aggregate,
    group_columns_in_working,
    group_indices,
    working_table,
)
from .query import Query
from .relation import Relation
from .types import ColumnType

PT_ROW_ID = "__pt_row_id"


@dataclass
class ProvenanceTable:
    """PT(Q, D) with its partition into per-output-tuple provenance.

    Attributes:
        query: the originating query.
        relation: the provenance relation; columns are ``alias.attr`` plus
            the synthetic :data:`PT_ROW_ID`.
        group_columns: working-table columns realizing the GROUP BY.
        groups: output group key → row-index array into ``relation``.
        result: the query's result relation (for locating user questions).
    """

    query: Query
    relation: Relation
    group_columns: list[str]
    groups: dict[tuple[Any, ...], np.ndarray]
    result: Relation

    @classmethod
    def compute(cls, query: Query, db: Database) -> "ProvenanceTable":
        """Materialize the provenance table of ``query`` over ``db``.

        The working table's join pipeline runs on index vectors and is
        gathered once at this edge; the rows are partitioned once,
        vectorized over their factorized group-key codes, and the same
        partition feeds the query's aggregation.
        """
        work = working_table(query, db)
        work = work.with_column(
            PT_ROW_ID,
            ColumnType.INT,
            np.arange(work.num_rows, dtype=np.int64),
        )
        group_cols = group_columns_in_working(query, work)
        groups = group_indices(work, group_cols)
        result = aggregate(
            query,
            work.project([c for c in work.column_names if c != PT_ROW_ID]),
            groups,
        )
        return cls(
            query=query,
            relation=work,
            group_columns=group_cols,
            groups=groups,
            result=result,
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def group_key_for(self, output: dict[str, Any]) -> tuple[Any, ...]:
        """Translate an output-tuple description into a group key.

        ``output`` maps SELECT aliases (or bare group-by attribute names)
        to values, e.g. ``{"season_name": "2015-16"}``.  It must pin down
        exactly one group.
        """
        bare_to_col = {c.split(".")[-1]: c for c in self.group_columns}
        alias_to_col: dict[str, str] = {}
        group_bare = set(bare_to_col)
        for item in self.query.select:
            refs = item.expression.referenced_columns()
            for ref in refs:
                bare = ref.split(".")[-1]
                if bare in group_bare:
                    alias_to_col[item.alias] = bare_to_col[bare]
        matches: list[tuple[Any, ...]] = []
        for key in self.groups:
            ok = True
            for name, expected in output.items():
                col = alias_to_col.get(name) or bare_to_col.get(name)
                if col is None:
                    raise ExecutionError(
                        f"{name!r} is not a group-by output of the query"
                    )
                position = self.group_columns.index(col)
                if key[position] != expected:
                    ok = False
                    break
            if ok:
                matches.append(key)
        if len(matches) != 1:
            raise ExecutionError(
                f"output description {output!r} matches {len(matches)} "
                "groups; it must identify exactly one"
            )
        return matches[0]

    def provenance_of(self, group_key: tuple[Any, ...]) -> Relation:
        """PT(Q, D, t): the provenance rows of one output tuple."""
        if group_key not in self.groups:
            raise ExecutionError(f"no output group {group_key!r}")
        return self.relation.take(self.groups[group_key])

    def row_ids_of(self, group_key: tuple[Any, ...]) -> np.ndarray:
        """The ``__pt_row_id`` values of one output tuple's provenance."""
        indices = self.groups.get(group_key)
        if indices is None:
            raise ExecutionError(f"no output group {group_key!r}")
        return self.relation.column(PT_ROW_ID)[indices]

    def row_ids_excluding(self, group_key: tuple[Any, ...]) -> np.ndarray:
        """Row ids of all provenance rows *not* contributing to the group.

        Used for single-point questions where t2 is "the rest of the
        output" (paper §2.4).  One vectorized membership test over the
        provenance id array — outlier questions over very large
        provenance used to pay a Python set/list comprehension here.
        """
        own = self.row_ids_of(group_key)
        all_ids = self.relation.column(PT_ROW_ID)
        return all_ids[~np.isin(all_ids, own)].astype(np.int64, copy=False)

    @property
    def data_columns(self) -> list[str]:
        """Provenance columns excluding the synthetic row id."""
        return [c for c in self.relation.column_names if c != PT_ROW_ID]

    def __repr__(self) -> str:
        return (
            f"ProvenanceTable({self.relation.num_rows} rows, "
            f"{len(self.groups)} output groups)"
        )
