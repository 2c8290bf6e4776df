"""Schema graphs (paper Definition 2).

A schema graph's vertices are the database relations; each undirected edge
carries a *set* of permissible equi-join conditions between the two
relations.  Self-edges are allowed (e.g. joining ``lineup_player`` with
itself on ``lineupid`` to find players sharing a lineup).

Schema graphs are an input to CaJaDE.  :meth:`SchemaGraph.from_database`
seeds one from foreign-key constraints; callers may add further conditions
(the paper: "also allows the user to provide additional join conditions").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..db.database import Database
from ..db.errors import SchemaError


@dataclass(frozen=True)
class JoinConditionSpec:
    """One permissible join condition: a conjunction of attribute equalities.

    ``pairs`` holds ``(side_a_attr, side_b_attr)`` tuples oriented with the
    owning edge's ``table_a``/``table_b``.
    """

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise SchemaError("join condition must have at least one pair")

    def flipped(self) -> "JoinConditionSpec":
        """The same condition oriented from side b to side a."""
        return JoinConditionSpec(tuple((b, a) for a, b in self.pairs))

    def describe(self, alias_a: str, alias_b: str) -> str:
        return " AND ".join(
            f"{alias_a}.{a} = {alias_b}.{b}" for a, b in self.pairs
        )

    def __str__(self) -> str:
        return " AND ".join(f"{a} = {b}" for a, b in self.pairs)


@dataclass(frozen=True)
class SchemaEdge:
    """An undirected schema-graph edge with its permissible conditions."""

    table_a: str
    table_b: str
    conditions: tuple[JoinConditionSpec, ...]

    def __post_init__(self) -> None:
        if not self.conditions:
            raise SchemaError("schema edge must carry at least one condition")

    @property
    def is_self_edge(self) -> bool:
        return self.table_a == self.table_b

    def other_side(self, table: str) -> str:
        if table == self.table_a:
            return self.table_b
        if table == self.table_b:
            return self.table_a
        raise SchemaError(f"{table!r} is not an endpoint of this edge")

    def conditions_from(self, table: str) -> list[JoinConditionSpec]:
        """Conditions oriented so their left side belongs to ``table``.

        For self-edges both orientations are returned (they differ when the
        condition is asymmetric).
        """
        if self.is_self_edge:
            oriented = []
            for cond in self.conditions:
                oriented.append(cond)
                flipped = cond.flipped()
                if flipped != cond:
                    oriented.append(flipped)
            return oriented
        if table == self.table_a:
            return list(self.conditions)
        if table == self.table_b:
            return [cond.flipped() for cond in self.conditions]
        raise SchemaError(f"{table!r} is not an endpoint of this edge")


class SchemaGraph:
    """The space of permissible joins over a database schema."""

    def __init__(self, tables: list[str] | None = None):
        self._tables: set[str] = set(tables or [])
        self._edges: list[SchemaEdge] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_database(
        cls,
        db: Database,
        include_self_edges: bool = False,
    ) -> "SchemaGraph":
        """Seed a schema graph from the database's foreign keys.

        Each FK ``R.cols → S.ref_cols`` becomes an edge R—S whose single
        condition equates the column lists pairwise.  ``include_self_edges``
        additionally adds, for every many-to-many mapping table with a
        composite key, a self-join on its leading key column (the paper's
        ``lineup_player`` pattern for "entities sharing a group").
        """
        graph = cls(tables=db.table_names)
        for fk in db.foreign_keys:
            graph.add_edge(
                fk.table,
                fk.ref_table,
                [tuple(zip(fk.columns, fk.ref_columns))],
            )
        if include_self_edges:
            for name in db.table_names:
                schema = db.table(name).schema
                if len(schema.primary_key) >= 2:
                    lead = schema.primary_key[0]
                    graph.add_edge(name, name, [[(lead, lead)]])
        return graph

    def add_edge(
        self,
        table_a: str,
        table_b: str,
        conditions: list,
    ) -> SchemaEdge:
        """Add an edge; ``conditions`` is a list of pair-lists.

        If an edge between the two tables already exists the conditions are
        merged into it (the schema graph has at most one edge per table
        pair; multiple *conditions* live on that edge, per Definition 2).
        """
        self._tables.add(table_a)
        self._tables.add(table_b)
        specs = tuple(
            JoinConditionSpec(tuple((str(a), str(b)) for a, b in pairs))
            for pairs in conditions
        )
        for index, edge in enumerate(self._edges):
            if {edge.table_a, edge.table_b} == {table_a, table_b}:
                if edge.table_a == table_a:
                    merged = edge.conditions + specs
                else:
                    merged = edge.conditions + tuple(s.flipped() for s in specs)
                new_edge = SchemaEdge(edge.table_a, edge.table_b, merged)
                self._edges[index] = new_edge
                return new_edge
        edge = SchemaEdge(table_a, table_b, specs)
        self._edges.append(edge)
        return edge

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def tables(self) -> list[str]:
        return sorted(self._tables)

    @property
    def edges(self) -> list[SchemaEdge]:
        return list(self._edges)

    def edges_of(self, table: str) -> list[SchemaEdge]:
        """All edges with ``table`` as an endpoint."""
        return [
            e for e in self._edges if table in (e.table_a, e.table_b)
        ]

    def num_conditions(self) -> int:
        return sum(len(e.conditions) for e in self._edges)

    def __repr__(self) -> str:
        return (
            f"SchemaGraph({len(self._tables)} tables, {len(self._edges)} "
            f"edges, {self.num_conditions()} conditions)"
        )
