"""Augmented provenance tables (paper Definition 4).

For a join graph Ω, APT(Q, D, Ω) = σ_θΩ(PT(Q, D) × S_1 × ... × S_p) — the
provenance table joined with every context node's relation on the edge
conditions.  Materialization walks Ω breadth-first from the PT node
joining on index vectors (:class:`~repro.db.frame.IndexFrame`); edges
closing cycles among visited nodes become post-filters.

Materialization is split into a *canonical plan* (:func:`build_plan`) and
its execution, which :mod:`repro.engine` owns so it can cache and share
intermediate join results across join graphs.  The canonical step order
deliberately matches the BFS enumeration order of :mod:`repro.core.enumeration`
(lowest node id first — node ids are assigned in extension order): a join
graph of size k that extends a size-(k−1) graph Ω' by a fresh node
produces a plan whose first k−1 join steps are exactly Ω''s plan, which
is the invariant that makes prefix sharing in the engine's
materialization trie fire.  Changing either order breaks that sharing
(results stay correct; only reuse is lost).

Each APT row keeps its originating provenance row's ``__pt_row_id`` so
Definition 7's per-PT-row coverage is computable: a PT row is covered by a
pattern iff at least one of its APT rows matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..db.database import Database
from ..db.errors import ExecutionError
from ..db.frame import IndexFrame
from ..db.provenance import PT_ROW_ID, ProvenanceTable
from ..db.relation import Relation, TextColumn
from ..db.types import ColumnType
from .join_graph import JoinGraph


@dataclass
class APTAttribute:
    """Metadata about one minable APT attribute."""

    name: str
    is_numeric: bool
    from_provenance: bool


class AugmentedProvenanceTable:
    """A materialized APT plus attribute metadata for pattern mining.

    An APT is a late-materialized :class:`~repro.db.frame.IndexFrame` of
    per-base-table row-index vectors.  It gathers column values only
    when a consumer asks for them: the mining kernel gathers int32
    dictionary codes instead of object values, numeric columns gather as
    cheap float slices, and the full :attr:`relation` is materialized
    lazily only if something still needs the whole table.  Any table can
    be mined: ``relation=`` wraps it in the identity frame.
    """

    def __init__(
        self,
        join_graph: JoinGraph,
        relation: Relation | None = None,
        attributes: list[APTAttribute] | None = None,
        excluded_attributes: list[str] | None = None,
        frame: IndexFrame | None = None,
    ):
        if frame is None:
            if relation is None:
                raise ValueError("an APT needs a relation or an index frame")
            frame = IndexFrame.from_relation(relation)
        self.join_graph = join_graph
        self.frame = frame
        self.attributes = list(attributes or [])
        self.excluded_attributes = list(excluded_attributes or [])
        self._relation: Relation | None = None
        self._pt_ids: np.ndarray | None = None

    @property
    def relation(self) -> Relation:
        """The fully-gathered APT relation (materialized on demand)."""
        if self._relation is None:
            self._relation = self.frame.to_relation()
        return self._relation

    @property
    def num_rows(self) -> int:
        return self.frame.num_rows

    @property
    def pt_row_ids(self) -> np.ndarray:
        if self._pt_ids is None:
            self._pt_ids = self.frame.column(PT_ROW_ID)
        return self._pt_ids

    def column_values(
        self, name: str, subset: np.ndarray | None = None
    ) -> np.ndarray:
        """Gather one column (optionally only ``subset`` row indices).

        ``subset`` composes with the frame's index vectors before the
        source array is touched, so a sampled evaluator never gathers
        rows it will not score.
        """
        return self.frame.gather_column(name, subset)

    def column_encoding(
        self, name: str, subset: np.ndarray | None = None
    ) -> tuple[TextColumn, np.ndarray | None] | None:
        """Base-table dictionary codes behind an object column.

        ``(encoding, rows)`` lets the mining kernel build its code
        matrices by gathering ``encoding.codes[rows]`` instead of
        re-encoding object values per APT.  ``None`` for a numeric
        column.
        """
        return self.frame.column_encoding(name, subset)

    def minable_columns(
        self, subset: np.ndarray | None = None
    ) -> dict[str, np.ndarray]:
        """Attribute name → raw values of every minable attribute
        (optionally only ``subset`` rows).  Mining never calls this: it
        reads columns through its kernel."""
        return {
            a.name: self.column_values(a.name, subset)
            for a in self.attributes
        }

    def attribute(self, name: str) -> APTAttribute:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        raise KeyError(name)

    def numeric_attribute_names(self) -> set[str]:
        return {a.name for a in self.attributes if a.is_numeric}

    def categorical_attribute_names(self) -> set[str]:
        return {a.name for a in self.attributes if not a.is_numeric}

    def __repr__(self) -> str:
        return (
            f"APT({self.join_graph.structure()!r}, {self.num_rows} rows, "
            f"{len(self.attributes)} minable attributes)"
        )


# ----------------------------------------------------------------------
# Canonical materialization plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinStep:
    """One join step: bring ``table`` in under ``alias``.

    ``conditions`` pairs columns of the running intermediate (left) with
    columns of the incoming context relation (right).  They are sorted so
    two graphs whose steps constrain the same columns — regardless of the
    order their edges were added — produce identical, directly hashable
    steps (condition order does not affect a join's output rows or
    their order).
    """

    table: str
    alias: str
    conditions: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class FilterStep:
    """A cycle-closing edge applied as an equality post-filter.

    ``pairs`` holds ``(left_col, right_col)`` column names of the running
    intermediate; rows where any pair differs (or is NULL) are dropped.
    """

    pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class MaterializationPlan:
    """The canonical step sequence materializing one join graph's APT."""

    joins: tuple[JoinStep, ...]
    filters: tuple[FilterStep, ...]

    @property
    def steps(self) -> tuple[JoinStep | FilterStep, ...]:
        """All steps in execution order: joins first, then filters."""
        return self.joins + self.filters


def build_plan(join_graph: JoinGraph, pt: ProvenanceTable) -> MaterializationPlan:
    """Derive the canonical materialization plan of ``join_graph``.

    The walk visits the lowest-id frontier node first, conjoining every
    edge that links it to the visited set; node ids are assigned in
    enumeration-extension order, so a graph extending Ω' by a fresh node
    yields Ω''s join steps plus one (the trie-sharing invariant — see the
    module docstring).  Cycle-closing edges become sorted filter steps.
    This is the only walk of a join graph: λqcost prices these steps
    (:func:`repro.core.enumeration.estimate_apt_cost`).
    """
    aliases = join_graph.materialization_aliases()
    pt_columns = pt.relation.column_names

    def pt_side_column(attr: str, pt_alias: str | None) -> str:
        if pt_alias is not None:
            candidate = f"{pt_alias}.{attr}"
            if candidate in pt_columns:
                return candidate
        # Fall back to unique suffix resolution over PT columns.
        hits = [c for c in pt_columns if c.split(".")[-1] == attr]
        if len(hits) == 1:
            return hits[0]
        raise ExecutionError(
            f"cannot resolve PT-side join attribute {attr!r} "
            f"(alias {pt_alias!r}); candidates: {hits}"
        )

    def left_column(edge, node_id: int, attr: str) -> str:
        """Resolve an already-joined endpoint's attribute to a column."""
        if node_id == join_graph.pt_node.nid:
            return pt_side_column(attr, edge.pt_alias)
        return f"{aliases[node_id]}.{attr}"

    joins: list[JoinStep] = []
    visited: set[int] = {join_graph.pt_node.nid}
    remaining_edges = list(join_graph.edges)
    while True:
        # Pick a not-yet-visited node reachable from the visited set and
        # collect every edge linking it to visited nodes (parallel edges
        # conjoin).
        frontier: dict[int, list] = {}
        for edge in remaining_edges:
            for new, old in ((edge.v, edge.u), (edge.u, edge.v)):
                if old in visited and new not in visited:
                    frontier.setdefault(new, []).append(edge)
                    break
        if not frontier:
            break
        node_id = min(frontier)
        edges = frontier[node_id]
        node = join_graph.node(node_id)
        alias = aliases[node_id]
        conditions: list[tuple[str, str]] = []
        for edge in edges:
            if edge.v == node_id:
                anchor = edge.u
                for a_attr, b_attr in edge.condition.pairs:
                    conditions.append(
                        (left_column(edge, anchor, a_attr), f"{alias}.{b_attr}")
                    )
            else:
                anchor = edge.v
                for a_attr, b_attr in edge.condition.pairs:
                    conditions.append(
                        (left_column(edge, anchor, b_attr), f"{alias}.{a_attr}")
                    )
        joins.append(
            JoinStep(
                table=node.label,
                alias=alias,
                conditions=tuple(sorted(conditions)),
            )
        )
        visited.add(node_id)
        remaining_edges = [e for e in remaining_edges if e not in edges]

    # Any remaining edges close cycles among visited nodes: filter.
    filters: list[FilterStep] = []
    for edge in remaining_edges:
        if edge.u not in visited or edge.v not in visited:
            raise ExecutionError(
                "join graph is disconnected; cannot materialize APT"
            )
        pairs = tuple(
            sorted(
                (
                    left_column(edge, edge.u, a_attr),
                    left_column(edge, edge.v, b_attr),
                )
                for a_attr, b_attr in edge.condition.pairs
            )
        )
        filters.append(FilterStep(pairs=pairs))
    return MaterializationPlan(joins=tuple(joins), filters=tuple(sorted(filters, key=lambda f: f.pairs)))


def _filter_pair_mask(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Equality mask of one cycle-closing column pair (NULLs drop)."""
    if left.dtype == object or right.dtype == object:
        return np.array(
            [
                l is not None and r is not None and l == r
                for l, r in zip(left, right)
            ],
            dtype=bool,
        )
    with np.errstate(invalid="ignore"):
        return np.asarray(left == right)


def apply_filter_step(current: IndexFrame, step: FilterStep) -> IndexFrame:
    """Apply one cycle-closing equality filter to the intermediate.

    Only the two compared columns are gathered; the surviving rows
    compose as index selections.
    """
    mask = np.ones(current.num_rows, dtype=bool)
    for left_name, right_name in step.pairs:
        mask &= _filter_pair_mask(
            current.column(left_name), current.column(right_name)
        )
    return current.filter_mask(mask)


def restrict_base_frame(
    pt: ProvenanceTable, restrict_row_ids: np.ndarray | None
) -> IndexFrame:
    """The PT-side base as an index frame over the *full* PT relation.

    ``restrict_row_ids`` (set semantics) becomes a row-index vector
    instead of a filtered copy, so every question shares the one
    provenance relation (and its lazily-built column encodings) and the
    frame costs only the index array.
    """
    frame = IndexFrame.from_relation(pt.relation)
    if restrict_row_ids is None:
        return frame
    wanted = np.isin(pt.relation.column(PT_ROW_ID), restrict_row_ids)
    return frame.filter_mask(wanted)


def _key_columns_of(db: Database, table: str) -> set[str]:
    """PK columns, FK columns and FK-referenced columns of a relation.

    Key/id columns are surrogate labels: a pattern like ``season_id = 7``
    carries no human-readable information, and none of the paper's
    reported explanations contain id constants.  They are therefore
    excluded from mining (join conditions still use them, of course).
    """
    keys: set[str] = set(db.table(table).schema.primary_key)
    for fk in db.foreign_keys:
        if fk.table == table:
            keys.update(fk.columns)
        if fk.ref_table == table:
            keys.update(fk.ref_columns)
    return keys


def _wrap_apt(
    join_graph: JoinGraph,
    pt: ProvenanceTable,
    frame: IndexFrame,
    db: Database,
) -> AugmentedProvenanceTable:
    """Attach attribute metadata; exclude non-minable columns.

    Attribute metadata needs only schema information, so wrapping the
    frame gathers nothing.

    Excluded from mining (but kept in the APT):
    - the synthetic ``__pt_row_id`` lineage column;
    - the query's group-by attributes (they exactly capture the answer
      tuples, paper §2.4) — including renamed copies with the same bare
      attribute name joined in from context nodes, which would otherwise
      yield degenerate perfect-F-score patterns;
    - key/id columns (PK or FK participants) of the source relation.
    """
    group_cols = set(pt.group_columns)
    group_bare = {c.split(".")[-1] for c in group_cols}
    pt_cols = set(pt.data_columns)

    alias_to_table = {
        alias: join_graph.node(nid).label
        for nid, alias in join_graph.materialization_aliases().items()
    }
    alias_to_table.update(join_graph.query_aliases)
    key_cache: dict[str, set[str]] = {}

    def is_key_column(name: str) -> bool:
        if "." not in name:
            return False
        prefix, bare = name.split(".", 1)
        table = alias_to_table.get(prefix)
        if table is None or not db.has_table(table):
            return False
        if table not in key_cache:
            key_cache[table] = _key_columns_of(db, table)
        return bare in key_cache[table]

    attributes: list[APTAttribute] = []
    excluded: list[str] = []
    for name in frame.column_names:
        if name == PT_ROW_ID:
            continue
        bare = name.split(".")[-1]
        if name in group_cols or bare in group_bare or is_key_column(name):
            excluded.append(name)
            continue
        ctype = frame.column_type(name)
        attributes.append(
            APTAttribute(
                name=name,
                is_numeric=ctype.is_numeric,
                from_provenance=name in pt_cols,
            )
        )
    return AugmentedProvenanceTable(
        join_graph=join_graph,
        frame=frame,
        attributes=attributes,
        excluded_attributes=excluded,
    )
