"""Oracles for the storage pipeline: eager joins over copied columns.

Production runs every join — the working table and the APT plans — on
``IndexFrame`` index vectors and gathers columns at the edge.  These
oracles compute the same tables the way the definitions read:

- :func:`hash_join` / :func:`cross_product` join two relations and zip
  every column (the relation-level joins the executor ran before index
  vectors; :func:`hash_join` shares production's row-pair core,
  ``join_row_indices``);
- :func:`materialize_eager` executes a join graph's canonical plan with
  :func:`hash_join` on full relations, zipping every column at every
  step (the APT pipeline before late materialization became the only
  path);
- :func:`provenance_by_definition` is PT(Q, D) = σ_θ(R_1 × … × R_p), the
  filtered cross product of paper §2.1, with no join planning at all;
- :func:`aggregate_by_definition` evaluates every SELECT item one group
  at a time with Python ``min``/``max`` and numpy's 1-D reductions (the
  executor evaluates each item for all groups at once);
- :class:`EagerEngine` stands in for the session's
  ``MaterializationEngine`` so whole questions can be answered over
  relation-backed APTs (no trie, no frames, per-APT re-encoding).
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.apt import AugmentedProvenanceTable, _wrap_apt, build_plan
from repro.core.join_graph import JoinGraph
from repro.db.database import Database
from repro.db.errors import ExecutionError
from repro.db.executor import join_row_indices
from repro.db.frame import IndexFrame
from repro.db.provenance import PT_ROW_ID, ProvenanceTable
from repro.db.expressions import Arithmetic, ColumnRef, Expression, Literal
from repro.db.query import AggregateCall, Query
from repro.db.relation import Relation
from repro.db.schema import Column, TableSchema
from repro.db.types import infer_column_type
from repro.engine import CacheStats, EngineStats


def _zip_columns(left: Relation, right: Relation) -> Relation:
    """Concatenate the columns of two row-aligned relations."""
    columns = {name: left.column(name) for name in left.column_names}
    columns.update({name: right.column(name) for name in right.column_names})
    schema = TableSchema(
        name=f"{left.schema.name}_x_{right.schema.name}",
        columns=list(left.schema.columns) + list(right.schema.columns),
    )
    return Relation(schema, columns)


def hash_join(
    left: Relation,
    right: Relation,
    conditions: list[tuple[str, str]],
) -> Relation:
    """Equi-join two relations on ``[(left_col, right_col), ...]``.

    NULL keys never match (SQL semantics).  The output is both inputs'
    columns zipped; the names must be disjoint.
    """
    if not conditions:
        raise ExecutionError("hash_join requires at least one condition")
    overlap = set(left.column_names) & set(right.column_names)
    if overlap:
        raise ExecutionError(f"join would produce duplicate columns: {overlap}")
    left_idx, right_idx = join_row_indices(
        [left.column(lc) for lc, _ in conditions],
        [right.column(rc) for _, rc in conditions],
        left.num_rows,
        right.num_rows,
    )
    return _zip_columns(left.take(left_idx), right.take(right_idx))


def cross_product(left: Relation, right: Relation) -> Relation:
    """Cartesian product, left-major."""
    n, m = left.num_rows, right.num_rows
    left_idx = np.repeat(np.arange(n), m)
    right_idx = np.tile(np.arange(m), n)
    return _zip_columns(left.take(left_idx), right.take(right_idx))


def restrict_base(
    pt: ProvenanceTable, restrict_row_ids: np.ndarray | None
) -> Relation:
    """The PT-side base relation, optionally restricted to question rows."""
    base = pt.relation
    if restrict_row_ids is not None:
        wanted = np.isin(base.column(PT_ROW_ID), restrict_row_ids)
        base = base.filter_mask(wanted)
    return base


def materialize_eager(
    join_graph: JoinGraph,
    pt: ProvenanceTable,
    db: Database,
    restrict_row_ids: np.ndarray | None = None,
) -> Relation:
    """APT(Q, D, Ω) as one fully materialized relation."""
    current = restrict_base(pt, restrict_row_ids)
    plan = build_plan(join_graph, pt)
    for step in plan.joins:
        context = db.table(step.table).prefix_columns(f"{step.alias}.")
        current = hash_join(current, context, list(step.conditions))
    for step in plan.filters:
        keep = np.ones(current.num_rows, dtype=bool)
        for left, right in step.pairs:
            pairs = zip(current.column(left), current.column(right))
            keep &= np.array(
                [l is not None and r is not None and l == r for l, r in pairs],
                dtype=bool,
            )
        current = current.filter_mask(keep)
    return current


def eager_apt(
    join_graph: JoinGraph,
    pt: ProvenanceTable,
    db: Database,
    restrict_row_ids: np.ndarray | None = None,
) -> AugmentedProvenanceTable:
    """A relation-backed APT over :func:`materialize_eager`'s result."""
    relation = materialize_eager(join_graph, pt, db, restrict_row_ids)
    # Attribute metadata is schema-only; borrow production's rules.
    framed = _wrap_apt(join_graph, pt, IndexFrame.from_relation(relation), db)
    return AugmentedProvenanceTable(
        join_graph,
        relation=relation,
        attributes=framed.attributes,
        excluded_attributes=framed.excluded_attributes,
    )


def provenance_by_definition(query: Query, db: Database) -> Relation:
    """σ_WHERE over the cross product of the FROM tables (row order: the
    product's, which is not the planned pipeline's)."""
    product: Relation | None = None
    for ref in query.tables:
        prefixed = db.table(ref.table).prefix_columns(f"{ref.alias}.")
        product = (
            prefixed if product is None else cross_product(product, prefixed)
        )
    assert product is not None
    if query.where is None:
        return product
    return product.filter_mask(query.where.mask(product))


def _aggregate_one_group(
    call: AggregateCall, relation: Relation, indices: np.ndarray
) -> Any:
    if call.func == "count" and call.argument is None:
        return int(len(indices))
    assert call.argument is not None
    values = call.argument.values(relation)[indices]
    if values.dtype == object:
        non_null = [v for v in values if v is not None]
        if call.func == "count":
            return len(non_null)
        if not non_null:
            return None
        if call.func == "min":
            return min(non_null)
        if call.func == "max":
            return max(non_null)
        raise ExecutionError(
            f"{call.func.upper()} is not defined on categorical values"
        )
    numeric = values.astype(np.float64)
    valid = numeric[~np.isnan(numeric)]
    if call.func == "count":
        return int(len(valid))
    if len(valid) == 0:
        return None
    if call.func == "sum":
        return float(valid.sum())
    if call.func == "avg":
        return float(valid.mean())
    if call.func == "min":
        return float(valid.min())
    return float(valid.max())


def _item_one_group(
    expression: Expression, relation: Relation, indices: np.ndarray
) -> Any:
    """One SELECT expression for a single group."""
    if isinstance(expression, AggregateCall):
        return _aggregate_one_group(expression, relation, indices)
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, ColumnRef):
        return expression.values(relation)[indices[0]]
    if isinstance(expression, Arithmetic):
        left = _item_one_group(expression.left, relation, indices)
        right = _item_one_group(expression.right, relation, indices)
        if left is None or right is None:
            return None
        ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
               "*": lambda a, b: a * b, "/": lambda a, b: a / b}
        try:
            return ops[expression.op](left, right)
        except ZeroDivisionError:
            return None
    raise ExecutionError(f"cannot evaluate SELECT expression {expression}")


def aggregate_by_definition(
    query: Query, work: Relation, groups: dict[tuple, np.ndarray]
) -> Relation:
    """``executor.aggregate`` with every SELECT item evaluated one group
    at a time: one result row per group, typed by its values, ordered by
    the columns that hold no NULL when the query groups."""
    rows = [
        [_item_one_group(item.expression, work, indices)
         for item in query.select]
        for indices in groups.values()
    ]
    columns = [
        Column(item.alias, infer_column_type([row[pos] for row in rows]))
        for pos, item in enumerate(query.select)
    ]
    result = Relation.from_rows(TableSchema("result", columns), rows)
    if not query.group_by:
        return result
    return result.sort_by([
        c.name for c in columns
        if not any(v is None for v in result.column(c.name))
    ])


class EagerEngine:
    """``MaterializationEngine``'s session-facing surface, eagerly."""

    def __init__(self, pt: ProvenanceTable, db: Database, cache_mb: float = 0.0):
        self._pt = pt
        self._db = db

    def materialize_iter(
        self,
        join_graphs: Sequence[JoinGraph],
        restrict_row_ids: np.ndarray | None = None,
    ) -> Iterator[tuple[int, AugmentedProvenanceTable]]:
        for index, join_graph in enumerate(join_graphs):
            yield index, eager_apt(
                join_graph, self._pt, self._db, restrict_row_ids
            )

    @property
    def stats(self) -> EngineStats:
        return EngineStats(cache=CacheStats())


def swap_in(monkeypatch) -> None:
    """Make sessions materialize their APTs with :class:`EagerEngine`."""
    monkeypatch.setattr("repro.api.session.MaterializationEngine", EagerEngine)
