"""Join-graph enumeration — Algorithm 2.

Iteration i extends every join graph of size i−1 by one edge conforming to
the schema graph, either (i) to a fresh node or (ii) as a parallel edge
between existing nodes.  λ#edges bounds the size.  Structural duplicates
(label-preserving isomorphic graphs reached via different extension
orders) are eliminated with a canonical signature.

``is_valid`` applies the paper's two filters before pattern mining:

- *primary-key connectivity*: every context node's relation must have all
  of its primary-key attributes constrained by some incident edge
  (prevents the redundancy-blowup join graphs of §4);
- *cost*: the estimated materialization cost of the APT query must stay
  below λqcost.  The estimate prices the steps of the plan the engine
  runs (:func:`~repro.core.apt.build_plan`) with the textbook equi-join
  cardinality formula over distinct counts computed on first ask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..db.database import Database
from ..db.provenance import ProvenanceTable
from ..db.query import Query
from ..db.statistics import TableStatistics, estimate_join_cardinality
from .apt import build_plan
from .config import CajadeConfig
from .join_graph import JoinGraph
from .schema_graph import SchemaGraph


@dataclass
class EnumerationStats:
    """Counters describing one enumeration run (Figure 12's 'number of
    join graphs')."""

    generated: int = 0
    duplicates: int = 0
    invalid_pk: int = 0
    invalid_cost: int = 0
    valid: int = 0


def extend_join_graph(
    graph: JoinGraph,
    schema_graph: SchemaGraph,
    query: Query,
) -> list[JoinGraph]:
    """ExtendJG: all one-edge extensions of ``graph`` (Algorithm 2)."""
    extensions: list[JoinGraph] = []
    for node in graph.nodes:
        if node.is_pt:
            attachment_points = [
                (alias, relation)
                for alias, relation in zip(query.aliases, query.table_names)
            ]
        else:
            attachment_points = [(None, node.label)]
        for pt_alias, relation in attachment_points:
            for edge in schema_graph.edges_of(relation):
                other = edge.other_side(relation)
                for condition in edge.conditions_from(relation):
                    extensions.extend(
                        _add_edge(graph, node.nid, other, condition, pt_alias)
                    )
    return extensions


def _add_edge(
    graph: JoinGraph,
    from_node: int,
    end_label: str,
    condition,
    pt_alias: str | None,
) -> list[JoinGraph]:
    """AddEdge: a fresh node plus parallel edges to matching nodes."""
    results = [graph.with_new_node(from_node, end_label, condition, pt_alias)]
    for node in graph.nodes:
        if node.nid == from_node or node.is_pt:
            continue
        if node.label != end_label:
            continue
        extended = graph.with_new_edge(
            from_node, node.nid, condition, pt_alias
        )
        if extended is not None:
            results.append(extended)
    return results


# ----------------------------------------------------------------------
# Validity checks
# ----------------------------------------------------------------------
def has_pk_connectivity(graph: JoinGraph, db: Database) -> bool:
    """The paper's anti-redundancy connectivity check (§4).

    For every context node, each primary-key attribute that *participates
    in a foreign key* must appear in some incident join condition.  This
    reproduces the paper's motivating example (player_game_stats joined
    only on the game key is rejected until the player table is joined on
    player_id) while admitting nodes like ``procedures`` whose ``seq_num``
    key part has no joinable counterpart anywhere in the schema — join
    graphs with such nodes appear throughout the paper's appendix.
    """
    for node in graph.context_nodes:
        schema = db.table(node.label).schema
        if not schema.primary_key:
            continue
        fk_attrs: set[str] = set()
        for fk in db.foreign_keys_of(node.label):
            fk_attrs.update(fk.columns)
        required = [a for a in schema.primary_key if a in fk_attrs]
        if not required:
            continue
        constrained: set[str] = set()
        for edge in graph.edges_of(node.nid):
            constrained.update(edge.endpoint_attrs(node.nid))
        for key_attr in required:
            if key_attr not in constrained:
                return False
    return True


def estimate_apt_cost(
    graph: JoinGraph,
    pt: ProvenanceTable,
    db: Database,
    pt_stats: TableStatistics | None = None,
) -> float:
    """Estimated total tuples flowing through the APT join pipeline.

    Prices the plan the engine executes (:func:`~repro.core.apt.build_plan`)
    step by step.  A join key on an earlier step's alias uses that
    table's distinct count; any other left key is a PT column, whose
    distinct count is capped by the running row estimate.
    """
    if pt_stats is None:
        pt_stats = TableStatistics(pt.relation)
    plan = build_plan(graph, pt)
    rows = float(pt.relation.num_rows)
    cost = rows
    owners: dict[str, str] = {}  # alias -> table of the steps so far
    for step in plan.joins:
        incoming = db.statistics(step.table)
        key_distincts: list[tuple[int, int]] = []
        for left, right in step.conditions:
            alias, _, attr = left.partition(".")
            if alias in owners:
                left_d = db.statistics(owners[alias]).distinct(attr)
            else:
                left_d = min(pt_stats.distinct(left), max(1, int(rows)))
            key_distincts.append(
                (left_d, incoming.distinct(right.partition(".")[2]))
            )
        table_rows = float(incoming.num_rows)
        rows = estimate_join_cardinality(rows, table_rows, key_distincts)
        cost += rows + table_rows
        owners[step.alias] = step.table
    # Cycle-closing edges only filter; charge one pass over the rows.
    return cost + rows * len(plan.filters)


def is_valid(
    graph: JoinGraph,
    pt: ProvenanceTable,
    db: Database,
    config: CajadeConfig,
    pt_stats: TableStatistics | None = None,
) -> tuple[bool, str]:
    """The paper's isValid: PK connectivity then cost (reason on failure)."""
    if config.check_pk_connectivity and not has_pk_connectivity(graph, db):
        return False, "pk"
    cost = estimate_apt_cost(graph, pt, db, pt_stats=pt_stats)
    if cost > config.qcost_threshold:
        return False, "cost"
    return True, "ok"


# ----------------------------------------------------------------------
# Enumeration driver
# ----------------------------------------------------------------------
def enumerate_join_graphs(
    schema_graph: SchemaGraph,
    query: Query,
    pt: ProvenanceTable,
    db: Database,
    config: CajadeConfig,
    stats: EnumerationStats | None = None,
) -> Iterator[JoinGraph]:
    """Yield the valid join graphs of size 1..λ#edges (plus Ω0).

    Ω0 (the bare PT node) is yielded first: mining it produces the
    provenance-only explanations the user study compares against.
    """
    stats = stats if stats is not None else EnumerationStats()
    query_aliases = {t.alias: t.table for t in query.tables}
    pt_stats = TableStatistics(pt.relation)

    initial = JoinGraph.initial(query_aliases)
    stats.generated += 1
    stats.valid += 1
    yield initial

    seen_signatures = {initial.signature()}
    previous = [initial]
    for _size in range(1, config.max_join_edges + 1):
        current: list[JoinGraph] = []
        for graph in previous:
            for extended in extend_join_graph(graph, schema_graph, query):
                stats.generated += 1
                signature = extended.signature()
                if signature in seen_signatures:
                    stats.duplicates += 1
                    continue
                seen_signatures.add(signature)
                current.append(extended)
                ok, reason = is_valid(
                    extended, pt, db, config, pt_stats=pt_stats
                )
                if ok:
                    stats.valid += 1
                    yield extended
                elif reason == "pk":
                    stats.invalid_pk += 1
                else:
                    stats.invalid_cost += 1
        previous = current
        if not previous:
            break
