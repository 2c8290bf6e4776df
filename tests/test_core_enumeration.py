"""Unit tests for join-graph enumeration (Algorithm 2)."""

import hashlib

import pytest

from repro.core import (
    CajadeConfig,
    EnumerationStats,
    SchemaGraph,
    enumerate_join_graphs,
    estimate_apt_cost,
    extend_join_graph,
    has_pk_connectivity,
    is_valid,
)
from repro.core.join_graph import JoinGraph
from repro.datasets import query_by_name
from repro.db import ProvenanceTable, parse_sql
from tests.conftest import GSW_WINS_SQL


@pytest.fixture()
def ctx(mini_db, mini_schema_graph):
    query = parse_sql(GSW_WINS_SQL)
    pt = ProvenanceTable.compute(query, mini_db)
    return mini_db, mini_schema_graph, query, pt


class TestExtendJoinGraph:
    def test_initial_extensions_from_pt(self, ctx):
        db, schema_graph, query, pt = ctx
        initial = JoinGraph.initial({"g": "game"})
        extensions = extend_join_graph(initial, schema_graph, query)
        # game has one schema edge (to player_game) with one condition.
        assert len(extensions) == 1
        assert extensions[0].context_nodes[0].label == "player_game"

    def test_second_level_extensions(self, ctx):
        db, schema_graph, query, pt = ctx
        initial = JoinGraph.initial({"g": "game"})
        level1 = extend_join_graph(initial, schema_graph, query)[0]
        level2 = extend_join_graph(level1, schema_graph, query)
        labels = {
            tuple(sorted(n.label for n in g.context_nodes)) for g in level2
        }
        assert ("player", "player_game") in labels


class TestValidity:
    def test_pk_connectivity_requires_player_join(self, ctx):
        db, schema_graph, query, pt = ctx
        initial = JoinGraph.initial({"g": "game"})
        only_pgs = extend_join_graph(initial, schema_graph, query)[0]
        # player_game's PK includes player_id (an FK) — unjoined → invalid.
        assert not has_pk_connectivity(only_pgs, db)
        with_player = [
            g
            for g in extend_join_graph(only_pgs, schema_graph, query)
            if len(g.context_nodes) == 2
        ]
        assert any(has_pk_connectivity(g, db) for g in with_player)

    def test_cost_estimate_positive_and_monotone(self, ctx):
        db, schema_graph, query, pt = ctx
        initial = JoinGraph.initial({"g": "game"})
        cost0 = estimate_apt_cost(initial, pt, db)
        level1 = extend_join_graph(initial, schema_graph, query)[0]
        cost1 = estimate_apt_cost(level1, pt, db)
        assert cost0 > 0
        assert cost1 > cost0

    def test_is_valid_cost_threshold(self, ctx):
        db, schema_graph, query, pt = ctx
        initial = JoinGraph.initial({"g": "game"})
        graph = extend_join_graph(initial, schema_graph, query)[0]
        graph = [
            g
            for g in extend_join_graph(graph, schema_graph, query)
            if has_pk_connectivity(g, db)
        ][0]
        ok, reason = is_valid(
            graph, pt, db, CajadeConfig(qcost_threshold=1e9)
        )
        assert ok and reason == "ok"
        ok, reason = is_valid(
            graph, pt, db, CajadeConfig(qcost_threshold=1.0)
        )
        assert not ok and reason == "cost"

    def test_pk_check_can_be_disabled(self, ctx):
        db, schema_graph, query, pt = ctx
        initial = JoinGraph.initial({"g": "game"})
        only_pgs = extend_join_graph(initial, schema_graph, query)[0]
        ok, _ = is_valid(
            only_pgs, pt, db, CajadeConfig(check_pk_connectivity=False)
        )
        assert ok


class TestEnumeration:
    def enumerate(self, ctx, **overrides) -> tuple[list, EnumerationStats]:
        db, schema_graph, query, pt = ctx
        config = CajadeConfig(**overrides)
        stats = EnumerationStats()
        graphs = list(
            enumerate_join_graphs(
                schema_graph, query, pt, db, config, stats=stats
            )
        )
        return graphs, stats

    def test_yields_initial_first(self, ctx):
        graphs, _ = self.enumerate(ctx, max_join_edges=0)
        assert len(graphs) == 1
        assert graphs[0].num_edges == 0

    def test_size_bounded_by_lambda_edges(self, ctx):
        graphs, _ = self.enumerate(ctx, max_join_edges=2)
        assert max(g.num_edges for g in graphs) <= 2

    def test_no_duplicate_signatures(self, ctx):
        graphs, _ = self.enumerate(ctx, max_join_edges=3)
        signatures = [g.signature() for g in graphs]
        assert len(signatures) == len(set(signatures))

    def test_stats_accounting(self, ctx):
        graphs, stats = self.enumerate(ctx, max_join_edges=2)
        assert stats.valid == len(graphs)
        assert (
            stats.generated
            >= stats.valid + stats.invalid_pk + stats.invalid_cost
        )

    def test_more_edges_never_fewer_graphs(self, ctx):
        one, _ = self.enumerate(ctx, max_join_edges=1)
        three, _ = self.enumerate(ctx, max_join_edges=3)
        assert len(three) >= len(one)

    def test_all_yielded_are_valid(self, ctx):
        db, schema_graph, query, pt = ctx
        graphs, _ = self.enumerate(ctx, max_join_edges=3)
        config = CajadeConfig()
        for graph in graphs[1:]:
            ok, _ = is_valid(graph, pt, db, config)
            assert ok


# λqcost's decisions on the gate's schemas (scale 0.25, λ#edges 2), as
# measured before the estimate became a reader of ``build_plan``: the
# counters and a digest of the ordered valid-graph signatures.
PINNED_DECISIONS = [
    ("Qnba5", 5e6, (308, 12, 231, 0, 65), "eacdc39ab91cad45"),
    ("Qnba5", 3e3, (308, 12, 231, 14, 51), "537a6a6c9f9ff214"),
    ("Qmimic5", 5e6, (45, 4, 16, 0, 25), "531aa96b19cb476c"),
    ("Qmimic5", 3e3, (45, 4, 16, 24, 1), "2e38e77b22c314a4"),
]


@pytest.mark.parametrize("name,qcost,counts,digest", PINNED_DECISIONS)
def test_qcost_decisions_on_gate_schemas(
    name, qcost, counts, digest, gate_databases
):
    workload = query_by_name(name)
    db, schema_graph = gate_databases[workload.dataset]
    query = parse_sql(workload.sql)
    pt = ProvenanceTable.compute(query, db)
    stats = EnumerationStats()
    config = CajadeConfig(max_join_edges=2, qcost_threshold=qcost)
    graphs = list(
        enumerate_join_graphs(schema_graph, query, pt, db, config, stats)
    )
    assert (
        stats.generated,
        stats.duplicates,
        stats.invalid_pk,
        stats.invalid_cost,
        stats.valid,
    ) == counts
    signatures = "\n".join(repr(g.signature()) for g in graphs)
    assert hashlib.sha256(signatures.encode()).hexdigest()[:16] == digest
