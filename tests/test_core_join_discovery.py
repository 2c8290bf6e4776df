"""Tests for join-condition discovery (§8 extension)."""

import pytest

from repro.core import SchemaGraph
from repro.core.join_discovery import (
    JoinCandidate,
    augment_schema_graph,
    discover_join_candidates,
)
from repro.db import ColumnType, Database, TableSchema


@pytest.fixture()
def db() -> Database:
    d = Database("disc")
    d.create_table(
        TableSchema.build(
            "city", {"city_code": ColumnType.TEXT, "pop": ColumnType.INT},
            primary_key=("city_code",),
        ),
        [("NYC", 8), ("LA", 4), ("SF", 1), ("CHI", 3), ("BOS", 1)],
    )
    d.create_table(
        TableSchema.build(
            "office",
            {"office_id": ColumnType.INT, "located_in": ColumnType.TEXT},
            primary_key=("office_id",),
        ),
        [(1, "NYC"), (2, "NYC"), (3, "LA"), (4, "SF"), (5, "CHI")],
    )
    return d


class TestDiscovery:
    def test_finds_undeclared_inclusion(self, db):
        candidates = discover_join_candidates(db, min_inclusion=0.9)
        described = {c.describe().split(" (")[0] for c in candidates}
        assert "office.located_in ⊆ city.city_code" in described

    def test_declared_fks_skipped(self, db):
        db.add_foreign_key("office", ("located_in",), "city", ("city_code",))
        candidates = discover_join_candidates(db, min_inclusion=0.9)
        pairs = {
            (c.table_a, c.column_a, c.table_b, c.column_b)
            for c in candidates
        }
        assert ("office", "located_in", "city", "city_code") not in pairs

    def test_inclusion_threshold(self, db):
        # city_code ⊄ located_in (BOS missing): inclusion 0.8 < 0.9.
        candidates = discover_join_candidates(db, min_inclusion=0.9)
        pairs = {
            (c.table_a, c.column_a, c.table_b, c.column_b)
            for c in candidates
        }
        assert ("city", "city_code", "office", "located_in") not in pairs
        loose = discover_join_candidates(db, min_inclusion=0.7)
        loose_pairs = {
            (c.table_a, c.column_a, c.table_b, c.column_b) for c in loose
        }
        assert ("city", "city_code", "office", "located_in") in loose_pairs

    def test_type_compatibility_respected(self, db):
        candidates = discover_join_candidates(db, min_inclusion=0.5)
        for c in candidates:
            type_a = db.table(c.table_a).column_type(c.column_a)
            type_b = db.table(c.table_b).column_type(c.column_b)
            assert type_a.is_categorical == type_b.is_categorical

    def test_min_distinct_filters_tiny_domains(self, db):
        db.create_table(
            TableSchema.build("flags", {"flag": ColumnType.TEXT}),
            [("NYC",), ("LA",)],
        )
        candidates = discover_join_candidates(db, min_distinct=3)
        assert all(
            "flags" not in (c.table_a, c.table_b) for c in candidates
        )

    def test_sorted_by_inclusion(self, db):
        candidates = discover_join_candidates(db, min_inclusion=0.5)
        inclusions = [c.inclusion for c in candidates]
        assert inclusions == sorted(inclusions, reverse=True)


class TestAugmentation:
    def test_adds_conditions(self, db):
        graph = SchemaGraph.from_database(db)
        before = graph.num_conditions()
        candidates = discover_join_candidates(db, min_inclusion=0.9)
        added = augment_schema_graph(graph, candidates)
        assert added >= 1
        assert graph.num_conditions() == before + added

    def test_symmetric_candidates_deduplicated(self):
        graph = SchemaGraph()
        candidates = [
            JoinCandidate("a", "x", "b", "y", 1.0),
            JoinCandidate("b", "y", "a", "x", 1.0),
        ]
        assert augment_schema_graph(graph, candidates) == 1

    def test_limit(self, db):
        graph = SchemaGraph.from_database(db)
        candidates = discover_join_candidates(db, min_inclusion=0.5)
        added = augment_schema_graph(graph, candidates, limit=1)
        assert added <= 1

    def test_discovered_edges_usable_by_cajade(self, db):
        """End-to-end: a discovered join provides explanation context."""
        from repro import CajadeConfig, CajadeSession, ComparisonQuestion

        graph = SchemaGraph.from_database(db)
        augment_schema_graph(
            graph, discover_join_candidates(db, min_inclusion=0.9)
        )
        # Ask why NYC has more offices than LA; city.pop arrives as
        # context through the discovered join.
        config = CajadeConfig(
            max_join_edges=1, top_k=3, f1_sample_rate=1.0,
            lca_sample_rate=1.0, num_selected_attrs=4,
        )
        explainer = CajadeSession(db, graph, config)
        result = explainer.explain(
            "SELECT located_in, COUNT(*) AS n FROM office "
            "GROUP BY located_in",
            ComparisonQuestion({"located_in": "NYC"}, {"located_in": "LA"}),
        )
        assert result.explanations
        contextual = [
            e for e in result.explanations if e.join_graph.num_edges > 0
        ]
        assert contextual


class TestTextOnly:
    def test_text_only_excludes_numeric_pairs(self, db):
        candidates = discover_join_candidates(
            db, min_inclusion=0.5, text_only=True
        )
        for c in candidates:
            assert db.table(c.table_a).column_type(c.column_a).is_categorical
            assert db.table(c.table_b).column_type(c.column_b).is_categorical
