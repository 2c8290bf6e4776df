"""Tests for the explanation engine: trie cache, engine, parallel mining."""

from __future__ import annotations

import json
import statistics

import numpy as np
import pytest

from repro import CajadeConfig, CajadeSession, ComparisonQuestion
from repro.core.apt import JoinStep, build_plan
from repro.core.enumeration import enumerate_join_graphs
from repro.db import ColumnType, Relation, TableSchema
from repro.db.parser import parse_sql
from repro.db.provenance import ProvenanceTable
from repro.engine import MaterializationEngine, PrefixCache
from tests.conftest import GSW_WINS_SQL, engine_apts
from tests.oracles.eager import eager_apt, hash_join, materialize_eager

QUESTION = ComparisonQuestion({"season": "2015-16"}, {"season": "2012-13"})


class _Entry:
    """A cache value charged ``estimated_bytes`` (the trie's entries are
    ``IndexFrame``s; the cache reads nothing else of them)."""

    def __init__(self, estimated_bytes: int):
        self.estimated_bytes = estimated_bytes


def _pipeline(mini_db, config=None):
    config = config or CajadeConfig(
        max_join_edges=2, f1_sample_rate=1.0, num_selected_attrs=4, seed=1
    )
    query = parse_sql(GSW_WINS_SQL)
    pt = ProvenanceTable.compute(query, mini_db)
    resolved = QUESTION.resolve(pt)
    restrict = np.concatenate([resolved.row_ids1, resolved.row_ids2])
    from repro.core.schema_graph import SchemaGraph

    sg = SchemaGraph.from_database(mini_db)
    graphs = list(enumerate_join_graphs(sg, query, pt, mini_db, config))
    return pt, restrict, graphs


def assert_relations_identical(a: Relation, b: Relation) -> None:
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        left, right = a.column(name), b.column(name)
        assert left.dtype == right.dtype
        if left.dtype.kind == "f":
            assert np.array_equal(left, right, equal_nan=True)
        else:
            assert np.array_equal(left, right)


# ----------------------------------------------------------------------
# PrefixCache
# ----------------------------------------------------------------------
class TestPrefixCache:
    def test_roundtrip_and_stats(self):
        cache = PrefixCache(capacity_bytes=1 << 20)
        rel = _Entry(160)
        cache.put(("a",), rel)
        assert cache.get(("a",)) is rel
        assert cache.get(("b",)) is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.insertions == 1

    def test_lru_eviction_order(self):
        rel = _Entry(1600)
        cache = PrefixCache(capacity_bytes=3 * rel.estimated_bytes)
        cache.put(("a",), rel)
        cache.put(("b",), rel)
        cache.put(("c",), rel)
        cache.get(("a",))  # refresh a; b is now coldest
        cache.put(("d",), rel)
        assert ("b",) not in cache
        assert ("a",) in cache and ("c",) in cache and ("d",) in cache
        assert cache.stats.evictions == 1

    def test_byte_accounting(self):
        rel = _Entry(800)
        cache = PrefixCache(capacity_bytes=10 * rel.estimated_bytes)
        cache.put(("a",), rel)
        cache.put(("b",), rel)
        assert cache.stats.current_bytes == 2 * rel.estimated_bytes
        # Replacing a key must not double-count.
        cache.put(("a",), rel)
        assert cache.stats.current_bytes == 2 * rel.estimated_bytes
        assert cache.median_entry_bytes() == rel.estimated_bytes
        cache.clear()
        assert cache.stats.current_bytes == 0
        assert cache.median_entry_bytes() == 0

    def test_gauges_recomputed_only_when_the_population_changed(
        self, monkeypatch
    ):
        medians = []
        median_entry_bytes = PrefixCache.median_entry_bytes

        def counted(cache):
            medians.append(cache)
            return median_entry_bytes(cache)

        monkeypatch.setattr(PrefixCache, "median_entry_bytes", counted)
        cache = PrefixCache(capacity_bytes=300)

        def refreshed(recomputed: int) -> None:
            before = len(medians)
            stats = cache.refresh_gauges()
            assert len(medians) - before == recomputed
            charges = [charge for _, charge in cache._entries.values()]
            assert stats.entries == len(charges)
            assert stats.median_entry_bytes == (
                int(statistics.median(charges)) if charges else 0
            )

        refreshed(0)
        cache.put(("a",), _Entry(100))
        refreshed(1)
        cache.get(("a",))
        cache.get(("z",))
        refreshed(0)
        cache.put(("b",), _Entry(51))
        cache.put(("c",), _Entry(120))
        refreshed(1)
        refreshed(0)
        cache.put(("d",), _Entry(90))  # evicts a
        assert cache.stats.evictions == 1 and ("a",) not in cache
        refreshed(1)
        cache.put(("e",), _Entry(301))  # rejected: nothing changes
        refreshed(0)
        cache.clear()
        refreshed(1)
        assert cache.stats.entries == cache.stats.median_entry_bytes == 0

    def test_oversized_rejected(self):
        rel = _Entry(16000)
        cache = PrefixCache(capacity_bytes=rel.estimated_bytes - 1)
        cache.put(("a",), rel)
        assert len(cache) == 0
        assert cache.stats.rejected == 1

    def test_zero_capacity_disables(self):
        cache = PrefixCache(capacity_bytes=0)
        cache.put(("a",), _Entry(16))
        assert len(cache) == 0
        assert cache.get(("a",)) is None

    def test_zero_capacity_rejects_empty_relations(self):
        """Zero-byte entries must not slip past a zero budget."""
        cache = PrefixCache(capacity_bytes=0)
        empty = _Entry(0)
        assert empty.estimated_bytes == 0
        cache.put(("a",), empty)
        assert len(cache) == 0
        assert cache.stats.rejected == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PrefixCache(capacity_bytes=-1)


# ----------------------------------------------------------------------
# Vectorized hash join + memoization
# ----------------------------------------------------------------------
class TestHashJoinVectorized:
    def _rel(self, name, col, values, ctype=ColumnType.INT):
        schema = TableSchema.build(name, {col: ctype})
        return Relation.from_rows(schema, [(v,) for v in values])

    def test_null_keys_never_match(self):
        left = self._rel("l", "l.k", [1, None, 2], ColumnType.FLOAT)
        right = self._rel("r", "r.k", [None, 1, 1], ColumnType.FLOAT)
        joined = hash_join(left, right, [("l.k", "r.k")])
        assert joined.num_rows == 2
        assert all(v == 1.0 for v in joined.column("l.k"))

    def test_mixed_int_float_dtypes(self):
        left = self._rel("l", "l.k", [1, 2, 3])
        right = self._rel("r", "r.k", [1.0, 3.0, None], ColumnType.FLOAT)
        joined = hash_join(left, right, [("l.k", "r.k")])
        assert sorted(joined.column("l.k").tolist()) == [1, 3]

    def test_object_keys(self):
        left = self._rel("l", "l.k", ["a", "b", None], ColumnType.TEXT)
        right = self._rel("r", "r.k", ["b", "b", None, "c"], ColumnType.TEXT)
        joined = hash_join(left, right, [("l.k", "r.k")])
        assert joined.num_rows == 2
        assert set(joined.column("l.k")) == {"b"}

    def test_multi_column_key(self):
        lschema = TableSchema.build(
            "l", {"l.a": ColumnType.INT, "l.b": ColumnType.TEXT}
        )
        rschema = TableSchema.build(
            "r", {"r.a": ColumnType.INT, "r.b": ColumnType.TEXT}
        )
        left = Relation.from_rows(lschema, [(1, "x"), (1, "y"), (2, "x")])
        right = Relation.from_rows(rschema, [(1, "x"), (2, "x"), (2, "y")])
        joined = hash_join(
            left, right, [("l.a", "r.a"), ("l.b", "r.b")]
        )
        assert sorted(
            zip(joined.column("l.a").tolist(), joined.column("l.b"))
        ) == [(1, "x"), (2, "x")]

    def test_empty_inputs(self):
        left = self._rel("l", "l.k", [])
        right = self._rel("r", "r.k", [1, 2])
        assert hash_join(left, right, [("l.k", "r.k")]).num_rows == 0
        assert hash_join(right, left, [("r.k", "l.k")]).num_rows == 0

    def test_duplicate_matches_preserved(self):
        left = self._rel("l", "l.k", [1, 1])
        right = self._rel("r", "r.k", [1, 1, 1])
        joined = hash_join(left, right, [("l.k", "r.k")])
        assert joined.num_rows == 6

    def test_large_int_float_keys_stay_exact(self):
        """int64 keys beyond 2^53 must not collide with nearby floats."""
        big = 2**53 + 1
        left = self._rel("l", "l.k", [big, 7])
        right = self._rel(
            "r", "r.k", [float(2**53), 7.0], ColumnType.FLOAT
        )
        joined = hash_join(left, right, [("l.k", "r.k")])
        assert joined.column("l.k").tolist() == [7]

    def test_matches_nested_loop_order(self):
        rng = np.random.default_rng(0)
        left_keys = rng.integers(0, 6, size=40).tolist()
        right_keys = rng.integers(0, 6, size=25).tolist()
        left = self._rel("l", "l.k", left_keys)
        right = self._rel("r", "r.k", right_keys)
        joined = hash_join(left, right, [("l.k", "r.k")])
        expected = sorted(
            (a, b)
            for a in left_keys
            for b in right_keys
            if a == b
        )
        actual = sorted(
            (int(r[0]), int(r[1])) for r in joined.iter_rows()
        )
        assert actual == expected


# ----------------------------------------------------------------------
# Plan canonicalization (the trie ordering invariant)
# ----------------------------------------------------------------------
class TestPlanPrefixInvariant:
    def test_extension_plans_share_parent_prefix(self, mini_db):
        """Graphs extending Ω' by a fresh node start with Ω''s steps."""
        from repro.core.enumeration import extend_join_graph
        from repro.core.schema_graph import SchemaGraph

        pt, _, graphs = _pipeline(mini_db)
        sg = SchemaGraph.from_database(mini_db)
        query = parse_sql(GSW_WINS_SQL)
        checked = 0
        for parent in graphs:
            parent_plan = build_plan(parent, pt)
            for child in extend_join_graph(parent, sg, query):
                if len(child.nodes) == len(parent.nodes):
                    continue  # parallel edge, not a fresh-node extension
                child_plan = build_plan(child, pt)
                assert (
                    child_plan.joins[: len(parent_plan.joins)]
                    == parent_plan.joins
                )
                assert child_plan.filters == parent_plan.filters
                checked += 1
        assert checked > 0, "BFS extensions must share plan prefixes"

    def test_conditions_sorted(self, mini_db):
        pt, _, graphs = _pipeline(mini_db)
        for g in graphs:
            for step in build_plan(g, pt).joins:
                assert list(step.conditions) == sorted(step.conditions)

    def test_plan_steps_hashable(self, mini_db):
        pt, _, graphs = _pipeline(mini_db)
        keys = {build_plan(g, pt).steps for g in graphs}
        assert len(keys) == len(graphs)  # enumeration dedups isomorphs


# ----------------------------------------------------------------------
# MaterializationEngine
# ----------------------------------------------------------------------
class TestMaterializationEngine:
    def test_identical_to_direct(self, mini_db):
        pt, restrict, graphs = _pipeline(mini_db)
        engine = MaterializationEngine(pt, mini_db, cache_mb=64.0)
        for g, cached in zip(graphs, engine_apts(engine, graphs, restrict)):
            direct = eager_apt(g, pt, mini_db, restrict_row_ids=restrict)
            assert_relations_identical(direct.relation, cached.relation)
            assert [a.name for a in direct.attributes] == [
                a.name for a in cached.attributes
            ]

    def test_identical_under_tiny_cache(self, mini_db):
        """Evictions must never change results."""
        pt, restrict, graphs = _pipeline(mini_db)
        engine = MaterializationEngine(pt, mini_db, cache_mb=0.002)
        for g in graphs:
            direct = materialize_eager(
                g, pt, mini_db, restrict_row_ids=restrict
            )
            [apt] = engine_apts(engine, [g], restrict)
            assert_relations_identical(direct, apt.relation)

    def test_zero_cache_equivalent(self, mini_db):
        pt, restrict, graphs = _pipeline(mini_db)
        engine = MaterializationEngine(pt, mini_db, cache_mb=0.0)
        for g in graphs[:5]:
            direct = materialize_eager(
                g, pt, mini_db, restrict_row_ids=restrict
            )
            [apt] = engine_apts(engine, [g], restrict)
            assert_relations_identical(direct, apt.relation)
        # apt_cache_mb=0 must mean genuinely no caching: a repeat
        # materialization recomputes every step.
        sized = [g for g in graphs if g.num_edges > 0][0]
        engine_apts(engine, [sized, sized], restrict)
        stats = engine.stats
        assert stats.steps_reused == 0
        assert stats.full_hits == 0
        assert stats.cache is not None and stats.cache.insertions == 0

    def test_materialize_many_preserves_order(self, mini_db):
        """A batch yields every input index once, with its own graph, so
        callers can reassemble input order from trie order."""
        pt, restrict, graphs = _pipeline(mini_db)
        engine = MaterializationEngine(pt, mini_db, cache_mb=64.0)
        yielded = list(engine.materialize_iter(graphs, restrict))
        assert sorted(i for i, _ in yielded) == list(range(len(graphs)))
        for index, apt in yielded:
            assert apt.join_graph is graphs[index]

    def test_repeat_materialization_hits_cache(self, mini_db):
        pt, restrict, graphs = _pipeline(mini_db)
        engine = MaterializationEngine(pt, mini_db, cache_mb=64.0)
        sized = [g for g in graphs if g.num_edges > 0]
        engine_apts(engine, sized[:1], restrict)
        before = engine.stats.full_hits
        engine_apts(engine, sized[:1], restrict)
        assert engine.stats.full_hits == before + 1

    def test_prefix_sharing_fires(self, mini_db):
        from repro.core.enumeration import extend_join_graph
        from repro.core.schema_graph import SchemaGraph

        pt, restrict, graphs = _pipeline(mini_db)
        sg = SchemaGraph.from_database(mini_db)
        query = parse_sql(GSW_WINS_SQL)
        # The valid chain plus all its one-edge extensions: every
        # fresh-node extension shares the chain's whole plan as prefix.
        parent = [g for g in graphs if g.num_edges > 0][0]
        batch = [parent] + extend_join_graph(parent, sg, query)
        engine = MaterializationEngine(pt, mini_db, cache_mb=64.0)
        apts = engine_apts(engine, batch, restrict)
        stats = engine.stats
        assert stats.steps_reused > 0
        assert stats.steps_computed > 0
        assert stats.cache is not None and stats.cache.insertions > 0

        # Direct materialization agrees on every extension too.
        for g, apt in zip(batch, apts):
            direct = materialize_eager(
                g, pt, mini_db, restrict_row_ids=restrict
            )
            assert_relations_identical(direct, apt.relation)

    def test_negative_cache_rejected(self, mini_db):
        pt, restrict, _ = _pipeline(mini_db)
        with pytest.raises(ValueError):
            MaterializationEngine(pt, mini_db, cache_mb=-1.0)

    def test_stats_describe_renders(self, mini_db):
        pt, restrict, graphs = _pipeline(mini_db)
        engine = MaterializationEngine(pt, mini_db)
        engine_apts(engine, graphs[:3], restrict)
        text = engine.stats.describe()
        assert "apt cache" in text
        assert "steps reused" in text


# ----------------------------------------------------------------------
# The engine's budget through whole questions
# ----------------------------------------------------------------------
class TestParallel:  # the name predates the removal of ``workers``
    def _explain_json(self, mini_db, mini_schema_graph, **overrides):
        config = CajadeConfig(
            max_join_edges=2,
            top_k=5,
            f1_sample_rate=0.5,
            num_selected_attrs=4,
            seed=1,
            **overrides,
        )
        result = CajadeSession(mini_db, mini_schema_graph, config).explain(
            GSW_WINS_SQL, QUESTION
        )
        payload = json.loads(result.to_json())
        payload.pop("apt_cache", None)
        return json.dumps(payload, sort_keys=True)

    def test_question_starts_no_thread(self, mini_db, mini_schema_graph):
        """One thread of control per question (λ#edges 2, several graphs)."""
        import threading

        before = threading.active_count()
        self._explain_json(mini_db, mini_schema_graph)
        assert threading.active_count() == before

    def test_each_apt_is_mined_before_the_next_is_pulled(
        self, mini_db, mini_schema_graph, monkeypatch
    ):
        """One APT alive at a time: the stream is never drained ahead."""
        import repro.api.session as session_module

        events = []
        real_iter = MaterializationEngine.materialize_iter
        real_mine = session_module.mine_apt

        def pulling(self, *args, **kwargs):
            for index, apt in real_iter(self, *args, **kwargs):
                events.append("pull" if apt.num_rows else "pull-empty")
                yield index, apt

        def mining(*args, **kwargs):
            events.append("mine")
            return real_mine(*args, **kwargs)

        monkeypatch.setattr(MaterializationEngine, "materialize_iter", pulling)
        monkeypatch.setattr(session_module, "mine_apt", mining)
        self._explain_json(mini_db, mini_schema_graph)
        nonempty = [e for e in events if e != "pull-empty"]
        assert len(nonempty) > 2
        assert nonempty == ["pull", "mine"] * (len(nonempty) // 2)

    def test_cache_preserves_results(self, mini_db, mini_schema_graph):
        on = self._explain_json(mini_db, mini_schema_graph, apt_cache_mb=64.0)
        off = self._explain_json(mini_db, mini_schema_graph, apt_cache_mb=0.0)
        assert on == off

    def test_explain_reports_engine_stats(self, mini_db, mini_schema_graph):
        config = CajadeConfig(
            max_join_edges=1, f1_sample_rate=1.0, num_selected_attrs=3
        )
        result = CajadeSession(mini_db, mini_schema_graph, config).explain(
            GSW_WINS_SQL, QUESTION
        )
        assert result.engine is not None
        assert result.engine.graphs > 0
        payload = json.loads(result.to_json())
        assert "apt_cache" in payload
