"""Property-based tests (hypothesis) for core invariants.

Each property targets an invariant listed in DESIGN.md §6:
- refinement monotonicity (Proposition 3.1),
- per-PT-row coverage being fan-out-independent,
- metric bounds,
- hash join ≡ nested-loop join,
- engine-cached APT materialization ≡ direct materialization,
- aggregation partitioning,
- diversity score range,
- NDCG/Kendall metric identities.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Pattern, PatternPredicate, QualityStats, dissimilarity
from repro.core.pattern import OP_EQ, OP_GE, OP_LE
from repro.db import ColumnType, Database, Relation, TableSchema
from repro.ml import kendall_tau_distance, ndcg
from tests.conftest import engine_apts
from tests.oracles.eager import eager_apt, hash_join

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
CATEGORIES = ("a", "b", "c")

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(CATEGORIES),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=60,
)


def columns_from_rows(rows):
    return {
        "cat": np.array([r[0] for r in rows], dtype=object),
        "num": np.array([r[1] for r in rows], dtype=np.int64),
        "grp": np.array([r[2] for r in rows], dtype=np.int64),
    }


predicate_strategy = st.one_of(
    st.builds(
        PatternPredicate,
        st.just("cat"),
        st.just(OP_EQ),
        st.sampled_from(CATEGORIES),
    ),
    st.builds(
        PatternPredicate,
        st.just("num"),
        st.sampled_from((OP_LE, OP_GE)),
        st.integers(min_value=0, max_value=20),
    ),
)


# ----------------------------------------------------------------------
# Pattern properties
# ----------------------------------------------------------------------
class TestPatternProperties:
    @given(rows=rows_strategy, pred=predicate_strategy, extra=predicate_strategy)
    @settings(max_examples=80, deadline=None)
    def test_refinement_shrinks_matches(self, rows, pred, extra):
        """Prop 3.1 core: Φ' ⊒ Φ ⇒ match(Φ') ⊆ match(Φ)."""
        columns = columns_from_rows(rows)
        base = Pattern([pred])
        try:
            refined = Pattern([pred, extra])
        except ValueError:
            return  # same (attribute, op) pair — not a refinement
        base_mask = base.match_mask(columns)
        refined_mask = refined.match_mask(columns)
        assert (refined_mask <= base_mask).all()

    @given(rows=rows_strategy, pred=predicate_strategy)
    @settings(max_examples=50, deadline=None)
    def test_empty_pattern_superset(self, rows, pred):
        columns = columns_from_rows(rows)
        assert (
            Pattern([pred]).match_mask(columns)
            <= Pattern().match_mask(columns)
        ).all()

    @given(
        preds=st.lists(predicate_strategy, min_size=1, max_size=3, unique=True)
    )
    @settings(max_examples=50, deadline=None)
    def test_pattern_hash_order_independent(self, preds):
        try:
            forward = Pattern(preds)
            backward = Pattern(list(reversed(preds)))
        except ValueError:
            return
        assert forward == backward
        assert hash(forward) == hash(backward)


# ----------------------------------------------------------------------
# Quality metric properties
# ----------------------------------------------------------------------
class TestQualityProperties:
    @given(
        tp=st.integers(0, 100),
        fp=st.integers(0, 100),
        fn=st.integers(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_metric_bounds(self, tp, fp, fn):
        stats = QualityStats(tp=tp, fp=fp, fn=fn)
        assert 0.0 <= stats.precision <= 1.0
        assert 0.0 <= stats.recall <= 1.0
        assert 0.0 <= stats.f_score <= 1.0
        assert (stats.f_score == 0.0) == (tp == 0)

    @given(
        tp=st.integers(1, 100),
        fp=st.integers(0, 100),
        fn=st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_fscore_between_p_and_r(self, tp, fp, fn):
        stats = QualityStats(tp=tp, fp=fp, fn=fn)
        lo = min(stats.precision, stats.recall)
        hi = max(stats.precision, stats.recall)
        assert lo - 1e-12 <= stats.f_score <= hi + 1e-12

    @given(rows=rows_strategy, pred=predicate_strategy)
    @settings(max_examples=50, deadline=None)
    def test_coverage_fanout_independent(self, rows, pred):
        """Duplicating every row (fan-out 2) must not change per-PT-row
        coverage counts."""
        columns = columns_from_rows(rows)
        pt_ids = np.arange(len(rows))
        pattern = Pattern([pred])
        mask = pattern.match_mask(columns)
        covered_once = set(pt_ids[mask].tolist())

        doubled = {k: np.concatenate([v, v]) for k, v in columns.items()}
        doubled_ids = np.concatenate([pt_ids, pt_ids])
        mask2 = pattern.match_mask(doubled)
        covered_twice = set(doubled_ids[mask2].tolist())
        assert covered_once == covered_twice


# ----------------------------------------------------------------------
# Join properties
# ----------------------------------------------------------------------
class TestJoinProperties:
    @given(
        left_keys=st.lists(st.integers(0, 5), min_size=0, max_size=25),
        right_keys=st.lists(st.integers(0, 5), min_size=0, max_size=25),
    )
    @settings(max_examples=60, deadline=None)
    def test_hash_join_equals_nested_loop(self, left_keys, right_keys):
        left = Relation.from_rows(
            TableSchema.build("l", {"l.k": ColumnType.INT}),
            [(k,) for k in left_keys],
        )
        right = Relation.from_rows(
            TableSchema.build("r", {"r.k": ColumnType.INT}),
            [(k,) for k in right_keys],
        )
        joined = hash_join(left, right, [("l.k", "r.k")])
        expected = sorted(
            (a, b) for a in left_keys for b in right_keys if a == b
        )
        actual = sorted(
            (row[0], row[1]) for row in joined.iter_rows()
        )
        assert actual == expected

    @given(rows=rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_group_counts_partition(self, rows):
        relation = Relation.from_rows(
            TableSchema.build(
                "t",
                {
                    "cat": ColumnType.TEXT,
                    "num": ColumnType.INT,
                    "grp": ColumnType.INT,
                },
            ),
            rows,
        )
        from repro.db.executor import group_indices

        groups = group_indices(relation, ["grp"])
        assert sum(len(v) for v in groups.values()) == len(rows)
        all_indices = sorted(
            i for v in groups.values() for i in v.tolist()
        )
        assert all_indices == list(range(len(rows)))


# ----------------------------------------------------------------------
# Engine materialization properties
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def _engine_fixture():
    """A tiny database, its join-graph pool, and the eager oracle's APTs.

    The pool holds every enumerated join graph plus all one-edge
    extensions of the valid ones, so it contains deep shared prefixes.
    """
    from repro.core.config import CajadeConfig
    from repro.core.enumeration import (
        enumerate_join_graphs,
        extend_join_graph,
    )
    from repro.core.schema_graph import SchemaGraph
    from repro.db.parser import parse_sql
    from repro.db.provenance import ProvenanceTable

    db = Database("prop")
    games = []
    for year, season in ((2012, "a"), (2015, "b")):
        for g in range(4):
            games.append(
                (year, g + 1, "GSW" if g % 2 else "LAL", season)
            )
    db.create_table(
        TableSchema.build(
            "game",
            {
                "year": ColumnType.INT,
                "gameno": ColumnType.INT,
                "winner": ColumnType.TEXT,
                "season": ColumnType.TEXT,
            },
            primary_key=("year", "gameno"),
        ),
        games,
    )
    db.create_table(
        TableSchema.build(
            "player",
            {"player_id": ColumnType.INT, "player_name": ColumnType.TEXT},
            primary_key=("player_id",),
        ),
        [(0, "Curry"), (1, "Green")],
    )
    pgs = [
        (pid, year, gameno, 10 * (pid + 1) + gameno)
        for (year, gameno, _, _) in games
        for pid in (0, 1)
    ]
    db.create_table(
        TableSchema.build(
            "player_game",
            {
                "player_id": ColumnType.INT,
                "year": ColumnType.INT,
                "gameno": ColumnType.INT,
                "pts": ColumnType.INT,
            },
            primary_key=("player_id", "year", "gameno"),
        ),
        pgs,
    )
    db.add_foreign_key(
        "player_game", ("year", "gameno"), "game", ("year", "gameno")
    )
    db.add_foreign_key(
        "player_game", ("player_id",), "player", ("player_id",)
    )

    query = parse_sql(
        "SELECT season, COUNT(*) AS n FROM game g GROUP BY season"
    )
    pt = ProvenanceTable.compute(query, db)
    sg = SchemaGraph.from_database(db)
    config = CajadeConfig(max_join_edges=2)
    pool = list(enumerate_join_graphs(sg, query, pt, db, config))
    for graph in list(pool):
        if graph.num_edges > 0:
            pool.extend(extend_join_graph(graph, sg, query))
    directs = [eager_apt(g, pt, db) for g in pool]
    return db, pt, pool, directs


class TestEngineProperties:
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=1,
            max_size=15,
        ),
        cache_kb=st.sampled_from([0, 2, 64, 4096]),
    )
    @settings(max_examples=40, deadline=None)
    def test_engine_matches_direct_materialization(self, picks, cache_kb):
        """For arbitrary join-graph sets and cache budgets, the engine
        asked one graph at a time produces relations identical (schema,
        rows, ``__pt_row_id``) to the eager oracle."""
        from repro.engine import MaterializationEngine

        db, pt, pool, directs = _engine_fixture()
        engine = MaterializationEngine(pt, db, cache_mb=cache_kb / 1024.0)
        for pick in picks:
            index = pick % len(pool)
            direct = directs[index]
            [cached] = engine_apts(engine, [pool[index]])
            assert (
                cached.relation.column_names
                == direct.relation.column_names
            )
            assert np.array_equal(
                cached.pt_row_ids, direct.pt_row_ids
            )
            for name in direct.relation.column_names:
                left = direct.relation.column(name)
                right = cached.relation.column(name)
                assert left.dtype == right.dtype
                if left.dtype.kind == "f":
                    assert np.array_equal(left, right, equal_nan=True)
                else:
                    assert np.array_equal(left, right)

    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_materialize_many_order_independent_of_schedule(self, picks):
        """A batch (visited in trie order) agrees with the eager oracle."""
        from repro.engine import MaterializationEngine

        db, pt, pool, directs = _engine_fixture()
        graphs = [pool[p % len(pool)] for p in picks]
        batch = engine_apts(MaterializationEngine(pt, db), graphs)
        for pick, apt in zip(picks, batch):
            direct = directs[pick % len(pool)]
            assert apt.relation.column_names == direct.relation.column_names
            for name in direct.relation.column_names:
                left = direct.relation.column(name)
                right = apt.relation.column(name)
                assert left.dtype == right.dtype
                if left.dtype.kind == "f":
                    assert np.array_equal(left, right, equal_nan=True)
                else:
                    assert np.array_equal(left, right)


# ----------------------------------------------------------------------
# Diversity & ranking metric properties
# ----------------------------------------------------------------------
class TestScoreProperties:
    @given(
        a=st.lists(predicate_strategy, min_size=1, max_size=3, unique=True),
        b=st.lists(predicate_strategy, min_size=1, max_size=3, unique=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_dissimilarity_range(self, a, b):
        try:
            phi, other = Pattern(a), Pattern(b)
        except ValueError:
            return
        assert -2.0 <= dissimilarity(phi, other) <= 1.0

    @given(
        items=st.lists(
            st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_ndcg_self_is_one(self, items):
        relevance = {item: float(len(items) - i) for i, item in enumerate(items)}
        assert ndcg(items, relevance) == pytest.approx(1.0)

    @given(
        perm=st.permutations(list("abcde")),
    )
    @settings(max_examples=40, deadline=None)
    def test_kendall_identity_and_symmetry(self, perm):
        base = list("abcde")
        assert kendall_tau_distance(perm, perm) == 0
        assert kendall_tau_distance(base, perm) == kendall_tau_distance(
            perm, base
        )
        assert kendall_tau_distance(base, perm) <= 10  # n(n-1)/2
