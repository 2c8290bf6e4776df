"""Late-materialized storage engine: byte-identity and cache-shape tests.

The index-vector pipeline is the only one in ``src/``; the eager
column-copying pipeline it must equal lives in ``tests/oracles/eager.py``.
Covered:

- index-vector joins ≡ eager joins (hypothesis: NULL join keys, empty
  results, self-joins, multi-column keys);
- the working table ≡ σ(R_1 × … × R_p), cached and uncached engine APTs
  ≡ the eager plan execution;
- gather-built kernel codes ≡ per-APT re-encoded codes (masks,
  coverage, ml codes);
- full-pipeline byte-identity between sessions on frame-backed APTs and
  on the oracle's relation-backed APTs (including λF1-samp sampled
  evaluation);
- the trie caches index-vector frames smaller than the relations they
  stand for;
- vectorized grouping (``group_indices``) / primary-key duplicate detection /
  ``row_ids_excluding`` match their per-row reference semantics.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apt import AugmentedProvenanceTable, build_plan
from repro.core.config import CajadeConfig
from repro.core.enumeration import enumerate_join_graphs
from repro.core.pattern import OP_EQ, Pattern, PatternPredicate
from repro.core.quality import QualityEvaluator
from repro.core.schema_graph import SchemaGraph
from repro.db import ColumnType, Database, Relation, TableSchema, TextColumn
from repro.db.errors import IntegrityError
from repro.db.executor import group_indices
from repro.db.frame import IndexFrame
from repro.db.parser import parse_sql
from repro.db.provenance import ProvenanceTable
from repro.engine import MaterializationEngine

PLAYER_POINTS_SQL = (
    "SELECT p.player_name, g.season, SUM(pg.pts) AS pts "
    "FROM player p, player_game pg, game g "
    "WHERE p.player_id = pg.player_id AND pg.year = g.year "
    "AND pg.gameno = g.gameno AND g.winner = 'GSW' "
    "GROUP BY p.player_name, g.season"
)
from tests.conftest import GSW_WINS_SQL, engine_apt, engine_apts
from tests.oracles import coverage as coverage_oracle
from tests.oracles import eager
from tests.oracles.eager import hash_join
from tests.test_engine import assert_relations_identical


# ----------------------------------------------------------------------
# Index-vector join ≡ eager join
# ----------------------------------------------------------------------
KEYS = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
TEXT_KEYS = st.one_of(st.none(), st.sampled_from(["a", "b", "c"]))


def _left_relation(rows: list[tuple]) -> Relation:
    schema = TableSchema.build(
        "left",
        {
            "left.k1": ColumnType.INT,
            "left.k2": ColumnType.TEXT,
            "left.payload": ColumnType.INT,
        },
    )
    return Relation.from_rows(
        schema, [(k1, k2, i) for i, (k1, k2) in enumerate(rows)]
    )


def _right_relation(rows: list[tuple]) -> Relation:
    schema = TableSchema.build(
        "right",
        {
            "right.k1": ColumnType.INT,
            "right.k2": ColumnType.TEXT,
            "right.tag": ColumnType.TEXT,
        },
    )
    return Relation.from_rows(
        schema, [(k1, k2, f"t{i}") for i, (k1, k2) in enumerate(rows)]
    )


class TestIndexVectorJoin:
    @given(
        left=st.lists(st.tuples(KEYS, TEXT_KEYS), max_size=20),
        right=st.lists(st.tuples(KEYS, TEXT_KEYS), max_size=20),
        two_columns=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_frame_join_matches_hash_join(self, left, right, two_columns):
        """Arbitrary inputs (NULL keys included, possibly empty sides):
        the index-vector join gathers to exactly the eager result."""
        lrel = _left_relation(left)
        rrel = _right_relation(right)
        conditions = [("left.k1", "right.k1")]
        if two_columns:
            conditions.append(("left.k2", "right.k2"))
        eager = hash_join(lrel, rrel, conditions)
        framed = (
            IndexFrame.from_relation(lrel)
            .join(rrel, conditions)
            .to_relation()
        )
        assert_relations_identical(eager, framed)
        assert framed.schema.name == eager.schema.name

    @given(rows=st.lists(st.tuples(KEYS, TEXT_KEYS), max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_self_join(self, rows):
        """A relation joined with a renamed copy of itself."""
        lrel = _left_relation(rows)
        rrel = lrel.rename_columns(
            {
                "left.k1": "copy.k1",
                "left.k2": "copy.k2",
                "left.payload": "copy.payload",
            }
        )
        conditions = [("left.k1", "copy.k1")]
        eager = hash_join(lrel, rrel, conditions)
        framed = (
            IndexFrame.from_relation(lrel)
            .join(rrel, conditions)
            .to_relation()
        )
        assert_relations_identical(eager, framed)

    @given(
        left=st.lists(st.tuples(KEYS, TEXT_KEYS), max_size=12),
        mid=st.lists(st.tuples(KEYS, TEXT_KEYS), max_size=12),
        right=st.lists(st.tuples(KEYS, TEXT_KEYS), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_chained_joins(self, left, mid, right):
        """Two chained joins: frames compose index vectors transitively."""
        lrel = _left_relation(left)
        mrel = _right_relation(mid)
        rrel = _right_relation(right).rename_columns(
            {
                "right.k1": "far.k1",
                "right.k2": "far.k2",
                "right.tag": "far.tag",
            }
        )
        c1 = [("left.k1", "right.k1")]
        c2 = [("right.k2", "far.k2")]
        eager = hash_join(hash_join(lrel, mrel, c1), rrel, c2)
        framed = (
            IndexFrame.from_relation(lrel)
            .join(mrel, c1)
            .join(rrel, c2)
            .to_relation()
        )
        assert_relations_identical(eager, framed)

    def test_empty_inputs(self):
        lrel = _left_relation([])
        rrel = _right_relation([(1, "a")])
        conditions = [("left.k1", "right.k1")]
        eager = hash_join(lrel, rrel, conditions)
        framed = (
            IndexFrame.from_relation(lrel)
            .join(rrel, conditions)
            .to_relation()
        )
        assert_relations_identical(eager, framed)
        assert framed.num_rows == 0

    def test_single_source_to_relation_preserves_schema(self):
        rel = _left_relation([(1, "a"), (2, "b")])
        frame = IndexFrame.from_relation(rel)
        assert frame.to_relation() is rel
        taken = frame.select(np.array([1], dtype=np.int64)).to_relation()
        assert taken.schema.primary_key == rel.schema.primary_key
        assert taken.schema.name == rel.schema.name

    def test_estimated_bytes_counts_index_vectors_only(self):
        rel = _left_relation([(i % 3, "a") for i in range(10)])
        frame = IndexFrame.from_relation(rel)
        assert frame.estimated_bytes == 0  # identity: no marginal cost
        joined = frame.join(
            _right_relation([(i % 3, "b") for i in range(10)]),
            [("left.k1", "right.k1")],
        )
        expected = sum(r.nbytes for r in joined.rows if r is not None)
        assert joined.estimated_bytes == expected
        gathered = joined.to_relation()
        assert joined.estimated_bytes < sum(
            gathered.column(name).nbytes for name in gathered.column_names
        )


# ----------------------------------------------------------------------
# Engine pipeline: late ≡ eager, frames in the trie
# ----------------------------------------------------------------------
def _pipeline(mini_db):
    query = parse_sql(GSW_WINS_SQL)
    pt = ProvenanceTable.compute(query, mini_db)
    sg = SchemaGraph.from_database(mini_db)
    config = CajadeConfig(max_join_edges=2, f1_sample_rate=1.0)
    graphs = list(enumerate_join_graphs(sg, query, pt, mini_db, config))
    return pt, graphs


def _sorted_rows(relation: Relation) -> list[tuple]:
    return sorted(relation.iter_rows(), key=repr)


class TestWorkingTableLateMaterialization:
    def test_working_table_modes_identical(self, mini_db):
        """The planned index-vector pipeline yields exactly the rows of
        the definition, σ_WHERE(R_1 × … × R_p) (row order is the
        plan's, so rows compare as multisets)."""
        from repro.db.executor import working_table

        for sql in (GSW_WINS_SQL, PLAYER_POINTS_SQL):
            query = parse_sql(sql)
            late = working_table(query, mini_db)
            defined = eager.provenance_by_definition(query, mini_db)
            assert late.schema.name == "working"
            assert sorted(late.column_names) == sorted(defined.column_names)
            defined = defined.project(late.column_names)
            assert _sorted_rows(late) == _sorted_rows(defined)

    def test_provenance_modes_identical(self, mini_db):
        """PT(Q, D) partitions the definition's rows: same group keys,
        same provenance per output tuple, one result row per group."""
        query = parse_sql(PLAYER_POINTS_SQL)
        pt = ProvenanceTable.compute(query, mini_db)
        data = pt.relation.project(pt.data_columns)
        defined = eager.provenance_by_definition(query, mini_db).project(
            pt.data_columns
        )
        positions = [data.column_names.index(c) for c in pt.group_columns]
        by_key: dict[tuple, list[tuple]] = {}
        for row in defined.iter_rows():
            by_key.setdefault(tuple(row[p] for p in positions), []).append(row)
        assert set(by_key) == set(pt.groups)
        for key, indices in pt.groups.items():
            assert _sorted_rows(data.take(indices)) == sorted(
                by_key[key], key=repr
            )
        assert pt.result.num_rows == len(by_key)
        assert np.array_equal(
            pt.relation.column("__pt_row_id"), np.arange(data.num_rows)
        )


class TestEngineLateMaterialization:
    def test_late_engine_matches_eager_engine(self, mini_db):
        pt, graphs = _pipeline(mini_db)
        late = MaterializationEngine(pt, mini_db)
        for graph, a in zip(graphs, engine_apts(late, graphs)):
            b = eager.eager_apt(graph, pt, mini_db)
            # The eager APT is one gathered relation under the identity
            # frame; the engine's is index vectors over base tables.
            assert len(b.frame.sources) == 1 and b.frame.rows == (None,)
            assert np.array_equal(a.pt_row_ids, b.pt_row_ids)
            assert_relations_identical(a.relation, b.relation)
            assert [x.name for x in a.attributes] == [
                x.name for x in b.attributes
            ]
            assert a.excluded_attributes == b.excluded_attributes

    def test_late_engine_matches_direct_materialize_apt(self, mini_db):
        """Direct materialization is the engine with no trie; sharing
        prefixes through the trie changes no APT."""
        pt, graphs = _pipeline(mini_db)
        cached = engine_apts(MaterializationEngine(pt, mini_db), graphs)
        for graph, apt in zip(graphs, cached):
            direct = engine_apt(graph, pt, mini_db)
            assert_relations_identical(direct.relation, apt.relation)

    def test_direct_materialize_apt_late_flag(self, mini_db):
        """Direct materialization (the engine with no trie, every graph
        its whole plan from the base) is frame-backed and ≡ the eager
        plan."""
        pt, graphs = _pipeline(mini_db)
        for graph in graphs:
            late = engine_apt(graph, pt, mini_db)
            assert late.frame is not None
            assert_relations_identical(
                eager.materialize_eager(graph, pt, mini_db), late.relation
            )

    def test_trie_caches_frames_with_smaller_entries(self, mini_db):
        pt, graphs = _pipeline(mini_db)
        joined = [g for g in graphs if build_plan(g, pt).joins]
        assert joined, "fixture should enumerate joined graphs"
        late = MaterializationEngine(pt, mini_db)
        engine_apts(late, joined)
        eager_bytes = sorted(
            sum(rel.column(name).nbytes for name in rel.column_names)
            for rel in (eager.materialize_eager(g, pt, mini_db) for g in joined)
        )
        late_stats = late.stats.cache
        assert late_stats.entries > 0
        assert late_stats.median_entry_bytes < eager_bytes[0]
        cached_values = [entry for entry, _ in late._cache._entries.values()]
        assert all(isinstance(v, IndexFrame) for v in cached_values)
        # Every cached step is int32-compacted (IndexFrame.compact).
        assert all(
            idx is None or idx.dtype == np.int32
            for v in cached_values
            for idx in v.rows
        )

    def test_restriction_namespacing_still_holds(self, mini_db):
        pt, graphs = _pipeline(mini_db)
        engine = MaterializationEngine(pt, mini_db)
        ids = pt.relation.column("__pt_row_id")
        half = ids[: len(ids) // 2]
        for graph in graphs[:4]:
            [unrestricted] = engine_apts(engine, [graph])
            [restricted] = engine_apts(engine, [graph], half)
            direct = eager.materialize_eager(
                graph, pt, mini_db, restrict_row_ids=half
            )
            assert_relations_identical(restricted.relation, direct)
            assert unrestricted.num_rows >= restricted.num_rows


# ----------------------------------------------------------------------
# Gather-built kernel codes ≡ per-APT re-encoded codes
# ----------------------------------------------------------------------
class TestKernelCodeGathering:
    def _evaluators(self, mini_db, sample_rate=1.0):
        pt, graphs = _pipeline(mini_db)
        joined = [g for g in graphs if build_plan(g, pt).joins]
        graph = joined[0]
        late_apt = engine_apt(graph, pt, mini_db)
        eager_apt = eager.eager_apt(graph, pt, mini_db)
        ids = pt.relation.column("__pt_row_id")
        ids1, ids2 = ids[: len(ids) // 2], ids[len(ids) // 2 :]
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        late_eval = QualityEvaluator(
            late_apt, ids1, ids2, sample_rate=sample_rate, rng=rng1
        )
        eager_eval = QualityEvaluator(
            eager_apt, ids1, ids2, sample_rate=sample_rate, rng=rng2
        )
        return late_apt, late_eval, eager_eval

    def test_kernel_gathers_no_text_values(self, mini_db, monkeypatch):
        """The kernel reads a TEXT attribute as gathered codes only; the
        APT gathers values for the numeric attributes alone."""
        late_apt, late_eval, _ = self._evaluators(mini_db)
        categorical = [
            a.name for a in late_apt.attributes if not a.is_numeric
        ]
        assert categorical
        gathered = []
        production = AugmentedProvenanceTable.column_values

        def recording(self, name, subset=None):
            gathered.append(name)
            return production(self, name, subset)

        monkeypatch.setattr(
            AugmentedProvenanceTable, "column_values", recording
        )
        kernel = late_eval.kernel
        assert all(kernel.match_codes(n) is not None for n in categorical)
        assert sorted(gathered) == sorted(kernel.numeric_columns)
        assert not set(gathered) & set(categorical)

    @pytest.mark.parametrize("sample_rate", [1.0, 0.6])
    def test_masks_coverage_and_ml_codes_identical(
        self, mini_db, sample_rate
    ):
        late_apt, late_eval, eager_eval = self._evaluators(
            mini_db, sample_rate
        )
        lk, ek = late_eval.kernel, eager_eval.kernel
        assert lk is not None and ek is not None
        categorical = [
            a.name for a in late_apt.attributes if not a.is_numeric
        ]
        for name in categorical:
            late_ml = lk.ml_codes(name)
            eager_ml = ek.ml_codes(name)
            assert late_ml is not None and eager_ml is not None
            # Renumbered gathered codes == per-APT first-occurrence codes.
            assert np.array_equal(late_ml, eager_ml)
            late_match = lk.match_codes(name)
            eager_match = ek.match_codes(name)
            # Numbering may differ (table-level vs per-APT), but the
            # NULL sentinel and the induced partition must agree.
            assert np.array_equal(late_match == -1, eager_match == -1)
            values = late_apt.column_values(name, late_eval.rows)
            for value in {v for v in values.tolist() if v is not None}:
                assert np.array_equal(
                    lk.predicate_mask(name, OP_EQ, value),
                    ek.predicate_mask(name, OP_EQ, value),
                )
            assert np.array_equal(
                lk.predicate_mask(name, OP_EQ, "absent-value"),
                ek.predicate_mask(name, OP_EQ, "absent-value"),
            )
        # Coverage agrees on single- and multi-predicate patterns.
        name = categorical[0]
        values = [
            v
            for v in late_apt.column_values(name, late_eval.rows).tolist()
            if v is not None
        ]
        pattern = Pattern([PatternPredicate(name, OP_EQ, values[0])])
        for late, eager in zip(lk.coverage([pattern]), ek.coverage([pattern])):
            assert late.tolist() == eager.tolist()
        assert (
            late_eval.coverage_counts(pattern)
            == eager_eval.coverage_counts(pattern)
            == coverage_oracle.coverage_counts(late_eval, pattern)
        )

    def test_verify_kernel_passes_on_late_apts(self, mini_db, kernel_verify):
        pt, graphs = _pipeline(mini_db)
        joined = [g for g in graphs if build_plan(g, pt).joins]
        apt = engine_apt(joined[0], pt, mini_db)
        ids = pt.relation.column("__pt_row_id")
        evaluator = QualityEvaluator(
            apt, ids[: len(ids) // 2], ids[len(ids) // 2 :]
        )
        name = next(
            a.name for a in apt.attributes if not a.is_numeric
        )
        value = next(
            v
            for v in apt.column_values(name, evaluator.rows).tolist()
            if v is not None
        )
        pattern = Pattern([PatternPredicate(name, OP_EQ, value)])
        evaluator.coverage_counts(pattern)  # raises on any mismatch
        assert kernel_verify[0] == 1


# ----------------------------------------------------------------------
# Full-pipeline byte-identity (frame-backed vs the oracle's relation-backed
# APTs)
# ----------------------------------------------------------------------
def _ranked_payload(response) -> str:
    payload = json.loads(response.to_json())
    payload.pop("apt_cache", None)
    return json.dumps(payload, sort_keys=True)


class TestFullPipelineByteIdentity:
    @pytest.mark.parametrize("f1_sample_rate", [1.0, 0.5])
    def test_knob_and_workers_identity(
        self, mini_db, mini_schema_graph, f1_sample_rate, monkeypatch
    ):
        from repro.api import CajadeSession
        from repro.core.question import ComparisonQuestion

        question = ComparisonQuestion(
            {"season": "2015-16"}, {"season": "2012-13"}
        )
        base = CajadeConfig(
            max_join_edges=2,
            num_selected_attrs=3,
            f1_sample_rate=f1_sample_rate,
            seed=4,
        )

        def payload() -> str:
            session = CajadeSession(mini_db, mini_schema_graph, base)
            return _ranked_payload(session.explain(GSW_WINS_SQL, question))

        late = payload()
        eager.swap_in(monkeypatch)
        assert late == payload()

    def test_qnba_sampled_evaluator_identity(self, nba_small, monkeypatch):
        """λF1-samp universe construction stays vectorized: on the Qnba
        workload the sampled-evaluator output (and therefore the ranked
        explanations) is identical on frame-backed APTs and on the
        oracle's relation-backed ones."""
        from repro.api import CajadeSession
        from repro.datasets import user_study_query

        db, schema_graph = nba_small
        workload = user_study_query()
        config = CajadeConfig(
            max_join_edges=1,
            num_selected_attrs=3,
            f1_sample_rate=0.3,
            seed=2,
        )

        def payload() -> str:
            session = CajadeSession(db, schema_graph, config)
            return _ranked_payload(
                session.explain(workload.sql, workload.question)
            )

        late = payload()
        eager.swap_in(monkeypatch)
        assert late == payload()


# ----------------------------------------------------------------------
# Vectorized grouping / primary key / row_ids_excluding semantics
# ----------------------------------------------------------------------
CELLS = st.one_of(
    st.none(),
    st.sampled_from(["x", "y", "z"]),
)
NUMS = st.one_of(st.none(), st.integers(min_value=-2, max_value=2))


def _mixed_relation(rows: list[tuple]) -> Relation:
    schema = TableSchema.build(
        "mixed",
        {
            "cat": ColumnType.TEXT,
            "num": ColumnType.INT,  # NULLs promote to float64 + NaN
            "flag": ColumnType.INT,
        },
    )
    return Relation.from_rows(
        schema, [(c, n, i % 2) for i, (c, n) in enumerate(rows)]
    )


def _reference_groups(relation: Relation) -> list[tuple[str, list[int]]]:
    """Whole-row groups by a per-row tuple loop: ``(repr(key), rows)``
    in first-occurrence order (a NaN key is its own group)."""
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(relation.iter_rows()):
        groups.setdefault(row, []).append(i)
    return [(repr(key), rows) for key, rows in groups.items()]


class TestVectorizedDedup:
    @given(rows=st.lists(st.tuples(CELLS, NUMS), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_group_indices_matches_reference(self, rows):
        relation = _mixed_relation(rows)
        groups = group_indices(relation, relation.column_names)
        assert [
            (repr(key), bucket.tolist()) for key, bucket in groups.items()
        ] == _reference_groups(relation)

    def test_group_indices_keeps_nan_rows_apart(self):
        """NULL-promoted NaN cells never compare equal (the historical
        tuple semantics), so each NaN row is a group of its own."""
        relation = _mixed_relation([("x", None), ("x", None), ("x", 1)])
        assert len(group_indices(relation, ["cat", "num"])) == 3

    @given(
        keys=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", "d"]), NUMS),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_primary_key_check_matches_reference(self, keys):
        schema = TableSchema.build(
            "pk",
            {"k": ColumnType.TEXT, "v": ColumnType.INT},
            primary_key=("k", "v"),
        )
        non_null = [k for k in keys if k[1] is not None]
        has_duplicate = len(set(non_null)) < len(non_null)
        if has_duplicate:
            with pytest.raises(IntegrityError):
                Relation.from_rows(schema, keys)
        else:
            # NaN keys never collide (fresh NaN scalars are unequal).
            relation = Relation.from_rows(schema, keys)
            assert relation.num_rows == len(keys)

    def test_row_ids_excluding_matches_set_reference(self, mini_db):
        query = parse_sql(GSW_WINS_SQL)
        pt = ProvenanceTable.compute(query, mini_db)
        for key in pt.groups:
            fast = pt.row_ids_excluding(key)
            own = set(pt.row_ids_of(key).tolist())
            all_ids = pt.relation.column("__pt_row_id")
            reference = np.array(
                [i for i in all_ids if i not in own], dtype=np.int64
            )
            assert np.array_equal(fast, reference)
            assert fast.dtype == np.int64


# ----------------------------------------------------------------------
# Load-time encodings
# ----------------------------------------------------------------------
class TestLoadTimeEncoding:
    def test_database_encodes_text_columns_at_load(self):
        db = Database("enc")
        db.create_table(
            TableSchema.build(
                "t", {"name": ColumnType.TEXT, "v": ColumnType.INT}
            ),
            [("a", 1), ("b", 2), ("a", 3), (None, 4)],
        )
        relation = db.table("t")
        encoding = relation.encoding("name")
        assert isinstance(encoding, TextColumn)
        assert np.array_equal(encoding.codes, [0, 1, 0, 2])
        assert encoding.none_code == 2
        assert np.array_equal(encoding.match_codes, [0, 1, 0, -1])

    def test_prefixed_relations_share_encodings(self):
        db = Database("enc")
        db.create_table(
            TableSchema.build("t", {"name": ColumnType.TEXT}),
            [("a",), ("b",)],
        )
        base = db.table("t")
        prefixed = base.prefix_columns("x.")
        assert prefixed.encoding("x.name") is base.encoding("name")

    def test_numeric_columns_have_no_encoding(self):
        db = Database("enc")
        db.create_table(
            TableSchema.build("t", {"v": ColumnType.INT}), [(1,), (2,)]
        )
        assert db.table("t").encoding("v") is None
