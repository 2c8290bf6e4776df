"""Algorithm 1's level-at-a-time search against its oracle.

``repro.core.mining.frontier_search`` runs the refinement BFS on integer
rows, a level per batch; the oracle (``tests/oracles/mining.py``) is the
pattern-at-a-time loop it replaced.  These tests require the two to agree
on every join graph's pool — patterns, primaries, counts and order — and
on the number of patterns examined: through whole questions at the gate's
scale, over generated small APTs that
hit the awkward cases (F ties at the pool's cut, NULL cells, a provenance
row the join dropped, an empty side, every pruning arm), and with the
scoring chunk shrunk until a level no longer fits in one.

Under ``HYPOTHESIS_PROFILE=ci`` the property test runs derandomized with
a raised example count, like the join and column-store differentials.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.kernel as kernel_module
import repro.core.mining as mining
from repro.api import CajadeSession
from repro.core import (
    CajadeConfig,
    MinedPattern,
    MiningKernel,
    Pattern,
    PatternPredicate,
    QualityEvaluator,
    QualityStats,
    RefinementGenerator,
    lca_candidates_codes,
)
from repro.core.apt import APTAttribute, AugmentedProvenanceTable
from repro.core.pattern import OP_EQ, OP_LE
from repro.core.timing import (
    MINING_LEVELS,
    PATTERNS_EXAMINED,
    POOL_PATTERNS_BUILT,
    StepTimer,
)
from repro.datasets.workloads import query_by_name
from repro.db import ColumnType, TableSchema
from repro.db.relation import Relation
from repro.serving import canonical_payload
from tests.oracles import mining as oracle

settings.register_profile(
    "ci", settings(max_examples=200, deadline=None, derandomize=True)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def fingerprint(pool: list[MinedPattern]) -> list[tuple]:
    """Everything a pool says, in its order (descriptions too: equal
    patterns could still render apart, e.g. ``1`` and ``1.0``)."""
    return [
        (m.pattern, m.pattern.describe(), m.primary,
         m.stats.tp, m.stats.fp, m.stats.fn)
        for m in pool
    ]


# ----------------------------------------------------------------------
# Whole questions at the gate's scale: frontier ≡ oracle
# ----------------------------------------------------------------------
def ask(databases, name: str, edges: int):
    workload = query_by_name(name)
    db, schema_graph = databases[workload.dataset]
    config = CajadeConfig(max_join_edges=edges)
    session = CajadeSession(db, schema_graph, config)
    return session.explain(workload.sql, workload.question)


def record_searches(monkeypatch) -> list:
    """(pool fingerprint, patterns examined) of every search run through
    ``mine_apt`` — production or whatever was swapped in before."""
    seen = []
    real = mining.frontier_search

    def recording(*args):
        pool, examined = real(*args)
        seen.append((fingerprint(pool), examined))
        return pool, examined

    monkeypatch.setattr(mining, "frontier_search", recording)
    return seen


# (question, λ#edges, join graphs, patterns examined) — the examined
# counts are the ones ISSUE 21 sized on the pattern-at-a-time loop.
GATE_QUESTIONS = [
    ("Qnba3", 1, 7, None),
    ("Qnba4", 1, 7, None),
    ("Qnba5", 1, 7, 1502),
    ("Qnba5", 2, 64, None),
    ("Qmimic5", 2, 25, 1882),
]


@pytest.mark.parametrize("name, edges, graphs, examined", GATE_QUESTIONS)
def test_frontier_equals_pattern_at_a_time_per_graph(
    name, edges, graphs, examined, gate_databases, monkeypatch
):
    with monkeypatch.context() as patch:
        searches = record_searches(patch)
        frontier = ask(gate_databases, name, edges)
    assert len(searches) == frontier.join_graphs_mined == graphs
    total = sum(count for _pool, count in searches)
    assert frontier.timer.counter(PATTERNS_EXAMINED) == total
    if examined is not None:
        assert total == examined
    levels = frontier.timer.counter(MINING_LEVELS)
    assert graphs <= levels <= 4 * graphs  # λattrNum 3: at most 4 levels
    pooled_rows = sum(len(pool) for pool, _count in searches)
    assert frontier.timer.counter(POOL_PATTERNS_BUILT) <= max(
        total, pooled_rows
    )

    with monkeypatch.context() as patch:
        ran = oracle.swap_in(patch)
        one_by_one = record_searches(patch)
        reference = ask(gate_databases, name, edges)
    assert ran[0] == graphs
    assert one_by_one == searches
    assert canonical_payload(reference) == canonical_payload(frontier)


def test_no_per_pattern_work_inside_the_search(gate_databases, monkeypatch):
    """Qmimic5 λ#edges 2 (25 graphs, 1,882 patterns): the search asks for
    no single pattern's coverage, refines no ``Pattern``, scores at most
    three batches per graph beside one per level, and constructs
    ``Pattern`` objects for LCA candidates and pool rows only."""
    calls = {"score": 0, "coverage_counts": 0, "refined": 0, "init": 0}

    def counting(owner, attribute, key):
        real = getattr(owner, attribute)

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, counted)

    counting(MiningKernel, "score", "score")
    counting(QualityEvaluator, "coverage_counts", "coverage_counts")
    counting(Pattern, "refined", "refined")
    counting(Pattern, "__init__", "init")
    response = ask(gate_databases, "Qmimic5", 2)
    graphs = response.join_graphs_mined
    assert graphs == 25
    assert calls["coverage_counts"] == 0  # was 1,690 in the loop alone
    assert calls["refined"] == 0  # was 1,840
    assert calls["score"] <= 3 * graphs + response.timer.counter(MINING_LEVELS)
    assert calls["init"] <= 1100  # was 2,134


# ----------------------------------------------------------------------
# Generated small APTs: every arm of the search against the oracle
# ----------------------------------------------------------------------
NUMERIC = ("n0", "n1", "n2", "n3")
CATEGORICAL = ("c0", "c1")


def build_apt(rows: list[tuple]) -> AugmentedProvenanceTable:
    """An APT over (pt_row_id, c0, c1, n0..n3) rows: two TEXT columns
    (cells are ``str`` or ``None``) and four FLOAT columns (cells
    may be ``None`` = NaN)."""
    types = {"__pt_row_id": ColumnType.INT}
    types.update({name: ColumnType.TEXT for name in CATEGORICAL})
    types.update({name: ColumnType.FLOAT for name in NUMERIC})
    columns = {
        "__pt_row_id": np.array([r[0] for r in rows], dtype=np.int64)
    }
    for i, name in enumerate(CATEGORICAL, start=1):
        columns[name] = np.array([r[i] for r in rows], dtype=object)
    for i, name in enumerate(NUMERIC, start=1 + len(CATEGORICAL)):
        columns[name] = np.array(
            [np.nan if r[i] is None else float(r[i]) for r in rows],
            dtype=np.float64,
        )
    return AugmentedProvenanceTable(
        join_graph=None,
        relation=Relation(TableSchema.build("apt", types), columns),
        attributes=[
            APTAttribute(name, is_numeric=False, from_provenance=True)
            for name in CATEGORICAL
        ]
        + [
            APTAttribute(name, is_numeric=True, from_provenance=False)
            for name in NUMERIC
        ],
        excluded_attributes=[],
    )


cell = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),  # pt_row_id, with fan-out
        st.sampled_from(("red", "blue", None, "")),
        st.sampled_from(("x", "y", "z", None)),
        cell, cell, cell,
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=30,
)
config_strategy = st.fixed_dictionaries(
    {
        "max_numeric_predicates": st.integers(min_value=0, max_value=3),
        "num_fragments": st.integers(min_value=1, max_value=4),
        "use_recall_pruning": st.booleans(),
        "recall_threshold": st.sampled_from((0.0, 0.1, 0.5, 1.0)),
        "f1_sample_rate": st.sampled_from((0.3, 1.0)),
        "top_k": st.sampled_from((1, 10)),  # pool cap 25 and 50
        "k_cat": st.sampled_from((2, 15)),
    }
)


def split_sides(rows, seed: int, empty_side: int):
    """The provenance universe (plus two ids whose rows the join dropped)
    split into the question's sides; ``empty_side`` 1 or 2 leaves that
    side without a single provenance row."""
    ids = np.array(sorted({r[0] for r in rows} | {97, 98}), dtype=np.int64)
    on_side1 = np.random.default_rng(seed).random(len(ids)) < 0.5
    if empty_side:
        on_side1[:] = empty_side == 2
    return ids[on_side1], ids[~on_side1]


def search_both_ways(apt, ids1, ids2, config: CajadeConfig):
    """(frontier result, oracle result) on one APT, feature selection off:
    every categorical attribute feeds the LCA, every numeric one refines."""
    full = QualityEvaluator(apt, ids1, ids2)
    evaluator = full
    if config.f1_sample_rate < 1.0:
        evaluator = QualityEvaluator(
            apt, ids1, ids2, sample_rate=config.f1_sample_rate,
            rng=np.random.default_rng(13), encoding_source=full,
        )
    candidates = lca_candidates_codes(
        full.kernel, list(CATEGORICAL), config, np.random.default_rng(1)
    )
    refiner = RefinementGenerator(
        full.kernel.numeric_columns, list(NUMERIC), config
    )
    arguments = (evaluator, candidates, refiner, config)
    return (
        mining.frontier_search(*arguments, StepTimer()),
        oracle.search(*arguments, StepTimer()),
    )


def assert_same(frontier, reference) -> None:
    assert fingerprint(frontier[0]) == fingerprint(reference[0])
    assert frontier[1] == reference[1]


class TestFrontierMatchesOracle:
    @given(
        rows=rows_strategy,
        knobs=config_strategy,
        sides_seed=st.integers(min_value=0, max_value=7),
        empty_side=st.sampled_from((0, 0, 0, 1, 2)),
    )
    @settings(max_examples=150, deadline=None)
    def test_pool_and_examined_equal_oracle(
        self, rows, knobs, sides_seed, empty_side
    ):
        apt = build_apt(rows)
        ids1, ids2 = split_sides(rows, sides_seed, empty_side)
        config = CajadeConfig(lca_sample_rate=1.0, **knobs)
        assert_same(*search_both_ways(apt, ids1, ids2, config))

    def test_level_wider_than_one_chunk(self, monkeypatch):
        """With the chunk constant at a few hundred bytes every level is
        scored in many pieces — and nothing changes."""
        rng = np.random.default_rng(4)
        rows = [
            (int(rng.integers(0, 10)), ("red", "blue", None)[i % 3], "x",
             *rng.integers(0, 5, size=4).tolist())
            for i in range(30)
        ]
        apt = build_apt(rows)
        ids1, ids2 = split_sides(rows, 3, 0)
        config = CajadeConfig(
            lca_sample_rate=1.0, f1_sample_rate=1.0, num_fragments=4,
            use_recall_pruning=False,
        )
        whole, reference = search_both_ways(apt, ids1, ids2, config)
        assert whole[1] > 1000  # wide levels: four attributes, no pruning

        chunks = [0]
        conjunctions = MiningKernel.conjunctions

        def counted(masks, ids):
            chunks[0] += 1
            return conjunctions(masks, ids)

        monkeypatch.setattr(
            MiningKernel, "conjunctions", staticmethod(counted)
        )
        monkeypatch.setattr(kernel_module, "_SCORE_CHUNK_BYTES", 300)
        pieces, _reference = search_both_ways(apt, ids1, ids2, config)
        assert chunks[0] > 100  # 300 bytes hold 3 rows of a 30-row APT
        assert_same(pieces, whole)
        assert_same(pieces, reference)

    def test_seed_that_already_holds_a_numeric_attribute(self):
        """A seed's own predicates block and count exactly as
        ``Pattern.uses`` / ``num_numeric_predicates`` would: no second
        predicate on ``n0``, one numeric slot already taken."""
        rows = [(i, "red", "x", i % 5, i % 3, i % 4, i % 2) for i in range(12)]
        apt = build_apt(rows)
        ids1, ids2 = split_sides(rows, 2, 0)
        evaluator = QualityEvaluator(apt, ids1, ids2)
        config = CajadeConfig(max_numeric_predicates=2, recall_threshold=0.0)
        refiner = RefinementGenerator(
            evaluator.kernel.numeric_columns, list(NUMERIC), config
        )
        seed = Pattern(
            [
                PatternPredicate("c0", OP_EQ, "red"),
                PatternPredicate("n0", OP_LE, 3.0),
            ]
        )
        arguments = (evaluator, [seed], refiner, config)
        frontier = mining.frontier_search(*arguments, StepTimer())
        assert_same(frontier, oracle.search(*arguments, StepTimer()))
        for entry in frontier[0]:
            assert entry.pattern.num_numeric_predicates(set(NUMERIC)) <= 2


# ----------------------------------------------------------------------
# The pool's order is total
# ----------------------------------------------------------------------
class TestTotalOrder:
    # Three boundaries that agree to six significant digits; as strings
    # (the predicate key's form) the middle one sorts first, as numbers —
    # and in visit order — the low one does.
    VALUES = (999999.95, 1000000.05, 1000000.25)

    def rows(self):
        # pt rows 0-2 hold the low value; row 0 also fans out to the
        # middle one, so ``<= low`` and ``<= middle`` cover the same rows.
        low, middle, high = self.VALUES
        return (
            [(i, "red", "x", low, 0, 0, 0) for i in range(3)]
            + [(0, "red", "x", middle, 0, 0, 0)]
            + [(i, "red", "x", high, 0, 0, 0) for i in range(3, 6)]
        )

    def test_equal_descriptions_do_not_tie(self):
        stats = QualityStats(tp=3, fp=0, fn=0)
        low, middle = (
            MinedPattern(
                Pattern([PatternPredicate("n0", OP_LE, value)]), 1, stats
            )
            for value in self.VALUES[:2]
        )
        assert low.pattern != middle.pattern
        assert low.pattern.describe() == middle.pattern.describe()
        assert middle.sort_key() < low.sort_key()
        assert sorted([low, middle], key=MinedPattern.sort_key) == [middle, low]

    def test_cut_between_two_patterns_that_render_alike(self, monkeypatch):
        """Pool cap 1, and the two best patterns differ only beyond the
        sixth significant digit of one boundary: which of them survives
        is decided by the predicate key, not by visit order (which would
        keep the low boundary, met first)."""
        monkeypatch.setattr(mining, "pool_capacity", lambda config: 1)
        monkeypatch.setattr(oracle, "pool_capacity", lambda config: 1)
        rows = self.rows()
        apt = build_apt(rows)
        ids1 = np.arange(3, dtype=np.int64)
        ids2 = np.arange(3, 6, dtype=np.int64)
        config = CajadeConfig(
            lca_sample_rate=1.0, f1_sample_rate=1.0, recall_threshold=0.0
        )
        frontier, reference = search_both_ways(apt, ids1, ids2, config)
        assert_same(frontier, reference)
        (best,) = frontier[0]
        assert best.stats == QualityStats(tp=3, fp=0, fn=0)
        assert best.pattern == Pattern(
            [
                PatternPredicate("c0", OP_EQ, "red"),
                PatternPredicate("c1", OP_EQ, "x"),
                PatternPredicate("n0", OP_LE, self.VALUES[1]),
            ]
        )
