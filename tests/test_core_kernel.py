"""Property and equivalence tests for the columnar mining kernel.

The contract under test: kernel scoring is *byte-identical* to the
naive per-row definition (``tests/oracles/coverage.py`` and
`Pattern.match_mask`) for every pattern, including NULL/NaN rows,
empty patterns, sampled evaluators and ``parent & predicate``
conjunctions — and a whole ``mine_apt`` run is unchanged when the
coverage, search or LCA oracle stands in for the production layer.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CajadeConfig,
    ComparisonQuestion,
    MiningKernel,
    Pattern,
    PatternPredicate,
    QualityEvaluator,
    mine_apt,
)
from repro.core.apt import APTAttribute, AugmentedProvenanceTable
from repro.core.pattern import OP_EQ, OP_GE, OP_LE
from repro.core.timing import MINING_LEVELS, PATTERNS_EXAMINED, StepTimer
from repro.db import ColumnType, ProvenanceTable, TableSchema, parse_sql
from repro.db.relation import Relation
from tests.conftest import GSW_WINS_SQL, engine_apt, kernel_of
from tests.oracles import coverage as coverage_oracle
from tests.oracles import lca as lca_oracle
from tests.oracles import mining as mining_oracle
from tests.test_core_apt import star_join_graph

settings.register_profile(
    "ci", settings(max_examples=200, deadline=None, derandomize=True)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

CATEGORIES = ("red", "blue", "green", None)


# ----------------------------------------------------------------------
# Randomized synthetic APTs
# ----------------------------------------------------------------------
def build_apt(rows: list[tuple]) -> AugmentedProvenanceTable:
    """An APT over (pt_row_id, cat TEXT, num FLOAT, cnt INT) rows.

    ``num`` may be NaN (NULL); ``cat`` may be None.  The join graph is
    irrelevant to scoring and left None.
    """
    schema = TableSchema.build(
        "apt",
        {
            "__pt_row_id": ColumnType.INT,
            "cat": ColumnType.TEXT,
            "num": ColumnType.FLOAT,
            "cnt": ColumnType.INT,
        },
    )
    relation = Relation(
        schema,
        {
            "__pt_row_id": np.array([r[0] for r in rows], dtype=np.int64),
            "cat": np.array([r[1] for r in rows], dtype=object),
            "num": np.array(
                [np.nan if r[2] is None else float(r[2]) for r in rows],
                dtype=np.float64,
            ),
            "cnt": np.array([r[3] for r in rows], dtype=np.int64),
        },
    )
    return AugmentedProvenanceTable(
        join_graph=None,
        relation=relation,
        attributes=[
            APTAttribute("cat", is_numeric=False, from_provenance=True),
            APTAttribute("num", is_numeric=True, from_provenance=True),
            APTAttribute("cnt", is_numeric=True, from_provenance=False),
        ],
        excluded_attributes=[],
    )


rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=11),  # pt_row_id (with fanout)
        st.sampled_from(CATEGORIES),
        st.one_of(st.none(), st.integers(min_value=-3, max_value=8)),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=50,
)

predicate_strategy = st.one_of(
    st.builds(
        PatternPredicate,
        st.just("cat"),
        st.just(OP_EQ),
        st.sampled_from(("red", "blue", "green", "absent")),
    ),
    st.builds(
        PatternPredicate,
        st.just("num"),
        st.sampled_from((OP_LE, OP_GE, OP_EQ)),
        st.integers(min_value=-3, max_value=8),
    ),
    st.builds(
        PatternPredicate,
        st.just("cnt"),
        st.sampled_from((OP_LE, OP_GE)),
        st.integers(min_value=0, max_value=5),
    ),
)

patterns_strategy = st.lists(
    st.lists(predicate_strategy, min_size=0, max_size=3),
    min_size=1,
    max_size=6,
)


def safe_pattern(predicates: list[PatternPredicate]) -> Pattern:
    """Drop duplicate (attribute, op) conjuncts instead of raising."""
    unique: dict[tuple[str, str], PatternPredicate] = {}
    for predicate in predicates:
        unique.setdefault((predicate.attribute, predicate.op), predicate)
    return Pattern(unique.values())


def split_ids(rows, sides_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically partition the provenance universe (plus some
    ids whose rows the join 'dropped') into the two question sides."""
    ids = sorted({r[0] for r in rows} | {97, 98})
    rng = np.random.default_rng(sides_seed)
    mask = rng.random(len(ids)) < 0.5
    ids1 = np.array([i for i, m in zip(ids, mask) if m], dtype=np.int64)
    ids2 = np.array([i for i, m in zip(ids, mask) if not m], dtype=np.int64)
    return ids1, ids2


class TestKernelMatchesReference:
    @given(rows=rows_strategy, raw_patterns=patterns_strategy,
           sides_seed=st.integers(min_value=0, max_value=7))
    @settings(max_examples=120, deadline=None)
    def test_coverage_equals_reference(
        self, rows, raw_patterns, sides_seed
    ):
        apt = build_apt(rows)
        ids1, ids2 = split_ids(rows, sides_seed)
        evaluator = QualityEvaluator(apt, ids1, ids2)
        for raw in raw_patterns:
            pattern = safe_pattern(raw)
            assert evaluator.coverage_counts(pattern) == (
                coverage_oracle.coverage_counts(evaluator, pattern)
            )

    @given(rows=rows_strategy, raw_patterns=patterns_strategy,
           sides_seed=st.integers(min_value=0, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_masks_equal_match_mask(self, rows, raw_patterns, sides_seed):
        apt = build_apt(rows)
        ids1, ids2 = split_ids(rows, sides_seed)
        evaluator = QualityEvaluator(apt, ids1, ids2)
        kernel = evaluator.kernel
        columns = coverage_oracle.raw_columns(evaluator)
        patterns = [safe_pattern(raw) for raw in raw_patterns]
        masks = kernel.conjunctions(*kernel.encode(patterns))
        for pattern, mask in zip(patterns, masks):
            # Mask columns are the APT's rows sorted by coverage slot.
            np.testing.assert_array_equal(
                mask, pattern.match_mask(columns)[kernel.slot_order]
            )

    @given(rows=rows_strategy, raw_patterns=patterns_strategy,
           sides_seed=st.integers(min_value=0, max_value=7),
           rate=st.sampled_from((0.3, 0.5, 0.8)))
    @settings(max_examples=60, deadline=None)
    def test_sampled_evaluator_equals_reference(
        self, rows, raw_patterns, sides_seed, rate
    ):
        apt = build_apt(rows)
        ids1, ids2 = split_ids(rows, sides_seed)
        evaluator = QualityEvaluator(
            apt, ids1, ids2, sample_rate=rate,
            rng=np.random.default_rng(13),
        )
        for raw in raw_patterns:
            pattern = safe_pattern(raw)
            assert evaluator.coverage_counts(pattern) == (
                coverage_oracle.coverage_counts(evaluator, pattern)
            )

    @given(rows=rows_strategy, base=predicate_strategy,
           extra=predicate_strategy,
           sides_seed=st.integers(min_value=0, max_value=7))
    @settings(max_examples=80, deadline=None)
    def test_incremental_equals_full(
        self, rows, base, extra, sides_seed
    ):
        """parent & predicate — how the search scores a refinement —
        must equal evaluating the child outright."""
        apt = build_apt(rows)
        ids1, ids2 = split_ids(rows, sides_seed)
        parent = safe_pattern([base])
        child = safe_pattern([base, extra])
        added = [p for p in child.predicates if p not in parent.predicates]

        evaluator = QualityEvaluator(apt, ids1, ids2)
        kernel = evaluator.kernel
        stacked = kernel.predicate_masks(added, lead=1)
        stacked[0] = kernel.conjunctions(*kernel.encode([parent]))[0]
        cov1, cov2 = kernel.score(stacked, np.arange(len(stacked))[None, :])
        with_parent = (int(cov1[0]), int(cov2[0]))

        assert with_parent == evaluator.coverage_counts(child)
        assert with_parent == coverage_oracle.coverage_counts(evaluator, child)

    @given(rows=rows_strategy, raw_patterns=patterns_strategy,
           sides_seed=st.integers(min_value=0, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_derived_kernel_equals_fresh(
        self, rows, raw_patterns, sides_seed
    ):
        """A sampled evaluator slicing the exact evaluator's encodings
        must score exactly like one that encoded from scratch."""
        apt = build_apt(rows)
        ids1, ids2 = split_ids(rows, sides_seed)
        full = QualityEvaluator(apt, ids1, ids2)
        assert full.kernel is not None  # force the source encoding
        derived = QualityEvaluator(
            apt, ids1, ids2, sample_rate=0.5,
            rng=np.random.default_rng(5), encoding_source=full,
        )
        fresh = QualityEvaluator(
            apt, ids1, ids2, sample_rate=0.5,
            rng=np.random.default_rng(5),
        )
        for raw in raw_patterns:
            pattern = safe_pattern(raw)
            assert derived.coverage_counts(pattern) == (
                fresh.coverage_counts(pattern)
            )
            assert derived.coverage_counts(pattern) == (
                coverage_oracle.coverage_counts(derived, pattern)
            )

    def test_source_kernel_built_on_demand(self):
        """A sampled evaluator must derive from its encoding source even
        when nothing has built the source's kernel yet (the
        ``use_feature_selection=False`` arm used to re-encode here)."""
        rows = [(i, ("red", "blue", None)[i % 3], i, i % 2)
                for i in range(12)]
        apt = build_apt(rows)
        ids1, ids2 = split_ids(rows, 1)
        full = QualityEvaluator(apt, ids1, ids2)
        assert full._kernel is None  # source not built yet
        sampled = QualityEvaluator(
            apt, ids1, ids2, sample_rate=0.5,
            rng=np.random.default_rng(2), encoding_source=full,
        )
        kernel = sampled.kernel
        assert kernel is not None and kernel._derived
        assert full._kernel is not None  # built on demand
        assert kernel._dicts["cat"] == full._kernel._dicts["cat"]
        pattern = Pattern([PatternPredicate("cat", OP_EQ, "red")])
        assert sampled.coverage_counts(pattern) == (
            coverage_oracle.coverage_counts(sampled, pattern)
        )

    @given(rows=rows_strategy,
           sides_seed=st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_empty_pattern_and_side_labels(self, rows, sides_seed):
        apt = build_apt(rows)
        ids1, ids2 = split_ids(rows, sides_seed)
        evaluator = QualityEvaluator(apt, ids1, ids2)
        empty = Pattern()
        assert evaluator.coverage_counts(empty) == (
            coverage_oracle.coverage_counts(evaluator, empty)
        )
        # side_labels must agree with a per-row dict lookup.
        side = {int(pid): 1 for pid in ids1.tolist()}
        side.update({int(pid): 2 for pid in ids2.tolist()})
        expected = [side[int(pid)] for pid in evaluator._pt_ids.tolist()]
        assert evaluator.side_labels().tolist() == expected


class TestKernelDirect:
    def test_null_codes_never_match(self):
        columns = {
            "cat": np.array(["x", None, "y", None, "x"], dtype=object)
        }
        kernel = kernel_of(columns, np.arange(5), m1=3)
        np.testing.assert_array_equal(
            kernel.predicate_mask("cat", OP_EQ, "x"),
            np.array([True, False, False, False, True]),
        )
        # A NULL constant matches nothing — not even the NULL cells,
        # whose code the dictionary does hold — and neither does a
        # constant no cell can equal.
        assert not kernel.predicate_mask("cat", OP_EQ, None).any()
        assert not kernel.predicate_mask("cat", OP_EQ, np.nan).any()
        assert not kernel.predicate_mask("cat", OP_EQ, 7).any()
        assert not kernel.predicate_mask("cat", OP_EQ, "absent").any()

    def test_categorical_rejects_inequality(self):
        columns = {"cat": np.array(["x", "y"], dtype=object)}
        kernel = kernel_of(columns, np.arange(2), m1=1)
        with pytest.raises(ValueError, match="not allowed on categorical"):
            kernel.predicate_mask("cat", OP_LE, "x")

    def test_missing_attribute_raises(self):
        kernel = kernel_of({}, np.empty(0, dtype=np.int64), m1=0)
        with pytest.raises(KeyError):
            kernel.predicate_mask("nope", OP_EQ, 1)

    def test_ml_codes_match_varclus_encoding(self):
        """ml codes are first-occurrence labels in which NULL keeps a
        code; ``encode_columns`` hands them to the forest as they are."""
        from repro.ml.varclus import encode_columns

        arr = np.array(["b", None, "a", "b", "c", None], dtype=object)
        kernel = kernel_of({"cat": arr}, np.arange(6), m1=3)
        assert kernel.ml_codes("cat").tolist() == [0, 1, 2, 0, 3, 1]
        matrix = encode_columns(
            ["cat"], kernel.numeric_columns, {"cat": kernel.ml_codes("cat")}
        )
        assert matrix[:, 0].tolist() == [0.0, 1.0, 2.0, 0.0, 3.0, 1.0]
        # match codes: None -> -1, everything else keeps its code.
        assert kernel.match_codes("cat").tolist() == [0, -1, 2, 0, 3, -1]

    def test_derived_kernel_hides_ml_codes(self):
        """Sliced codes are not first-occurrence-numbered, so derived
        kernels must not offer them as varclus-compatible encodings."""
        arr = np.array(["b", "a", "b", "c"], dtype=object)
        source = kernel_of({"cat": arr}, np.arange(4), m1=2)
        derived = MiningKernel.derived(
            source, np.array([False, True, True, True]),
            np.arange(3), m1=1,
        )
        assert source.ml_codes("cat") is not None
        assert derived.ml_codes("cat") is None
        # Matching and counting stay exact (numbering-independent).
        np.testing.assert_array_equal(
            derived.predicate_mask("cat", OP_EQ, "b"),
            np.array([False, True, False]),
        )
        assert derived.match_codes("cat").tolist() == [1, 0, 2]

    def test_code_matrix_views(self):
        arr = np.array(["b", None, "a", None, "b"], dtype=object)
        num = np.arange(5, dtype=np.float64)
        kernel = kernel_of({"cat": arr, "num": num}, np.arange(5), m1=3)
        match = kernel.code_matrix(["cat"])
        assert match.dtype == np.int32
        # NULL cells are -1; the rest keep first-occurrence codes.
        assert match[:, 0].tolist() == [0, -1, 2, -1, 0]
        rows = np.array([4, 1])
        assert kernel.code_matrix(["cat"], indices=rows).tolist() == [[0], [-1]]
        assert kernel.code_matrix([], indices=rows).shape == (2, 0)
        # numeric columns have no dictionary codes
        with pytest.raises(KeyError):
            kernel.code_matrix(["cat", "num"])
        # decode round-trips to the first-occurrence objects; the NULL
        # cell's code decodes to None
        assert kernel.code_values("cat") == ["b", None, "a"]
        assert kernel.code_values("num") is None


# ----------------------------------------------------------------------
# End-to-end: mine_apt is byte-identical with oracles standing in for
# the kernel's scoring ("kernel off": the pattern-at-a-time search over
# per-row coverage) or for the code-based LCA
# ----------------------------------------------------------------------
@pytest.fixture()
def mined_setup(mini_db):
    pt = ProvenanceTable.compute(parse_sql(GSW_WINS_SQL), mini_db)
    question = ComparisonQuestion(
        {"season": "2015-16"}, {"season": "2012-13"}
    )
    resolved = question.resolve(pt)
    apt = engine_apt(star_join_graph(), pt, mini_db)
    return apt, resolved


def _mine(apt, resolved, **overrides):
    defaults = dict(
        top_k=5, f1_sample_rate=1.0, lca_sample_rate=1.0,
        num_selected_attrs=4, seed=3,
    )
    defaults.update(overrides)
    config = CajadeConfig(**defaults)
    return mine_apt(apt, resolved, config, np.random.default_rng(3))


def _fingerprint(result):
    return [
        (mp.pattern, mp.primary, mp.stats.tp, mp.stats.fp, mp.stats.fn)
        for mp in result.patterns
    ]


def _kernel_off(monkeypatch, apt, resolved, **overrides):
    """Mine with no kernel anywhere: one ``Pattern`` at a time, each
    scored by per-row matching — and check both oracles really ran."""
    searches = mining_oracle.swap_in(monkeypatch)
    scored = coverage_oracle.swap_in(monkeypatch)
    result = _mine(apt, resolved, **overrides)
    assert searches[0] == 1
    assert scored[0] >= result.candidates_examined
    return result


class TestMineAptKernelEquivalence:
    def test_kernel_on_off_identical(self, mined_setup, monkeypatch):
        apt, resolved = mined_setup
        on = _mine(apt, resolved)
        off = _kernel_off(monkeypatch, apt, resolved)
        assert _fingerprint(on) == _fingerprint(off)
        assert on.candidates_examined == off.candidates_examined

    def test_code_lca_on_off_identical(self, mined_setup, monkeypatch):
        """Candidate set, examined count and ranked patterns match the
        object loop's."""
        apt, resolved = mined_setup
        coded = _mine(apt, resolved)
        lca_oracle.swap_in(monkeypatch)
        objected = _mine(apt, resolved)
        assert _fingerprint(coded) == _fingerprint(objected)
        assert coded.candidates_examined == objected.candidates_examined

    def test_code_lca_identical_with_sampling(self, mined_setup, monkeypatch):
        apt, resolved = mined_setup
        sampling = dict(f1_sample_rate=0.6, lca_sample_rate=0.5)
        coded = _mine(apt, resolved, **sampling)
        lca_oracle.swap_in(monkeypatch)
        objected = _mine(apt, resolved, **sampling)
        assert _fingerprint(coded) == _fingerprint(objected)

    def test_kernel_on_off_identical_with_sampling(
        self, mined_setup, monkeypatch
    ):
        apt, resolved = mined_setup
        on = _mine(apt, resolved, f1_sample_rate=0.6)
        off = _kernel_off(monkeypatch, apt, resolved, f1_sample_rate=0.6)
        assert _fingerprint(on) == _fingerprint(off)

    def test_kernel_verify_passes(self, mined_setup, kernel_verify):
        """Every count a mining reports agrees with the oracle."""
        apt, resolved = mined_setup
        _mine(apt, resolved)
        _mine(apt, resolved, f1_sample_rate=0.6)
        assert kernel_verify[0] > 0

    def test_kernel_verify_qnba5(self, nba_small, kernel_verify):
        """The same cross-check over a whole Qnba5 λ#edges 1 question:
        every join graph's pool and the exact re-evaluation of its
        finalists, on frame-backed APTs with gathered codes."""
        from repro.api import CajadeSession
        from repro.datasets import query_by_name

        db, schema_graph = nba_small
        workload = query_by_name("Qnba5")
        response = CajadeSession(db, schema_graph).explain(
            workload.sql, workload.question, max_join_edges=1
        )
        assert response.explanations
        assert kernel_verify[0] > 100

    def test_kernel_counters_in_timer(self, mined_setup):
        apt, resolved = mined_setup
        timer = StepTimer()
        config = CajadeConfig(
            top_k=3, f1_sample_rate=1.0, lca_sample_rate=1.0,
            num_selected_attrs=4,
        )
        result = mine_apt(
            apt, resolved, config, np.random.default_rng(0), timer=timer
        )
        counters = timer.counters()
        assert counters[PATTERNS_EXAMINED] == result.candidates_examined
        assert 1 <= counters[MINING_LEVELS] <= result.candidates_examined


# ----------------------------------------------------------------------
# The kernel is a faithful view of every APT a gate question mines
# ----------------------------------------------------------------------
def assert_faithful_view(kernel: MiningKernel, evaluator) -> None:
    """Every minable attribute once, as codes iff TEXT; numeric values and
    decoded codes equal to what the APT gathers for the evaluator's rows."""
    apt = evaluator.apt
    names = [a.name for a in apt.attributes]
    assert set(kernel.numeric_columns) <= set(names)
    for name in names:
        codes = kernel.match_codes(name)
        text = apt.frame.column_type(name) is ColumnType.TEXT
        assert (codes is not None) == text != (name in kernel.numeric_columns)
        values = apt.column_values(name, evaluator.rows)
        if not text:
            assert np.array_equal(
                kernel.numeric_columns[name],
                values.astype(np.float64),
                equal_nan=True,
            ), name
            continue
        present = codes >= 0
        decoded = np.array(kernel.code_values(name), dtype=object)
        assert present.tolist() == [v is not None for v in values], name
        assert decoded[codes[present]].tolist() == values[present].tolist()


class TestKernelIsAFaithfulView:
    @pytest.mark.parametrize("store", ["memory", "reopened"])
    @pytest.mark.parametrize("query", ["Qnba5", "Qmimic5"])
    def test_every_gate_apt(
        self, query, store, gate_databases, tmp_path, monkeypatch
    ):
        """λ#edges 2, scale 0.25: the exact kernel and the λF1-samp one
        of every mined APT, in memory and over a reopened store — and the
        cold question itself gathers no TEXT attribute's values."""
        import repro.api.session as session_module
        from repro.api import CajadeSession
        from repro.datasets import query_by_name
        from repro.db import Database

        workload = query_by_name(query)
        db, schema_graph = gate_databases[workload.dataset]
        if store == "reopened":
            db.save(tmp_path / "store")
            db = Database.open(tmp_path / "store")

        text_gathers: list[str] = []
        checking = [False]
        production_gather = AugmentedProvenanceTable.column_values

        def recording(self, name, subset=None):
            if not checking[0] and not self.attribute(name).is_numeric:
                text_gathers.append(name)
            return production_gather(self, name, subset)

        mined = []
        production_mine = session_module.mine_apt

        def mine_and_check(*args, **kwargs):
            result = production_mine(*args, **kwargs)
            checking[0] = True
            for evaluator in (result.full_evaluator, result.evaluator):
                assert_faithful_view(evaluator.kernel, evaluator)
            checking[0] = False
            mined.append(result.evaluator is not result.full_evaluator)
            return result

        monkeypatch.setattr(
            AugmentedProvenanceTable, "column_values", recording
        )
        monkeypatch.setattr(session_module, "mine_apt", mine_and_check)
        response = CajadeSession(
            db, schema_graph, CajadeConfig(max_join_edges=2)
        ).explain(workload.sql, workload.question)
        assert response.explanations
        assert len(mined) >= 20 and all(mined)  # every graph sampled
        assert text_gathers == []


class TestConfigAndCli:
    def test_cli_kernel_flags(self, capsys):
        """The kernel has no budget left to set: its one flag is gone."""
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["workload", "Qnba1", "--kernel-cache-mb", "8"]
            )
        assert "--kernel-cache-mb" in capsys.readouterr().err
