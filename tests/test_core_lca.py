"""Unit tests for LCA candidate generation (§3.2).

Covers the code-based generation on kernel dictionary codes and its
equivalence with the object-loop oracle (``tests/oracles/lca.py``): same
candidate list (hypothesis properties, incl. NULL cells, the sampled-pair
cap path, singleton rows, duplicated rows and keys wide enough to
re-rank) from the same rng trajectory, and the same answers to whole
questions at the gate's scale, whose op counts are pinned.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CajadeConfig,
    MiningKernel,
    Pattern,
    lca_candidates_codes,
    pick_top_candidates,
)
from repro.core.pattern import OP_EQ
from repro.core.timing import (
    LCA_DISTINCT_ROW_PAIRS,
    LCA_PAIRS_EXAMINED,
    LCA_PATTERNS_BUILT,
    StepTimer,
)
from repro.db.errors import SchemaError
from tests.conftest import kernel_of
from tests.oracles import lca as lca_oracle_module
from repro.core.lca import _pair_indices, _sample_row_indices
from tests.oracles.lca import lca_candidates as lca_oracle

settings.register_profile(
    "ci", settings(max_examples=200, deadline=None, derandomize=True)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture()
def columns() -> dict:
    player = ["Curry"] * 6 + ["Green"] * 4
    home = ["GSW", "LAL"] * 5
    return {
        "player": np.array(player, dtype=object),
        "home": np.array(home, dtype=object),
        "pts": np.arange(10).astype(float),
    }


def config(**kwargs) -> CajadeConfig:
    defaults = dict(lca_sample_rate=1.0, lca_sample_cap=1000)
    defaults.update(kwargs)
    return CajadeConfig(**defaults)


def kernel_for(columns: dict) -> MiningKernel:
    """A kernel over row-aligned columns; slot layout is irrelevant to
    candidate generation."""
    n = len(next(iter(columns.values()))) if columns else 0
    return kernel_of(columns, np.arange(n), m1=n)


def candidates(columns: dict, attrs, cfg, rng):
    return lca_candidates_codes(kernel_for(columns), attrs, cfg, rng)


class TestLcaCandidates:
    def test_frequent_constants_surface(self, columns, rng):
        patterns = candidates(columns, ["player", "home"], config(), rng)
        descriptions = {p.describe() for p in patterns}
        assert "player=Curry" in descriptions
        assert "home=GSW" in descriptions

    def test_pairwise_lca_agreement_only(self, columns, rng):
        patterns = candidates(columns, ["player", "home"], config(), rng)
        combined = Pattern.from_dict(
            {"player": (OP_EQ, "Curry"), "home": (OP_EQ, "GSW")}
        )
        assert combined in patterns

    def test_numeric_attrs_ignored(self, columns, rng):
        patterns = candidates(
            columns, ["player", "home", "pts"], config(), rng
        )
        for pattern in patterns:
            assert "pts" not in pattern.attributes

    def test_empty_without_categorical(self, columns, rng):
        assert candidates(columns, [], config(), rng) == []
        assert candidates(columns, ["missing"], config(), rng) == []

    def test_no_empty_pattern(self, columns, rng):
        patterns = candidates(columns, ["player"], config(), rng)
        assert all(p.size >= 1 for p in patterns)

    def test_null_values_skipped(self, rng):
        cols = {"a": np.array([None, None, "x"], dtype=object)}
        patterns = candidates(cols, ["a"], config(), rng)
        assert {p.describe() for p in patterns} == {"a=x"}

    def test_sample_cap_respected(self, rng):
        n = 5000
        cols = {"a": np.array(["v"] * n, dtype=object)}
        cfg = config(lca_sample_rate=1.0, lca_sample_cap=50, lca_pair_cap=100)
        patterns = candidates(cols, ["a"], cfg, rng)
        assert {p.describe() for p in patterns} == {"a=v"}

    def test_deterministic_given_rng(self, columns):
        r1 = candidates(
            columns, ["player", "home"], config(), np.random.default_rng(3)
        )
        r2 = candidates(
            columns, ["player", "home"], config(), np.random.default_rng(3)
        )
        assert r1 == r2


def both_paths(columns, attrs, cfg, seed=9):
    """(oracle, code-based) candidate lists from identical rng state."""
    reference = lca_oracle(
        columns, attrs, cfg, np.random.default_rng(seed)
    )
    coded = candidates(columns, attrs, cfg, np.random.default_rng(seed))
    return reference, coded


def assert_same_as_oracle(columns, attrs, cfg, seed):
    """Same candidate list and the same generator state afterwards."""
    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
    reference = lca_oracle(columns, attrs, cfg, r1)
    coded = candidates(columns, attrs, cfg, r2)
    assert reference == coded
    assert r1.bit_generator.state == r2.bit_generator.state


# A TEXT cell is str or None; "" and "None" are ordinary strings that
# must not be mistaken for the NULL cell.
CELLS = ("x", "y", "z", None, "", "None")

columns_strategy = st.integers(min_value=1, max_value=3).flatmap(
    lambda n_attrs: st.lists(
        st.tuples(*[st.sampled_from(CELLS)] * n_attrs),
        min_size=1,
        max_size=40,
    )
)


def columns_from(rows: list[tuple]) -> dict:
    n_attrs = len(rows[0])
    return {
        f"a{k}": np.array([r[k] for r in rows], dtype=object)
        for k in range(n_attrs)
    }


class TestCodeLcaEquivalence:
    def test_fixture_identical(self, columns):
        reference, coded = both_paths(
            columns, ["player", "home"], config()
        )
        assert reference == coded

    @given(rows=columns_strategy)
    @settings(max_examples=60, deadline=None)
    def test_property_full_pairs(self, rows):
        cols = columns_from(rows)
        reference, coded = both_paths(cols, sorted(cols), config())
        assert reference == coded

    @given(rows=columns_strategy, seed=st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_property_sampled_pair_cap(self, rows, seed):
        """The rng-driven pair sample path: both paths must draw the
        same pairs from the same generator state."""
        cfg = config(lca_sample_rate=0.7, lca_pair_cap=5)
        cols = columns_from(rows)
        reference, coded = both_paths(cols, sorted(cols), cfg, seed=seed)
        assert reference == coded

    def test_singleton_row(self):
        cols = {
            "a": np.array(["only"], dtype=object),
            "b": np.array([None], dtype=object),
        }
        reference, coded = both_paths(cols, ["a", "b"], config())
        assert reference == coded
        assert {p.describe() for p in coded} == {"a=only"}

    def test_nan_cells_match_object_semantics(self):
        """A NaN cell is not a TEXT value: it never becomes a candidate
        constant (it used to be a legal singleton, ``a=nan``) — the
        table's encoder rejects the column when the kernel gathers it.  The NULL cell is None,
        which is no constant and never agrees, in both paths."""
        cols = {"a": np.array([float("nan"), None, "v", "v"], dtype=object)}
        with pytest.raises(SchemaError, match="a"):
            kernel_for(cols)
        cols["a"][0] = None
        reference, coded = both_paths(cols, ["a"], config())
        assert reference == coded
        assert [p.describe() for p in coded] == ["a=v"]

    def test_sample_cap_rng_trajectory(self):
        """Row sampling consumes the rng identically in both paths."""
        n = 200
        values = np.array(
            [f"v{i % 7}" for i in range(n)], dtype=object
        )
        cols = {"a": values}
        cfg = config(lca_sample_rate=1.0, lca_sample_cap=20)
        r1, r2 = np.random.default_rng(4), np.random.default_rng(4)
        reference = lca_oracle(cols, ["a"], cfg, r1)
        coded = lca_candidates_codes(kernel_for(cols), ["a"], cfg, r2)
        assert reference == coded
        # identical post-call generator state
        assert r1.integers(0, 10**9) == r2.integers(0, 10**9)

    def test_numeric_attrs_ignored(self, columns, rng):
        coded = lca_candidates_codes(
            kernel_for(columns), ["player", "home", "pts"], config(), rng
        )
        assert all("pts" not in p.attributes for p in coded)

    def test_counters_recorded(self, columns):
        timer = StepTimer()
        coded = lca_candidates_codes(
            kernel_for(columns),
            ["player", "home"],
            config(),
            np.random.default_rng(0),
            timer=timer,
        )
        assert timer.counter(LCA_PAIRS_EXAMINED) == 10 * 9 // 2
        # 45 pairs of 10 rows are the 4·5/2 pairs of 4 distinct rows.
        assert timer.counter(LCA_DISTINCT_ROW_PAIRS) == 4 * 5 // 2
        # Patterns are constructed only for deduplicated survivors
        assert timer.counter(LCA_PATTERNS_BUILT) == len(coded)
        ref_timer = StepTimer()
        lca_oracle(
            columns,
            ["player", "home"],
            config(),
            np.random.default_rng(0),
            timer=ref_timer,
        )
        assert ref_timer.counter(LCA_PAIRS_EXAMINED) == 10 * 9 // 2
        assert ref_timer.counter(LCA_PATTERNS_BUILT) >= len(coded)


def pair_counters_by_definition(columns, attrs, cfg, seed):
    """(pairs examined, distinct row pairs) counted off the examined
    pair list itself: a distinct row pair is an unordered pair of
    distinct sample rows, a row with itself included."""
    rng = np.random.default_rng(seed)
    n_rows = len(next(iter(columns.values())))
    indices = _sample_row_indices(n_rows, cfg, rng)
    rows = [tuple(columns[a][i] for a in attrs) for i in indices.tolist()]
    pair_i, pair_j = _pair_indices(len(rows), cfg, rng)
    pairs = {frozenset((rows[i], rows[j])) for i, j in zip(pair_i, pair_j)}
    pairs |= {frozenset((row,)) for row in rows}
    return len(pair_i), len(pairs)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("over_cap", [0, 1])
def test_pair_cap_boundary(seed, over_cap):
    """m(m−1)/2 equal to the cap examines every pair without drawing
    any (the distinct pairs are the upper triangle of distinct rows);
    one pair over it samples.  Both match the oracle and count the
    pairs as the pair list does."""
    player = ["Curry", "Green", None, "Curry", "Thompson", "Green"] * 2
    home = ["GSW", "GSW", "LAL", None, "GSW", "LAL"] * 2
    cols = {
        "player": np.array(player, dtype=object),
        "home": np.array(home, dtype=object),
    }
    m = len(player)
    cfg = config(lca_sample_rate=1.0, lca_pair_cap=m * (m - 1) // 2 - over_cap)
    attrs = ["home", "player"]
    assert_same_as_oracle(cols, attrs, cfg, seed)
    timer = StepTimer()
    lca_candidates_codes(
        kernel_for(cols), attrs, cfg, np.random.default_rng(seed), timer=timer
    )
    examined, distinct = pair_counters_by_definition(cols, attrs, cfg, seed)
    assert timer.counter(LCA_PAIRS_EXAMINED) == examined
    assert timer.counter(LCA_DISTINCT_ROW_PAIRS) == distinct
    if not over_cap:
        assert examined == m * (m - 1) // 2
        assert distinct == 6 * 7 // 2  # six distinct rows


@st.composite
def packed_key_cases(draw):
    """(columns, pair cap, rng seed) aimed at the packed key.

    Narrow tables: 1–3 values per column, so rows repeat heavily, plus
    all-NULL rows.  Wide tables: 8–16 columns of mostly distinct values,
    enough rows that the product of the radices passes 2⁶² and the key
    must re-rank.  The pair cap falls on either side of m(m−1)/2, so the
    sampled path draws repeated and reversed pairs.
    """
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n_attrs = draw(st.integers(1, 10))
        n_rows = draw(st.integers(1, 60))
        codes = gen.integers(0, draw(st.integers(1, 3)), (n_rows, n_attrs))
        codes[gen.random(codes.shape) < 0.1] = -1
        nulls = np.full((draw(st.integers(0, 3)), n_attrs), -1)
        codes = np.concatenate([codes, nulls])
    else:
        n_attrs = draw(st.integers(8, 16))
        low = 2 * math.ceil(2 ** (62 / n_attrs))
        n_rows = draw(st.integers(low, low + 60))
        codes = np.stack(
            [gen.permutation(n_rows) for _ in range(n_attrs)], axis=1
        )
        repeat = gen.random(codes.shape) < 0.2
        codes[repeat] = codes[gen.integers(0, n_rows, repeat.sum()), 0]
        codes[gen.random(codes.shape) < 0.02] = -1
    m = len(codes)
    cols = {
        f"a{k}": np.array(
            [None if c < 0 else f"v{c}" for c in codes[:, k]], dtype=object
        )
        for k in range(n_attrs)
    }
    pair_cap = draw(st.integers(1, min(m * (m - 1) // 2 + 2, 3_000)))
    return cols, pair_cap, draw(st.integers(0, 2**16))


class TestPackedKeyEquivalence:
    @given(case=packed_key_cases())
    @settings(deadline=None)
    def test_property_against_oracle(self, case):
        cols, pair_cap, seed = case
        cfg = config(lca_sample_rate=0.9, lca_pair_cap=pair_cap)
        assert_same_as_oracle(cols, sorted(cols), cfg, seed)

    def test_wide_keys_re_rank(self):
        """Nine columns of 255 values: nine radices of 2⁸.  Unranked, the
        key would wrap at 2⁶⁴ and drop column 0's digit, merging the
        singletons of rows 0 and 255, which differ only there."""
        codes = np.tile(np.arange(256)[:, None] % 255, (1, 9))
        codes[255, 0] = 1
        cols = {
            f"a{k}": np.array([f"v{c}" for c in codes[:, k]], dtype=object)
            for k in range(9)
        }
        assert {len(set(column)) for column in cols.values()} == {255}
        cfg = config(lca_sample_rate=1.0, lca_pair_cap=1_000)
        assert_same_as_oracle(cols, sorted(cols), cfg, 5)
        sizes = [p.size for p in candidates(
            cols, sorted(cols), cfg, np.random.default_rng(5)
        )]
        assert sizes.count(9) == 256


# ----------------------------------------------------------------------
# Whole questions at the gate's scale
# ----------------------------------------------------------------------
def ask_gate(databases, name: str, edges: int, seed: int | None = None):
    from repro.api import CajadeSession
    from repro.datasets import query_by_name

    workload = query_by_name(name)
    db, schema_graph = databases[workload.dataset]
    overrides = {} if seed is None else {"seed": seed}
    config = CajadeConfig(max_join_edges=edges, **overrides)
    session = CajadeSession(db, schema_graph, config)
    return session.explain(workload.sql, workload.question)


# (question, λ#edges, mining seed) → [pairs examined, distinct row
# pairs, patterns built], exact: the cost follows the middle number.
# Qnba4's graph 2 samples 532 of 5,320 rows, all with one code: 141,246
# of its examined pairs are one distinct row pair.
ORACLE_QUESTIONS = [
    ("Qnba4", 1, None, [150_054, 14, 10]),
    ("Qnba4", 1, 1000, [150_054, 12, 9]),
    ("Qnba3", 1, None, [70, 35, 16]),
    ("Qmimic5", 2, None, [3_149, 1_403, 269]),
]
LCA_COUNTERS = (LCA_PAIRS_EXAMINED, LCA_DISTINCT_ROW_PAIRS, LCA_PATTERNS_BUILT)


@pytest.mark.parametrize("name, edges, seed, counts", ORACLE_QUESTIONS)
def test_whole_question_equals_object_loop_oracle(
    name, edges, seed, counts, gate_databases, monkeypatch
):
    from repro.serving.frontend import canonical_payload

    coded = ask_gate(gate_databases, name, edges, seed)
    assert [coded.timer.counter(c) for c in LCA_COUNTERS] == counts
    with monkeypatch.context() as patch:
        lca_oracle_module.swap_in(patch)
        objected = ask_gate(gate_databases, name, edges, seed)
    assert canonical_payload(objected) == canonical_payload(coded)
    assert objected.timer.counter(LCA_PAIRS_EXAMINED) == counts[0]


class TestPickTopCandidates:
    def test_filters_by_recall_and_ranks(self):
        p_high = Pattern.from_dict({"a": (OP_EQ, "hi")})
        p_mid = Pattern.from_dict({"a": (OP_EQ, "mid")})
        p_low = Pattern.from_dict({"a": (OP_EQ, "lo")})
        picked = pick_top_candidates(
            [p_low, p_mid, p_high], np.array([0.05, 0.5, 0.9]), k_cat=2,
            recall_threshold=0.1,
        )
        assert picked.tolist() == [2, 1]

    def test_k_cat_truncates(self):
        patterns = [
            Pattern.from_dict({"a": (OP_EQ, f"v{i}")}) for i in range(10)
        ]
        picked = pick_top_candidates(
            patterns, np.ones(10), k_cat=3, recall_threshold=0.0
        )
        assert picked.tolist() == [0, 1, 2]  # ties: by description

    def test_all_below_threshold(self):
        patterns = [Pattern.from_dict({"a": (OP_EQ, "v")})]
        picked = pick_top_candidates(patterns, np.array([0.01]), 5, 0.5)
        assert picked.tolist() == []
