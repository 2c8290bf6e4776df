"""Unit tests for LCA candidate generation (§3.2).

Covers the code-based generation on kernel dictionary codes and its
equivalence with the object-loop oracle (``tests/oracles/lca.py``): same
candidate list (hypothesis property, incl. NULL cells, the sampled-pair
cap path and singleton rows) from the same rng trajectory.
"""

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
    LCA_PAIRS_EXAMINED,
    LCA_PATTERNS_BUILT,
    LCA_PEAK_CHUNK_BYTES,
    StepTimer,
)
from repro.db.errors import SchemaError
from tests.conftest import kernel_of
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


def test_peak_chunk_bytes_is_the_max_over_a_questions_graphs(
    gate_databases, monkeypatch
):
    """Qmimic5 λ#edges 2 (25 graphs): the answer's gauge is the largest
    chunk any of its graphs built, not the last graph's."""
    import repro.api.session as session_module
    from repro.api import CajadeSession
    from repro.datasets import query_by_name

    workload = query_by_name("Qmimic5")
    db, schema_graph = gate_databases[workload.dataset]

    def ask():
        session = CajadeSession(
            db, schema_graph, CajadeConfig(max_join_edges=2)
        )
        return session.explain(workload.sql, workload.question)

    question = ask().timer.counter(LCA_PEAK_CHUNK_BYTES)

    alone = []
    real = session_module.mine_apt

    def mined_alone(*args, timer, **kwargs):
        alone.append(StepTimer())
        return real(*args, timer=alone[-1], **kwargs)

    monkeypatch.setattr(session_module, "mine_apt", mined_alone)
    ask()
    peaks = [timer.counter(LCA_PEAK_CHUNK_BYTES) for timer in alone]
    assert len(peaks) == 25 and peaks[-1] < max(peaks)
    assert question == max(peaks) == 6864
