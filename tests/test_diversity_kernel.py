"""The §3.5 rerank kernel against its oracle (``tests/oracles``).

``select_diverse_top_k`` runs as an array kernel over codes that
``encode`` assigns from an interner; the greedy loop it replaced lives
in ``oracles.diversity`` and reads only ``Pattern.predicates``.  These
tests require the two to agree on picks, order and payload *identity*
over adversarial pools — encoded in one call, or block by block with
one shared interner as the session's mining memo stores them — pin the
float summation order across hash seeds, and check two real workloads
end to end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CajadeSession
from repro.core import CajadeConfig, Pattern, PatternPredicate
from repro.core.diversity import (
    EncodedPool,
    RerankInterner,
    dissimilarity,
    encode,
    select_diverse_top_k,
    wscore,
)
from repro.core.pattern import OP_EQ, OP_GE, OP_LE
from repro.datasets.workloads import query_by_name
from repro.serving import canonical_payload
from tests.oracles import diversity as oracle

settings.register_profile(
    "ci", settings(max_examples=200, deadline=None, derandomize=True)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

NAN = float("nan")
# Constants that are equal across types (1 == 1.0 == True, 0 == False),
# never equal (NaN, twice: one shared object, one fresh), or ordinary.
CONSTANTS = [1, 1.0, True, 0, False, 2, "1", "x", None, NAN, np.float64("nan"),
             float("inf"), -float("inf"), np.int64(1), np.float64(2.0)]

predicates = st.builds(
    PatternPredicate,
    st.sampled_from("abcde"),
    st.sampled_from([OP_EQ, OP_LE, OP_GE]),
    st.sampled_from(CONSTANTS),
)


@st.composite
def patterns(draw) -> Pattern:
    drawn = draw(st.lists(predicates, max_size=6))
    unique = {(p.attribute, p.op): p for p in drawn}
    return Pattern(unique.values())


# Few distinct F-scores, so exact ties (broken by describe(), then by
# input order) and near-ties of wscore are the common case.
f_scores = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5000000000000001, 0.9, 1.0])


@st.composite
def pools(draw) -> list[tuple[Pattern, float, object]]:
    base = draw(st.lists(st.tuples(patterns(), f_scores), max_size=14))
    # Duplicate some entries: the same pattern under both primaries.
    repeats = draw(st.lists(st.sampled_from(base), max_size=4)) if base else []
    return [(p, f, object()) for p, f in base + repeats]


# Equal across types (1 == 1.0 == True == np.int64(1)), never equal
# (NaN, twice) or equal only in print ("1"): every split pool carries
# them, so blocks encoded apart must still agree on equality.
MIXED = [1, 1.0, True, np.int64(1), NAN, float("nan"), "1"]


@st.composite
def split_pools(draw) -> tuple[list[list], list[int]]:
    """A pool cut into 1–6 consecutive blocks, and the order in which
    the blocks are encoded (the memo encodes graphs in trie order and
    concatenates them in graph-index order)."""
    mixed = [
        (
            Pattern.from_dict({draw(st.sampled_from("ab")): (OP_EQ, value)}),
            draw(f_scores),
            object(),
        )
        for value in MIXED
    ]
    pool = draw(st.permutations(draw(pools()) + mixed))
    n_blocks = draw(st.integers(min_value=1, max_value=6))
    cuts = sorted(draw(st.lists(
        st.integers(0, len(pool)), min_size=n_blocks - 1,
        max_size=n_blocks - 1,
    )))
    bounds = [0, *cuts, len(pool)]
    blocks = [pool[a:b] for a, b in zip(bounds, bounds[1:])]
    return blocks, draw(st.permutations(range(n_blocks)))


def same_picks(got, want) -> bool:
    return len(got) == len(want) and all(
        g[0] is w[0] and g[1] == w[1] and g[2] is w[2]
        for g, w in zip(got, want)
    )


class TestKernelMatchesOracle:
    @given(pool=pools(), k=st.integers(min_value=1, max_value=20))
    @settings(max_examples=300, deadline=None)
    def test_picks_order_and_payload_identity(self, pool, k):
        assert same_picks(
            select_diverse_top_k(pool, k), oracle.select_diverse_top_k(pool, k)
        )

    @given(split=split_pools(), k=st.integers(min_value=1, max_value=20))
    @settings(max_examples=300, deadline=None)
    def test_blocks_encoded_apart_select_like_the_oracle(self, split, k):
        blocks, encode_order = split
        interner = RerankInterner()
        encoded = [None] * len(blocks)
        for b in encode_order:
            encoded[b] = encode(blocks[b], interner)
        pool = EncodedPool.concat(encoded, interner)
        whole = [c for block in blocks for c in block]
        want = oracle.select_diverse_top_k(whole, k)
        assert same_picks(select_diverse_top_k(pool, k), want)
        # Without diversity the answer is the head of the ranked order.
        ranked = sorted(whole, key=lambda c: (-c[1], oracle.describe(c[0])))
        assert same_picks([pool[i] for i in pool.ranked().tolist()], ranked)

    def test_concat_refuses_another_interners_codes(self):
        pool = [(Pattern.from_dict({"a": (OP_EQ, 1)}), 0.5, "x")]
        with pytest.raises(ValueError, match="interner"):
            EncodedPool.concat(
                [encode(pool, RerankInterner())], RerankInterner()
            )

    @given(phi=patterns(), other=patterns())
    @settings(max_examples=200, deadline=None)
    def test_scalar_definition_matches_oracle(self, phi, other):
        assert dissimilarity(phi, other) == oracle.dissimilarity(phi, other)
        assert wscore(phi, 0.5, [other, phi]) == oracle.wscore(
            phi, 0.5, [other, phi]
        )

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_tiny_pools(self, n, k):
        pool = [
            (Pattern.from_dict({"a": (OP_EQ, i)}), 0.5, object())
            for i in range(n)
        ]
        assert same_picks(
            select_diverse_top_k(pool, k), oracle.select_diverse_top_k(pool, k)
        )

    def test_empty_pattern_is_maximally_distant(self):
        pool = [
            (Pattern.from_dict({"a": (OP_EQ, "x")}), 0.9, "seed"),
            (Pattern.from_dict({"a": (OP_EQ, "y")}), 0.8, "near"),
            (Pattern(), 0.1, "empty"),
        ]
        # wscore: near = 0.8 − 0.3, empty = 0.1 + 1.0.
        assert [c[2] for c in select_diverse_top_k(pool, 2)] == ["seed", "empty"]

    def test_equal_constants_of_mixed_type(self):
        pool = [
            (Pattern.from_dict({"a": (OP_EQ, 1)}), 0.9, "int"),
            (Pattern.from_dict({"a": (OP_EQ, 1.0)}), 0.8, "float"),
            (Pattern.from_dict({"a": (OP_GE, True)}), 0.8, "bool"),
            (Pattern.from_dict({"a": (OP_EQ, "1")}), 0.1, "text"),
        ]
        got = select_diverse_top_k(pool, 4)
        assert same_picks(got, oracle.select_diverse_top_k(pool, 4))
        # "1" differs from 1 (0.1 − 0.3); 1.0 and True equal it (0.8 − 2).
        assert [c[2] for c in got][:2] == ["int", "text"]

    def test_nan_never_equals_even_itself(self):
        shared = Pattern.from_dict({"a": (OP_EQ, NAN)})
        assert dissimilarity(shared, shared) == -0.3
        pool = [(shared, 0.9, 1), (shared, 0.9, 2), (shared, 0.2, 3)]
        got = select_diverse_top_k(pool, 3)
        assert same_picks(got, oracle.select_diverse_top_k(pool, 3))

    def test_first_predicate_supplies_the_value(self):
        # a carries <= and >=; "<=" sorts first, so value_of(a) is 5.
        both = Pattern.from_dict({"b": (OP_EQ, "q")}).refined("a", OP_GE, 1)
        both = both.refined("a", OP_LE, 5)
        assert both.value_of("a") == 5 and both.size == 2
        pool = [
            (both, 0.9, "both"),
            (Pattern.from_dict({"a": (OP_EQ, 1)}), 0.8, "ge-constant"),
            (Pattern.from_dict({"a": (OP_EQ, 5)}), 0.8, "le-constant"),
        ]
        got = select_diverse_top_k(pool, 2)
        assert same_picks(got, oracle.select_diverse_top_k(pool, 2))
        assert [c[2] for c in got] == ["both", "ge-constant"]


# ----------------------------------------------------------------------
# Determinism: one summation order, whatever the hash seed
# ----------------------------------------------------------------------
_SEED_SCRIPT = """
import itertools, json
from repro.core import Pattern, PatternPredicate
from repro.core.diversity import dissimilarity, select_diverse_top_k

names = ["season", "team", "pts", "home", "away", "player_name", "age"]
def pattern(constants):
    return Pattern(PatternPredicate(a, "=", v) for a, v in constants)

out = []
for free, differs, same in itertools.permutations(names, 3):
    # Against `chosen`, phi scores +1, -0.3 and -2: their float sum over
    # 3 is -0.43333333333333335 or -0.4333333333333333 by order.
    built = [(free, "x"), (differs, "x"), (same, "x")]
    phi, reversed_phi = pattern(built), pattern(built[::-1])
    chosen = pattern([(same, "x"), (differs, "y")])
    # Ties with phi under one order of addition, wins under the other.
    rival = pattern([(same, "x"), ("zz", "x")])
    distances = {dissimilarity(p, chosen).hex() for p in (phi, reversed_phi)}
    picks = {
        tuple(c[2] for c in select_diverse_top_k(
            [(chosen, 0.9, "chosen"), (p, 0.5, "phi"),
             (rival, 0.5 + (-0.4333333333333333 - -0.5), "rival")], 2))
        for p in (phi, reversed_phi)
    }
    out.append([sorted(distances), sorted(picks)])
print(json.dumps(out))
"""


def test_scores_and_picks_identical_across_hash_seeds_and_build_orders():
    """Fails on a set-ordered sum: 210 attribute triples, two seeds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _SEED_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1]
    # Predicate construction order never matters: one distance, one pick.
    assert all(len(d) == 1 and len(p) == 1 for d, p in runs[0])
    # Both near-tie outcomes occur, so the pool really sits on the edge.
    assert {p[0][1] for _d, p in runs[0]} == {"phi", "rival"}


def test_summation_order_is_predicate_order():
    # +1, −0.3, −2 over three attributes: the quotient's last bit
    # depends on which score is added first.
    assert (1.0 + -0.3 + -2.0) / 3 != (-2.0 + -0.3 + 1.0) / 3
    phi = Pattern.from_dict({a: (OP_EQ, 1) for a in "abc"})
    free_first = Pattern.from_dict({"b": (OP_EQ, 0), "c": (OP_EQ, 1)})
    free_last = Pattern.from_dict({"a": (OP_EQ, 1), "b": (OP_EQ, 0)})
    assert dissimilarity(phi, free_first) == (1.0 + -0.3 + -2.0) / 3
    assert dissimilarity(phi, free_last) == (-2.0 + -0.3 + 1.0) / 3
    for chosen in (free_first, free_last):
        assert dissimilarity(phi, chosen) == oracle.dissimilarity(phi, chosen)


# ----------------------------------------------------------------------
# Golden: real answers equal the oracle-reranked answers end to end
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name, fixture", [("Qnba5", "nba_small"), ("Qmimic5", "mimic_small")]
)
def test_workload_answer_equals_oracle_reranked_answer(
    name, fixture, request, monkeypatch
):
    db, schema_graph = request.getfixturevalue(fixture)
    workload = query_by_name(name)
    config = CajadeConfig(max_join_edges=2)

    def answer() -> bytes:
        session = CajadeSession(db, schema_graph, config)
        return canonical_payload(session.explain(workload.sql, workload.question))

    kernel = answer()
    # Both call sites look the name up in their module at call time.
    monkeypatch.setattr(
        "repro.core.mining.select_diverse_top_k", oracle.select_diverse_top_k
    )
    monkeypatch.setattr(
        "repro.api.session.select_diverse_top_k", oracle.select_diverse_top_k
    )
    assert answer() == kernel
