"""The join core against the definition of an equi-join.

Every APT plan join step of ``MaterializationEngine`` is
:meth:`IndexFrame.join`, the ``join_row_indices`` hash core on index
vectors.  Over generated
adversarial relation pairs — NULL keys (``None`` → NaN-promoted ints),
``-1`` sentinel keys, float NaN, mixed int/float keys beyond 2**53,
empty sides, self-joins, duplicate-heavy domains, single-row and
all-equal inputs, chained 3-way joins — it is checked two ways:

- rows, order, schema and gathered bytes equal
  :func:`repro.db.executor.hash_join` over the materialized sides (the
  eager pipeline of ``tests/oracles/eager.py``);
- the multiset of matched row pairs equals a nested loop written from
  the definition: a NULL or NaN key never matches, any other pair of
  keys matches when Python ``==`` says so.

CI runs this file under a fixed deterministic hypothesis profile
(``HYPOTHESIS_PROFILE=ci``): derandomized, raised example count.
"""

from __future__ import annotations

import math
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import ColumnType, Relation, TableSchema
from repro.db.errors import ExecutionError
from repro.db.frame import IndexFrame
from tests.oracles.eager import hash_join
from tests.test_engine import assert_relations_identical

# Deterministic raised-example profile for the CI differential step;
# the default profile stays in charge for local runs.
settings.register_profile(
    "ci", settings(max_examples=200, deadline=None, derandomize=True)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Tiny domains force duplicate-heavy keys; None exercises NULL handling
# (INT columns with None are NaN-promoted to float64 at load); -1 is the
# adversarial sentinel that must never alias the encoder's NULL code.
INT_KEYS = st.one_of(st.none(), st.integers(min_value=-1, max_value=4))
TEXT_KEYS = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d"]))
FLOAT_KEYS = st.one_of(
    st.none(),
    st.just(math.nan),
    st.sampled_from([-2.0, 0.0, 1.0, 1.5, math.inf]),
)
# Mixed-dtype probes: small ints cast to float losslessly; ints beyond
# 2**53 do not, and must still compare exactly.
BIG = 2**53
MIXED_INTS = st.one_of(
    st.integers(min_value=-1, max_value=4),
    st.sampled_from([BIG + 1, BIG + 3, -BIG - 1]),
)


def _relation(name: str, cols: dict[str, ColumnType], rows) -> Relation:
    return Relation.from_rows(TableSchema.build(name, cols), rows)


def _probe_rel(keys, ctype=ColumnType.INT) -> Relation:
    return _relation(
        "p",
        {"p.k": ctype, "p.payload": ColumnType.INT},
        [(k, i) for i, k in enumerate(keys)],
    )


def _build_rel(keys, ctype=ColumnType.INT) -> Relation:
    return _relation(
        "b",
        {"b.k": ctype, "b.tag": ColumnType.INT},
        [(k, 100 + i) for i, k in enumerate(keys)],
    )


def _source_rows(frame: IndexFrame) -> list[list[int]]:
    """Each source's row vector as Python ints (identity spelled out)."""
    return [
        list(range(frame.num_rows)) if idx is None else idx.tolist()
        for idx in frame.rows
    ]


def _keys_match(left, right) -> bool:
    """Equi-join key equality by definition: NULL and NaN never match."""

    def null(value) -> bool:
        return value is None or (isinstance(value, float) and math.isnan(value))

    return not null(left) and not null(right) and left == right


def pairs_by_definition(
    frame: IndexFrame, context: Relation, conditions
) -> Counter:
    """Matched (probe source rows, context row) pairs by a nested loop."""
    left_keys = [frame.column(lc).tolist() for lc, _ in conditions]
    right_keys = [context.column(rc).tolist() for _, rc in conditions]
    probe_rows = list(zip(*_source_rows(frame)))
    return Counter(
        (probe_rows[i], j)
        for i in range(frame.num_rows)
        for j in range(context.num_rows)
        if all(
            _keys_match(lk[i], rk[j]) for lk, rk in zip(left_keys, right_keys)
        )
    )


def pairs_of(result: IndexFrame, probe_sources: int) -> Counter:
    """The same pairs read off a join result's row vectors."""
    rows = _source_rows(result)
    return Counter(
        (tuple(r[k] for r in rows[:probe_sources]), rows[probe_sources][k])
        for k in range(result.num_rows)
    )


def assert_join_by_definition(
    frame: IndexFrame, context: Relation, conditions
) -> IndexFrame:
    """``frame.join(context)`` ≡ eager ``hash_join`` (rows, order, bytes)
    and ≡ the nested-loop definition (matched pairs).  Returns the join
    so callers can chain."""
    result = frame.join(context, list(conditions))
    reference = hash_join(frame.to_relation(), context, list(conditions))
    assert_relations_identical(result.to_relation(), reference)
    assert pairs_of(result, len(frame.sources)) == pairs_by_definition(
        frame, context, conditions
    )
    return result


# ----------------------------------------------------------------------
# Generated adversarial pairs (the differential harness proper)
# ----------------------------------------------------------------------
@given(
    probe=st.lists(INT_KEYS, max_size=12),
    build=st.lists(INT_KEYS, max_size=12),
)
@settings(deadline=None)
def test_int_keys_differential(probe, build):
    assert_join_by_definition(
        IndexFrame.from_relation(_probe_rel(probe)),
        _build_rel(build),
        [("p.k", "b.k")],
    )


@given(
    probe=st.lists(TEXT_KEYS, max_size=12),
    build=st.lists(TEXT_KEYS, max_size=12),
)
@settings(deadline=None)
def test_text_keys_differential(probe, build):
    assert_join_by_definition(
        IndexFrame.from_relation(_probe_rel(probe, ColumnType.TEXT)),
        _build_rel(build, ColumnType.TEXT),
        [("p.k", "b.k")],
    )


@given(
    probe=st.lists(FLOAT_KEYS, max_size=12),
    build=st.lists(FLOAT_KEYS, max_size=12),
)
@settings(deadline=None)
def test_float_nan_differential(probe, build):
    assert_join_by_definition(
        IndexFrame.from_relation(_probe_rel(probe, ColumnType.FLOAT)),
        _build_rel(build, ColumnType.FLOAT),
        [("p.k", "b.k")],
    )


@given(
    probe=st.lists(MIXED_INTS, min_size=1, max_size=12),
    build=st.lists(FLOAT_KEYS, max_size=8),
)
@settings(deadline=None)
def test_mixed_dtype_differential(probe, build):
    """int64 probe against float64 build: an int beyond 2**53 equals no
    float it would round to (Python ``==`` is exact across the two)."""
    assert_join_by_definition(
        IndexFrame.from_relation(_probe_rel(probe, ColumnType.INT)),
        _build_rel(build, ColumnType.FLOAT),
        [("p.k", "b.k")],
    )


@given(keys=st.lists(TEXT_KEYS, min_size=1, max_size=8))
@settings(deadline=None)
def test_self_join_differential(keys):
    """Self-join through a duplicated probe frame: the context is a
    column-prefixed alias sharing the base table's arrays, and the
    probe side's row vectors are non-identity."""
    base = _probe_rel(keys, ColumnType.TEXT)
    context = base.prefix_columns("r_")
    n = base.num_rows
    frame = IndexFrame.from_relation(base).select(
        np.concatenate([np.arange(n), np.arange(n)])
    )
    assert_join_by_definition(frame, context, [("p.k", "r_p.k")])


@given(
    probe=st.lists(
        st.tuples(INT_KEYS, TEXT_KEYS), min_size=0, max_size=10
    ),
    build1=st.lists(INT_KEYS, max_size=6),
    build2=st.lists(TEXT_KEYS, max_size=6),
)
@settings(deadline=None)
def test_chained_three_way_differential(probe, build1, build2):
    """A 3-way chain p ⋈ b1 ⋈ b2 as the engine runs it: the second step
    probes an already joined frame, int32-compacted the way the trie
    caches it."""
    probe_rel = _relation(
        "p",
        {"p.k1": ColumnType.INT, "p.k2": ColumnType.TEXT},
        probe,
    )
    b1 = _relation(
        "b1", {"b1.k": ColumnType.INT}, [(k,) for k in build1]
    )
    b2 = _relation(
        "b2", {"b2.k": ColumnType.TEXT}, [(k,) for k in build2]
    )
    step1 = assert_join_by_definition(
        IndexFrame.from_relation(probe_rel), b1, [("p.k1", "b1.k")]
    ).compact()
    assert all(idx.dtype == np.int32 for idx in step1.rows)
    step2 = assert_join_by_definition(step1, b2, [("p.k2", "b2.k")])
    eager = hash_join(
        hash_join(probe_rel, b1, [("p.k1", "b1.k")]), b2, [("p.k2", "b2.k")]
    )
    assert_relations_identical(step2.to_relation(), eager)


@given(
    rows=st.lists(st.tuples(INT_KEYS, TEXT_KEYS), max_size=10),
    build=st.lists(st.tuples(INT_KEYS, TEXT_KEYS), max_size=6),
)
@settings(deadline=None)
def test_two_column_key_differential(rows, build):
    """A conjunctive key: a pair matches only when every column does."""
    assert_join_by_definition(
        IndexFrame.from_relation(
            _relation("p", {"p.a": ColumnType.INT, "p.b": ColumnType.TEXT}, rows)
        ),
        _relation("b", {"b.a": ColumnType.INT, "b.b": ColumnType.TEXT}, build),
        [("p.a", "b.a"), ("p.b", "b.b")],
    )


# ----------------------------------------------------------------------
# Explicit edge shapes (deterministic, not left to generation luck)
# ----------------------------------------------------------------------
EDGE_CASES = [
    ("empty_probe", [], [1, 2, 3]),
    ("empty_build", [1, 2, 3, 4], []),
    ("both_empty", [], []),
    ("single_row_each", [2], [2]),
    ("single_row_miss", [2], [3]),
    ("all_equal", [1, 1, 1, 1], [1, 1]),
    ("all_null", [None, None, None], [None, None]),
    ("null_vs_values", [None, 1, None, 2], [1, None]),
    ("sentinel_minus_one", [-1, 0, -1, 5], [-1, -1, 0]),
]


@pytest.mark.parametrize(
    "probe,build", [(p, b) for _, p, b in EDGE_CASES],
    ids=[name for name, _, _ in EDGE_CASES],
)
def test_edge_shapes(probe, build):
    assert_join_by_definition(
        IndexFrame.from_relation(_probe_rel(probe)),
        _build_rel(build),
        [("p.k", "b.k")],
    )


def test_compact_keeps_values():
    """``compact`` changes the row vectors' width, never their values."""
    frame = IndexFrame.from_relation(_probe_rel([1, 2, 2, None])).join(
        _build_rel([2, 1, 2]), [("p.k", "b.k")]
    )
    compact = frame.compact()
    assert all(idx.dtype == np.int32 for idx in compact.rows)
    assert compact.compact() is compact
    for wide, narrow in zip(frame.rows, compact.rows):
        assert np.array_equal(wide, narrow)
    assert_relations_identical(compact.to_relation(), frame.to_relation())


JOIN_PATHS = {
    "hash": lambda probe, build, conditions: hash_join(
        probe.to_relation(), build, conditions
    ),
    "index-frame": lambda probe, build, conditions: probe.join(
        build, conditions
    ),
}


@pytest.mark.parametrize("path", sorted(JOIN_PATHS))
def test_error_equivalence(path):
    """The frame join and the eager one raise the same errors."""
    probe = IndexFrame.from_relation(_probe_rel([1, 2, 3]))
    join = JOIN_PATHS[path]
    with pytest.raises(ExecutionError, match="at least one condition"):
        join(probe, _build_rel([1]), [])
    with pytest.raises(ExecutionError, match="duplicate columns"):
        join(probe, _probe_rel([9]), [("p.k", "p.k")])
