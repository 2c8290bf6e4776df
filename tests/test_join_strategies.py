"""Differential join-testing harness for the sorted-window join step.

:class:`~repro.db.window_join.SortedWindowStrategy` — the one executor of
APT plan join steps, which picks per step between searchsorted windows
and the hash core — is tested against :meth:`IndexFrame.join` (the shared
``join_row_indices`` hash core) as an oracle: over generated adversarial
relation pairs — NULL keys (``None`` → NaN-promoted ints), ``-1``
sentinel keys, float NaN, empty sides, self-joins, duplicate-heavy
domains, single-row and all-equal inputs, chained 3-way joins — the
challenger must produce the *same row-index vectors in the same order*,
the same schema, and byte-identical gathered relations.  A further join
path would be one more entry in ``CHALLENGERS``.

The module also property-tests the shared :class:`SortIndex` layer
(stability, idempotence, inheritance through rename/project/prefix,
registry dedup, rebuild-after-copy, translation semantics) and the
:class:`WindowEntry` cache value (expand round-trip, shared-byte
accounting protocol).

CI runs this file under a fixed deterministic hypothesis profile
(``HYPOTHESIS_PROFILE=ci``): derandomized, raised example count.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import ColumnType, Relation, TableSchema
from repro.db.errors import ExecutionError, SchemaError
from repro.db.frame import IndexFrame
from repro.db.relation import build_sort_index
from repro.db.window_join import SortedWindowStrategy, WindowEntry
from tests.test_engine import assert_relations_identical

# Deterministic raised-example profile for the CI differential step;
# the default profile stays in charge for local runs.
settings.register_profile(
    "ci", settings(max_examples=200, deadline=None, derandomize=True)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


class HashCore:
    """The oracle behind the challengers' ``join_frame`` signature."""

    def join_frame(self, frame, context, conditions):
        result = frame.join(context, list(conditions))
        return result, result


# Every join path that must match the hash oracle, by test-id name.
CHALLENGERS = {"sorted-window": SortedWindowStrategy}
JOIN_PATHS = {"hash": HashCore, **CHALLENGERS}

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
# 2**53 defeat the cast and must route to the core's object path.
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


def _materialized_rows(frame: IndexFrame) -> list[np.ndarray]:
    return [
        np.arange(frame.num_rows, dtype=np.int64)
        if idx is None
        else np.asarray(idx, dtype=np.int64)
        for idx in frame.rows
    ]


def assert_join_equivalent(
    strategy_name: str,
    frame: IndexFrame,
    context: Relation,
    conditions: list[tuple[str, str]],
) -> IndexFrame:
    """The oracle: strategy result ≡ hash-core result, byte for byte.

    Checks schema, row count, per-source row-index vectors (order
    included; dtype-agnostic, since strategies may compact to int32),
    gathered relation bytes, and — when the strategy cached a
    :class:`WindowEntry` — that re-expanding the cached entry (the
    cache-hit path) reproduces the same rows.  Returns the strategy's
    result frame so callers can chain joins.
    """
    reference = frame.join(context, list(conditions))
    strategy = CHALLENGERS[strategy_name]()
    result, cache_value = strategy.join_frame(frame, context, list(conditions))

    assert result.column_names == reference.column_names
    assert result.num_rows == reference.num_rows
    got_rows = _materialized_rows(result)
    want_rows = _materialized_rows(reference)
    assert len(got_rows) == len(want_rows)
    for got, want in zip(got_rows, want_rows):
        assert np.array_equal(got, want)
    assert_relations_identical(result.to_relation(), reference.to_relation())

    if isinstance(cache_value, WindowEntry):
        replay = cache_value.expand()
        for got, want in zip(_materialized_rows(replay), want_rows):
            assert np.array_equal(got, want)
    return result


# ----------------------------------------------------------------------
# Generated adversarial pairs (the differential harness proper)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", CHALLENGERS)
@given(
    probe=st.lists(INT_KEYS, max_size=12),
    build=st.lists(INT_KEYS, max_size=12),
)
@settings(deadline=None)
def test_int_keys_differential(strategy, probe, build):
    assert_join_equivalent(
        strategy,
        IndexFrame.from_relation(_probe_rel(probe)),
        _build_rel(build),
        [("p.k", "b.k")],
    )


@pytest.mark.parametrize("strategy", CHALLENGERS)
@given(
    probe=st.lists(TEXT_KEYS, max_size=12),
    build=st.lists(TEXT_KEYS, max_size=12),
)
@settings(deadline=None)
def test_text_keys_differential(strategy, probe, build):
    assert_join_equivalent(
        strategy,
        IndexFrame.from_relation(_probe_rel(probe, ColumnType.TEXT)),
        _build_rel(build, ColumnType.TEXT),
        [("p.k", "b.k")],
    )


@pytest.mark.parametrize("strategy", CHALLENGERS)
@given(
    probe=st.lists(FLOAT_KEYS, max_size=12),
    build=st.lists(FLOAT_KEYS, max_size=12),
)
@settings(deadline=None)
def test_float_nan_differential(strategy, probe, build):
    assert_join_equivalent(
        strategy,
        IndexFrame.from_relation(_probe_rel(probe, ColumnType.FLOAT)),
        _build_rel(build, ColumnType.FLOAT),
        [("p.k", "b.k")],
    )


@pytest.mark.parametrize("strategy", CHALLENGERS)
@given(
    probe=st.lists(MIXED_INTS, min_size=1, max_size=12),
    build=st.lists(FLOAT_KEYS, max_size=8),
)
@settings(deadline=None)
def test_mixed_dtype_differential(strategy, probe, build):
    """int64 probe against float64 build: the float-cast guard must
    route unsafe (> 2**53) probes to the core, safely-castable ones
    through the window, and both must match the oracle."""
    assert_join_equivalent(
        strategy,
        IndexFrame.from_relation(_probe_rel(probe, ColumnType.INT)),
        _build_rel(build, ColumnType.FLOAT),
        [("p.k", "b.k")],
    )


@pytest.mark.parametrize("strategy", CHALLENGERS)
@given(keys=st.lists(TEXT_KEYS, min_size=1, max_size=8))
@settings(deadline=None)
def test_self_join_differential(strategy, keys):
    """Self-join through a duplicated probe frame: the context is a
    column-prefixed alias sharing the base table's arrays, and the
    probe side's row vectors are non-identity."""
    base = _probe_rel(keys, ColumnType.TEXT)
    context = base.prefix_columns("r_")
    n = base.num_rows
    frame = IndexFrame.from_relation(base).select(
        np.concatenate([np.arange(n), np.arange(n)])
    )
    assert_join_equivalent(strategy, frame, context, [("p.k", "r_p.k")])


@pytest.mark.parametrize("strategy", CHALLENGERS)
@given(
    probe=st.lists(
        st.tuples(INT_KEYS, TEXT_KEYS), min_size=0, max_size=10
    ),
    build1=st.lists(INT_KEYS, max_size=6),
    build2=st.lists(TEXT_KEYS, max_size=6),
)
@settings(deadline=None)
def test_chained_three_way_differential(strategy, probe, build1, build2):
    """A 3-way chain p ⋈ b1 ⋈ b2: the second step probes an already
    joined frame (composed row vectors, possibly int32-compacted)."""
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
    reference = (
        IndexFrame.from_relation(probe_rel)
        .join(b1, [("p.k1", "b1.k")])
        .join(b2, [("p.k2", "b2.k")])
    )
    challenger = CHALLENGERS[strategy]()
    step1, _ = challenger.join_frame(
        IndexFrame.from_relation(probe_rel), b1, [("p.k1", "b1.k")]
    )
    step2, _ = challenger.join_frame(step1, b2, [("p.k2", "b2.k")])
    assert step2.column_names == reference.column_names
    for got, want in zip(
        _materialized_rows(step2), _materialized_rows(reference)
    ):
        assert np.array_equal(got, want)
    assert_relations_identical(step2.to_relation(), reference.to_relation())


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


@pytest.mark.parametrize("strategy", CHALLENGERS)
@pytest.mark.parametrize(
    "probe,build", [(p, b) for _, p, b in EDGE_CASES],
    ids=[name for name, _, _ in EDGE_CASES],
)
def test_edge_shapes(strategy, probe, build):
    assert_join_equivalent(
        strategy,
        IndexFrame.from_relation(_probe_rel(probe)),
        _build_rel(build),
        [("p.k", "b.k")],
    )


@pytest.mark.parametrize("strategy", sorted(JOIN_PATHS))
def test_error_equivalence(strategy):
    """Both join paths raise the core's errors, same type and message."""
    probe = IndexFrame.from_relation(_probe_rel([1, 2, 3]))
    build = _build_rel([1])
    challenger = JOIN_PATHS[strategy]()
    with pytest.raises(ExecutionError, match="at least one condition"):
        challenger.join_frame(probe, build, [])
    with pytest.raises(ExecutionError, match="duplicate columns"):
        challenger.join_frame(probe, _probe_rel([9]), [("p.k", "p.k")])


# ----------------------------------------------------------------------
# Window fast path: counters, cache-entry shape, reuse accounting
# ----------------------------------------------------------------------
class TestSortedWindowPath:
    def test_fast_path_taken_and_counted(self):
        probe = _probe_rel(["a", "b", "b", None, "c", "z"], ColumnType.TEXT)
        build = _build_rel(["a", "b", "c", "d"], ColumnType.TEXT)
        strategy = SortedWindowStrategy()
        result, entry = strategy.join_frame(
            IndexFrame.from_relation(probe), build, [("p.k", "b.k")]
        )
        assert isinstance(entry, WindowEntry)
        assert strategy.stats.windows_built == 1
        assert strategy.stats.searchsorted_probes == probe.num_rows
        assert strategy.stats.fallback_joins == 0
        assert strategy.stats.permutation_reuses == 0
        # a, b, b, c each match exactly one build row; None and "z" none.
        assert result.num_rows == 4
        # Marginal bytes are the windows + probe row vectors; the
        # permutation is declared shared under the index's token.
        index = build.sort_index("b.k")
        assert entry.shared_components == ((index.token, index.nbytes),)
        assert entry.own_bytes == entry.lo.nbytes + entry.hi.nbytes + sum(
            idx.nbytes for idx in entry.rows if idx is not None
        )
        assert entry.estimated_bytes == entry.own_bytes + index.nbytes

    def test_permutation_reuse_counter(self):
        build = _build_rel(["a", "b", "c"], ColumnType.TEXT)
        strategy = SortedWindowStrategy()
        for _ in range(3):
            strategy.join_frame(
                IndexFrame.from_relation(
                    _probe_rel(["a", "a", "b", "x"], ColumnType.TEXT)
                ),
                build,
                [("p.k", "b.k")],
            )
        assert strategy.stats.windows_built == 3
        assert strategy.stats.permutation_reuses == 2

    def test_swap_rule_mirrored(self):
        """context >= probe rows: the core would build on the *probe*
        side, so the window path must decline (fallback), not reorder."""
        probe = _probe_rel(["a", "b"], ColumnType.TEXT)
        build = _build_rel(["a", "a", "b"], ColumnType.TEXT)
        strategy = SortedWindowStrategy()
        result, entry = strategy.join_frame(
            IndexFrame.from_relation(probe), build, [("p.k", "b.k")]
        )
        assert not isinstance(entry, WindowEntry)
        assert strategy.stats.fallback_joins == 1
        assert strategy.stats.windows_built == 0
        reference = IndexFrame.from_relation(probe).join(
            build, [("p.k", "b.k")]
        )
        assert_relations_identical(
            result.to_relation(), reference.to_relation()
        )

    def test_fallback_frames_compacted(self):
        probe = _probe_rel([1, 2], ColumnType.INT)
        build = _build_rel([1, 2, 2], ColumnType.INT)
        strategy = SortedWindowStrategy()
        result, _ = strategy.join_frame(
            IndexFrame.from_relation(probe), build, [("p.k", "b.k")]
        )
        assert all(
            idx is None or idx.dtype == np.int32 for idx in result.rows
        )

    def test_multi_condition_falls_back(self):
        probe = _relation(
            "p",
            {"p.a": ColumnType.INT, "p.b": ColumnType.INT},
            [(1, 1), (2, 2), (1, 2)],
        )
        build = _relation(
            "b", {"b.a": ColumnType.INT, "b.b": ColumnType.INT}, [(1, 1)]
        )
        strategy = SortedWindowStrategy()
        conditions = [("p.a", "b.a"), ("p.b", "b.b")]
        result, entry = strategy.join_frame(
            IndexFrame.from_relation(probe), build, conditions
        )
        assert not isinstance(entry, WindowEntry)
        assert strategy.stats.fallback_joins == 1
        reference = IndexFrame.from_relation(probe).join(build, conditions)
        assert_relations_identical(
            result.to_relation(), reference.to_relation()
        )


# ----------------------------------------------------------------------
# SortIndex properties
# ----------------------------------------------------------------------
class TestSortIndex:
    def test_stable_permutation_text(self):
        rel = _build_rel(
            ["b", "a", None, "b", "a", None, "c"], ColumnType.TEXT
        )
        index = rel.sort_index("b.k")
        assert index is not None
        keys = index.keys
        assert np.all(keys[:-1] <= keys[1:])  # sorted (NULL run first)
        # Stability: within every equal-key group, row order ascends.
        for code in np.unique(keys):
            group = index.perm[keys == code]
            assert np.all(group[:-1] < group[1:])
        assert index.n_valid == rel.num_rows

    def test_numeric_nan_bounds_n_valid(self):
        rel = _build_rel(
            [2.0, math.nan, 0.5, math.nan, -1.0], ColumnType.FLOAT
        )
        index = rel.sort_index("b.k")
        assert index is not None
        assert index.n_valid == 3  # two NaNs sort to the tail
        domain = index.keys[: index.n_valid]
        assert np.all(domain[:-1] <= domain[1:])
        assert not np.isnan(domain).any()
        assert np.isnan(index.keys[index.n_valid :]).all()

    def test_idempotent_per_relation(self):
        rel = _build_rel([3, 1, 2])
        assert rel.sort_index("b.k") is rel.sort_index("b.k")

    def test_inherited_through_derivations(self):
        rel = _build_rel(["x", "y", "x"], ColumnType.TEXT)
        index = rel.sort_index("b.k")
        assert rel.rename("alias").sort_index("b.k") is index
        assert rel.project(["b.k"]).sort_index("b.k") is index
        assert rel.prefix_columns("q_").sort_index("q_b.k") is index

    def test_registry_dedup_across_independent_aliases(self):
        """Aliases derived *before* any index exists still share one
        permutation: the process-wide registry keys on array identity,
        not on inheritance order."""
        rel = _build_rel(["x", "y", "x", "z"], ColumnType.TEXT)
        alias_a = rel.rename("a")
        alias_b = rel.rename("b")
        index_a = alias_a.sort_index("b.k")
        assert index_a is not None
        assert alias_b.sort_index("b.k") is index_a
        assert rel.sort_index("b.k") is index_a

    def test_rebuilt_after_array_copies(self):
        """take/concat copy their arrays, so a stale permutation must
        never be reused — a fresh (distinct-token) index is built over
        the new codes."""
        rel = _build_rel([5, 1, 4, 2])
        index = rel.sort_index("b.k")
        taken = rel.take(np.array([2, 0, 1]))
        taken_index = taken.sort_index("b.k")
        assert taken_index is not None
        assert taken_index is not index
        assert taken_index.token != index.token
        assert np.array_equal(
            taken.column("b.k")[taken_index.perm],
            np.sort(taken.column("b.k")),
        )
        doubled = rel.concat(rel)
        doubled_index = doubled.sort_index("b.k")
        assert doubled_index is not None
        assert doubled_index is not index

    def test_translation_boxed_equality_and_misses(self):
        """Translation is by value: equal strings share a build code
        whatever their probe code; None — on either side — and absent
        values map to -1."""
        build = _build_rel(["one", "two", None, "3.5"], ColumnType.TEXT)
        probe = _probe_rel(
            ["3.5", "two", None, "absent", "one"], ColumnType.TEXT
        )
        index = build.sort_index("b.k")
        assert index is not None
        probe_encoding = probe.encoding("p.k")
        table = index.translation(probe_encoding)
        build_codes = table[probe_encoding.codes]
        assert build_codes[0] == index.encoding.code_of["3.5"]
        assert build_codes[1] == index.encoding.code_of["two"]
        assert build_codes[2] == -1  # NULL never matches, not even NULL
        assert build_codes[3] == -1  # absent from the build side
        assert build_codes[4] == index.encoding.code_of["one"]
        # Memoized per probe encoding.
        assert index.translation(probe_encoding) is table

    def test_unencodable_column_has_no_index(self):
        """A TEXT column holding a list has neither codes nor an index:
        asking for one is a SchemaError naming the column (it used to be
        ``None`` and a silent fall-back to the hash core)."""
        cells = np.empty(2, dtype=object)
        cells[0], cells[1] = [1, 2], "ok"
        rel = Relation(
            TableSchema.build("t", {"t.k": ColumnType.TEXT}), {"t.k": cells}
        )
        with pytest.raises(SchemaError, match=r"t\.t\.k"):
            rel.sort_index("t.k")

    def test_build_sort_index_rejects_exotic_dtypes(self):
        assert build_sort_index(np.zeros(3, dtype=np.complex128), None) is None
        assert (
            build_sort_index(np.zeros((2, 2), dtype=np.float64), None) is None
        )


# ----------------------------------------------------------------------
# Database warm-up
# ----------------------------------------------------------------------
def test_warm_join_indexes_builds_fk_endpoints(mini_db):
    warmed = mini_db.warm_join_indexes()
    assert warmed > 0
    for fk in mini_db.foreign_keys:
        for table, columns in (
            (fk.table, fk.columns),
            (fk.ref_table, fk.ref_columns),
        ):
            for column in columns:
                assert mini_db.table(table).sort_index(column) is not None
    # Idempotent: a second warm-up reuses the process-shared indexes.
    assert mini_db.warm_join_indexes() == warmed
