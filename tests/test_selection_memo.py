"""The per-question §3.1 selection memo against its oracle.

All join graphs of a question share one
:class:`~repro.core.attribute_filter.SelectionMemo`; the oracle
(``tests/oracles/selection.py``) gives every graph a fresh one, which is
what ran before the memo existed.  These tests require the two to agree
on every graph's ``FilteredAttributes`` and on the answer's bytes —
also across ``PYTHONHASHSEED``s — check that
a memo warmed by a *different* APT never changes a selection, that every
input of the two memoized functions is part of its key, and pin how much
of the gate's questions repeats.

Under ``HYPOTHESIS_PROFILE=ci`` the property test runs derandomized with
a raised example count, like the join and column-store differentials.
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

import repro.api.session as session_module
from repro.api import CajadeSession
from repro.core import CajadeConfig, QualityEvaluator, filter_attributes
from repro.core.apt import APTAttribute, AugmentedProvenanceTable
from repro.core.attribute_filter import (
    SelectionMemo,
    _digest,
    _forest_importances,
)
from repro.core.timing import (
    ASSOCIATION_MEMO_HITS,
    ASSOCIATION_PAIRS_COMPUTED,
    FOREST_FITS_RUN,
    FOREST_MEMO_HITS,
    HIST_NODES_GROWN,
    StepTimer,
)
from repro.datasets.workloads import query_by_name
from repro.db import ColumnType, TableSchema
from repro.db.relation import Relation
from repro.db.relation import encode_object_column
from repro.ml import HistRandomForestClassifier, association_matrix
from repro.serving import canonical_payload
from tests.oracles import selection as oracle

settings.register_profile(
    "ci", settings(max_examples=200, deadline=None, derandomize=True)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

REPEAT_COUNTERS = (
    FOREST_FITS_RUN,
    FOREST_MEMO_HITS,
    ASSOCIATION_PAIRS_COMPUTED,
    ASSOCIATION_MEMO_HITS,
)


def repeat_counts(timer: StepTimer) -> list[int]:
    return [timer.counter(name) for name in REPEAT_COUNTERS]


# ----------------------------------------------------------------------
# Whole questions at the gate's scale: shared ≡ oracle
# ----------------------------------------------------------------------
def ask(databases, name: str, edges: int):
    workload = query_by_name(name)
    db, schema_graph = databases[workload.dataset]
    config = CajadeConfig(max_join_edges=edges)
    session = CajadeSession(db, schema_graph, config)
    return session.explain(workload.sql, workload.question)


def record_selections(monkeypatch) -> list:
    """Every mined graph's ``FilteredAttributes``, in mining order."""
    seen = []
    real = session_module.mine_apt

    def recording(*args, **kwargs):
        mining = real(*args, **kwargs)
        seen.append(mining.filtered)
        return mining

    monkeypatch.setattr(session_module, "mine_apt", recording)
    return seen


# (question, λ#edges, join graphs, [fits run, fit hits, pairs computed,
# pair hits]); Qnba4 mines a 5320-row APT.  A fit is keyed on the
# columns that can win a split, so on every NBA question a graph whose
# matrix adds only a single-valued or duplicate column reuses an
# earlier graph's fit.
GATE_QUESTIONS = [
    ("Qmimic5", 2, 25, [6, 19, 225, 1026]),
    ("Qnba5", 1, 7, [4, 3, 4, 13]),
    ("Qnba5", 2, 64, [25, 39, 42, 201]),
    ("Qnba4", 1, 7, [5, 2, 5, 10]),
    ("Qnba3", 1, 7, [4, 3, 4, 13]),
]


@pytest.mark.parametrize("name, edges, graphs, repeats", GATE_QUESTIONS)
def test_shared_memo_equals_fresh_memo_per_graph(
    name, edges, graphs, repeats, gate_databases, monkeypatch
):
    selections = record_selections(monkeypatch)
    shared = ask(gate_databases, name, edges)
    shared_selections = selections[:]
    assert len(shared_selections) == shared.join_graphs_mined == graphs
    # The property the memo depends on, as the answer itself reports it.
    assert repeat_counts(shared.timer) == repeats
    fits, fit_hits = repeats[:2]

    del selections[:]
    with monkeypatch.context() as patch:
        oracle_fits = oracle.swap_in(patch)
        unshared = ask(gate_databases, name, edges)
    # Exact equality, floats included: a hit is the bytes a miss computes.
    assert selections == shared_selections
    assert canonical_payload(unshared) == canonical_payload(shared)
    assert repeat_counts(unshared.timer)[:2] == [fits + fit_hits, 0]

    # Work counters count work done: the shared run grew exactly the
    # nodes of the distinct fits, the oracle those of every graph.
    assert len(oracle_fits) == fits + fit_hits
    assert len(dict(oracle_fits)) == fits
    assert shared.timer.counter(HIST_NODES_GROWN) == sum(
        dict(oracle_fits).values()
    )
    assert unshared.timer.counter(HIST_NODES_GROWN) == sum(
        nodes for _key, nodes in oracle_fits
    )


# ----------------------------------------------------------------------
# A memo warmed by a different APT never changes a selection
# ----------------------------------------------------------------------
ROWS = 24
NAMES = ("k", "b", "x", "e", "m", "a", "t", "c")
LETTERS = "pqrs"
CONFIG = CajadeConfig(rf_num_trees=4, rf_max_depth=3)


def build_apt(columns: dict[str, np.ndarray]) -> AugmentedProvenanceTable:
    """A relation-backed APT; object columns are the categorical ones."""
    types = {"__pt_row_id": ColumnType.INT}
    for name, values in columns.items():
        text = values.dtype == object
        types[name] = ColumnType.TEXT if text else ColumnType.FLOAT
    relation = Relation(
        TableSchema.build("apt", types),
        {"__pt_row_id": np.arange(ROWS, dtype=np.int64), **columns},
    )
    return AugmentedProvenanceTable(
        join_graph=None,
        relation=relation,
        attributes=[
            APTAttribute(name, values.dtype != object, from_provenance=False)
            for name, values in columns.items()
        ],
    )


def select(columns: dict[str, np.ndarray], memo: SelectionMemo | None = None):
    """§3.1 on ``columns``, first half of the rows against the second."""
    apt = build_apt(columns)
    ids = np.arange(ROWS, dtype=np.int64)
    evaluator = QualityEvaluator(apt, ids[: ROWS // 2], ids[ROWS // 2 :])
    timer = StepTimer()
    filtered = filter_attributes(
        apt, evaluator, CONFIG, np.random.default_rng(0), timer, memo
    )
    return filtered, timer


level_columns = st.lists(
    st.integers(min_value=0, max_value=3), min_size=ROWS, max_size=ROWS
)
value_columns = st.lists(
    st.integers(min_value=-4, max_value=9), min_size=ROWS, max_size=ROWS
)


def realize(pool, picks, names) -> dict[str, np.ndarray]:
    """Name the picked pool columns.  A categorical pick's levels are
    spelled through a rotation of ``LETTERS``: another spelling of the
    same codes, so equal content under different values too."""
    categorical, numeric = pool
    columns: dict[str, np.ndarray] = {}
    for name, (index, rotation) in zip(names, picks):
        if index < len(categorical):
            spelled = [LETTERS[(v + rotation) % 4] for v in categorical[index]]
            columns[name] = np.array(spelled, dtype=object)
        else:
            values = numeric[index - len(categorical)]
            columns[name] = np.array(values, dtype=np.float64)
    return columns


@st.composite
def two_apts_over_one_pool(draw):
    """Two column sets drawn from one small pool of base columns, so
    they share some by content — duplicated within a set, renamed and
    permuted between the sets (names decide column order)."""
    pool = (
        draw(st.lists(level_columns, min_size=2, max_size=4)),
        draw(st.lists(value_columns, min_size=1, max_size=3)),
    )
    pick = st.tuples(
        st.integers(min_value=0, max_value=len(pool[0]) + len(pool[1]) - 1),
        st.integers(min_value=0, max_value=3),
    )
    drawn = []
    for _ in range(2):
        picks = draw(st.lists(pick, min_size=2, max_size=6))
        names = draw(st.permutations(NAMES))
        drawn.append(realize(pool, picks, names))
    return drawn


@given(apts=two_apts_over_one_pool())
@settings(deadline=None)
def test_selection_through_a_memo_warmed_by_another_apt_equals_cold(apts):
    other, target = apts
    cold, cold_timer = select(target)
    memo = SelectionMemo()
    select(other, memo)
    warm, warm_timer = select(target, memo)
    assert warm == cold
    # The same lookups either way; warmth only turns computing into hits.
    cold_counts, warm_counts = repeat_counts(cold_timer), repeat_counts(warm_timer)
    for computed, hits in ((0, 1), (2, 3)):
        assert warm_counts[computed] <= cold_counts[computed]
        assert (
            warm_counts[computed] + warm_counts[hits]
            == cold_counts[computed] + cold_counts[hits]
        )


def test_renamed_columns_share_reordered_columns_do_not():
    rng = np.random.default_rng(7)
    base = {
        "a": np.array(rng.choice(list("pqr"), ROWS), dtype=object),
        "b": np.array(rng.choice(list("pq"), ROWS), dtype=object),
        "c": np.array(rng.choice(list("qrs"), ROWS), dtype=object),
        "d": rng.normal(size=ROWS),
    }
    memo = SelectionMemo()
    first, timer = select(base, memo)
    assert repeat_counts(timer) == [1, 0, 3, 0]

    # Same content, same order, other names: nothing is computed, and
    # the stored values come back under the new names, positionally.
    renamed, timer = select({f"z_{n}": v for n, v in base.items()}, memo)
    assert repeat_counts(timer) == [0, 1, 0, 3]
    assert list(renamed.relevance.values()) == list(first.relevance.values())
    assert [f"z_{n}" for n in first.relevance] == list(renamed.relevance)

    # Names that reverse the column order transpose every pair and
    # permute the forest's matrix: all of it is another input.
    reverse = dict(zip("dcba", base.values()))
    reordered, timer = select(reverse, memo)
    assert repeat_counts(timer) == [1, 0, 3, 0]
    assert select(reverse)[0] == reordered


# ----------------------------------------------------------------------
# Key sensitivity: every input of a memoized function is in its key
# ----------------------------------------------------------------------
class TestForestKey:
    CONFIG = CajadeConfig(
        rf_num_trees=3, rf_max_depth=3, rf_max_samples=50, seed=1
    )

    @staticmethod
    def inputs():
        rng = np.random.default_rng(3)
        X = rng.integers(0, 3, size=(20, 3)).astype(np.float64)
        y = (np.arange(20) % 2).astype(np.float64)
        return X, y

    @staticmethod
    def fits(memo, X, y, config) -> int:
        """How many fits one call ran (0 on a hit, 1 on a miss)."""
        timer = StepTimer()
        importances = _forest_importances(X, y, config, timer, memo)
        assert not importances.flags.writeable
        assert timer.counter(FOREST_FITS_RUN) + timer.counter(
            FOREST_MEMO_HITS
        ) == 1
        return timer.counter(FOREST_FITS_RUN)

    def test_equal_inputs_hit_whatever_object_holds_them(self):
        X, y = self.inputs()
        memo = SelectionMemo()
        assert self.fits(memo, X, y, self.CONFIG) == 1
        assert self.fits(memo, X.copy(), y.copy(), self.CONFIG) == 0
        assert len(memo.relevance) == 1

    @pytest.mark.parametrize(
        "change",
        [
            "one cell of X", "one label", "rf_num_trees", "rf_max_depth",
            "rf_max_samples", "seed",
        ],
    )
    def test_any_changed_input_misses(self, change):
        X, y = self.inputs()
        memo = SelectionMemo()
        assert self.fits(memo, X, y, self.CONFIG) == 1
        config = self.CONFIG
        if change == "one cell of X":
            X = X.copy()
            X[7, 1] += 1.0
        elif change == "one label":
            y = y.copy()
            y[4] = 1.0 - y[4]
        else:
            config = config.with_overrides(
                **{change: getattr(config, change) + 1}
            )
        assert self.fits(memo, X, y, config) == 1
        assert len(memo.relevance) == 2
        # ... and the first input is still there to be hit.
        assert self.fits(memo, *self.inputs(), self.CONFIG) == 0

    @pytest.mark.parametrize(
        "extra", ["an appended later duplicate column",
                  "an appended single-valued column"],
    )
    def test_columns_no_split_can_use_hit(self, extra):
        X, y = self.inputs()
        memo = SelectionMemo()
        assert self.fits(memo, X, y, self.CONFIG) == 1
        if extra == "an appended later duplicate column":
            column = X[:, 1]
        else:
            column = np.full(len(X), 2.5)
        wider = np.column_stack([X, column])
        assert self.fits(memo, wider, y, self.CONFIG) == 0
        assert len(memo.relevance) == 1
        # The hit, replayed at the wider width, is a fresh full fit.
        config = self.CONFIG
        fresh = HistRandomForestClassifier(
            n_estimators=config.rf_num_trees,
            max_depth=config.rf_max_depth,
            max_samples=config.rf_max_samples,
            random_state=config.seed,
        ).fit(wider, y)
        hit = _forest_importances(wider, y, config, StepTimer(), memo)
        assert hit.tobytes() == fresh.feature_importances_.tobytes()

    def test_same_bytes_under_another_shape_miss(self):
        # 20 floats read as a 5x3 matrix + 5 labels or as 4x4 + 4.
        stream = (np.arange(20) % 2).astype(np.float64)
        memo = SelectionMemo()
        for rows, cols in ((5, 3), (4, 4)):
            X = stream[: rows * cols].reshape(rows, cols)
            y = stream[rows * cols :]
            assert len(y) == rows
            assert self.fits(memo, X, y, self.CONFIG) == 1
        assert len(memo.relevance) == 2
        cells = np.arange(12.0)
        assert _digest(cells.reshape(2, 6)) != _digest(cells.reshape(3, 4))
        assert _digest(cells) != _digest(cells.astype(np.float32))
        assert _digest(cells) == _digest(cells.copy())
        assert len(_digest(cells)) * 8 >= 128


class TestPairKey:
    def test_pair_order_is_part_of_the_key(self):
        rng = np.random.default_rng(5)
        a = np.array(rng.choice(list("pqr"), 40), dtype=object)
        b = np.array(rng.choice(list("pq"), 40), dtype=object)
        a_codes = encode_object_column(a).codes
        b_codes = encode_object_column(b).codes
        memo: dict[tuple, float] = {}
        value = association_matrix(
            ["x", "y"],
            {},
            {"x": a_codes, "y": b_codes},
            pair_memo=memo,
            digests={"x": "A", "y": "B"},
        )[0, 1]
        assert memo == {("A", "B"): value}
        # Swapped: the transposed table is another computation.
        association_matrix(
            ["x", "y"],
            {},
            {"x": b_codes, "y": a_codes},
            pair_memo=memo,
            digests={"x": "B", "y": "A"},
        )
        assert set(memo) == {("A", "B"), ("B", "A")}
        # Renamed, same order: read back, not recomputed.
        memo[("A", "B")] = 0.125
        hit = association_matrix(
            ["p", "q"],
            {},
            {"p": a_codes, "q": b_codes},
            pair_memo=memo,
            digests={"p": "A", "q": "B"},
        )
        assert hit[0, 1] == hit[1, 0] == 0.125
        assert len(memo) == 2

    def test_numeric_pairs_are_never_memoized(self):
        rng = np.random.default_rng(6)
        columns = {"u": rng.normal(size=30), "v": rng.normal(size=30)}
        memo: dict[tuple, float] = {}
        shared = association_matrix(
            list(columns), columns, {}, pair_memo=memo,
            digests={"u": "U", "v": "V"},
        )
        assert memo == {}
        np.testing.assert_array_equal(
            shared, association_matrix(list(columns), columns, {})
        )


# ----------------------------------------------------------------------
# Keys must not depend on hash(): two PYTHONHASHSEEDs, one answer
# ----------------------------------------------------------------------
_SEED_SCRIPT = """
import hashlib, json
from repro.api import CajadeSession
from repro.core import CajadeConfig
from repro.datasets import load_mimic
from repro.datasets.workloads import query_by_name
from repro.serving import canonical_payload

db, schema_graph = load_mimic(scale=0.08, seed=5)
workload = query_by_name("Qmimic5")
session = CajadeSession(db, schema_graph, CajadeConfig(max_join_edges=2))
response = session.explain(workload.sql, workload.question)
counters = response.timer.counters()
print(json.dumps([
    hashlib.blake2b(canonical_payload(response).encode()).hexdigest(),
    [counters[name] for name in %r],
]))
""" % (REPEAT_COUNTERS,)


def test_payload_and_hit_counts_identical_across_hash_seeds():
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
    fits, fit_hits, pairs, pair_hits = runs[0][1]
    assert fit_hits > 0 and pair_hits > 0
