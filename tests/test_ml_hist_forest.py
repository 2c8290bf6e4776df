"""Exact-twin tests for the histogram frontier-at-a-time forest.

``HistRandomForestClassifier`` promises **bit-identical** results to the
reference ``RandomForestClassifier`` (the per-node CART oracle in
``tests/oracles/cart_forest.py``) when the reference examines every
feature at every split (``max_features = n_features``): same bootstrap
draws, same trees (each tree's depth-first preorder of ``(feature,
threshold)`` and its node count) and bitwise-equal per-tree and forest
importances.  These tests hold the twin to that promise on adversarial
inputs — NULL -1 dictionary codes, NaN, ±inf, constant and all-NaN
columns, later duplicate columns (byte-equal, and equal only up to the
sign of zero), single-class labels, duplicate-heavy columns, few
distinct rows drawn many times, and n_rows below the minimum split
size — plus the usual API edge cases.  They also hold the column
reduction (``splittable_columns`` + ``importances_at``) to a fresh fit
of the full matrix, bitwise.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import HistRandomForestClassifier, bin_matrix
from repro.ml.hist_forest import splittable_columns
from tests.oracles.cart_forest import RandomForestClassifier

settings.register_profile(
    "ci", settings(max_examples=200, deadline=None, derandomize=True)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

FOREST_PARAMS = dict(n_estimators=4, max_depth=4, max_samples=64)


def make_matrix(seed: int, n_rows: int, n_features: int):
    """Adversarial feature matrix: integral codes (with -1 NULLs),
    noisy floats, constants, duplicate-heavy choice columns with NaN,
    and an occasional -inf sprinkle."""
    rng = np.random.default_rng(seed)
    X = np.empty((n_rows, n_features))
    for j in range(n_features):
        kind = (seed + j) % 4
        if kind == 0:
            X[:, j] = rng.integers(-1, 20, size=n_rows)
        elif kind == 1:
            X[:, j] = rng.normal(size=n_rows) * 50
        elif kind == 2:
            X[:, j] = float(seed % 7)
        else:
            X[:, j] = rng.choice(
                [0.5, -2.25, 7.0, np.nan], size=n_rows
            )
    if seed % 5 == 0 and n_rows > 2:
        X[rng.integers(0, n_rows, size=2), 0] = -np.inf
    if seed % 3 == 0:
        y = np.ones(n_rows)
    else:
        y = (rng.random(n_rows) < 0.4).astype(float)
    return X, y


def fit_pair(X, y, seed=0, **overrides):
    params = {**FOREST_PARAMS, **overrides}
    hist = HistRandomForestClassifier(random_state=seed, **params).fit(
        X, y
    )
    ref = RandomForestClassifier(
        max_features=X.shape[1], random_state=seed, **params
    ).fit(X, y)
    return hist, ref


def preorder(tree) -> list[tuple[int, float]]:
    """A fitted ``FlatTree`` as its depth-first preorder of
    ``(feature, threshold)``; a leaf is ``(-1, 0.0)``."""
    out, stack = [], [0]
    while stack:
        node = stack.pop()
        out.append((int(tree.feature[node]), float(tree.threshold[node])))
        if tree.feature[node] >= 0:
            stack += [int(tree.right[node]), int(tree.left[node])]
    return out


def reference_preorder(node) -> list[tuple[int, float]]:
    """The same sequence for the oracle's recursive ``_Node`` tree."""
    if node.is_leaf:
        return [(-1, node.threshold)]
    return (
        [(node.feature, node.threshold)]
        + reference_preorder(node.left)
        + reference_preorder(node.right)
    )


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_twin(hist, ref):
    assert len(hist.trees_) == len(ref.trees_)
    for ht, rt in zip(hist.trees_, ref.trees_):
        ours, theirs = preorder(ht), reference_preorder(rt._root)
        assert [f for f, _ in ours] == [f for f, _ in theirs]
        assert bits([t for _, t in ours]) == bits([t for _, t in theirs])
        assert ht.n_nodes == len(theirs) == len(ours)
        assert bits(ht.feature_importances_) == bits(rt.feature_importances_)
    assert bits(hist.feature_importances_) == bits(ref.feature_importances_)


# Injected columns, each at a random position (a copy after the column
# it copies).  The first three no split can use; an ±inf column can
# split a value from +inf, and a signed-zero pair is equal by value only.
INJECTED = ("duplicate", "single", "nan", "inf", "signed-zero")


def inject(X, kinds, rng):
    """``X`` with one column per kind in ``kinds`` inserted."""
    for kind in kinds:
        n_rows, width = X.shape
        source = int(rng.integers(0, width))
        at = int(rng.integers(0, width + 1))
        if kind == "duplicate":
            column = X[:, source]
            at = int(rng.integers(source + 1, width + 1))
        elif kind == "single":
            column = np.full(n_rows, rng.choice([-3.0, 0.0, 41.5]))
        elif kind == "nan":
            column = np.full(n_rows, np.nan)
        elif kind == "inf":
            column = rng.choice([-np.inf, np.inf, 2.0], size=n_rows)
        else:
            # Two columns equal by value, not by bytes: the second's
            # zeros are -0.0.
            column = rng.choice([0.0, 1.5, -4.0], size=n_rows)
            X = np.insert(X, at, np.where(column == 0.0, -0.0, column), 1)
        X = np.insert(X, at, column, axis=1)
    return X


@st.composite
def forest_inputs(draw):
    """A matrix (optionally few distinct rows drawn many times, with
    injected columns) and forest parameters: 1–12 trees, depth 0–8,
    ``max_samples`` below and above the row count or unset."""
    seed = draw(st.integers(0, 10**6))
    n_features = draw(st.integers(1, 6))
    if draw(st.booleans()):
        X, y = make_matrix(seed, draw(st.integers(1, 160)), n_features)
    else:
        distinct, labels = make_matrix(
            seed, draw(st.integers(1, 12)), n_features
        )
        pick = np.random.default_rng(seed).integers(
            0, len(distinct), size=draw(st.integers(20, 400))
        )
        X, y = distinct[pick], labels[pick]
    kinds = draw(st.lists(st.sampled_from(INJECTED), max_size=4))
    X = inject(X, kinds, np.random.default_rng(seed + 1))
    max_samples = draw(
        st.one_of(st.none(), st.integers(1, 2 * len(X) + 10))
    )
    params = dict(
        n_estimators=draw(st.integers(1, 12)),
        max_depth=draw(st.integers(0, 8)),
        max_samples=max_samples,
    )
    return X, y, params, seed % 17


class TestExactTwin:
    @settings(deadline=None)
    @given(inputs=forest_inputs())
    def test_matches_reference_bitwise(self, inputs):
        X, y, params, seed = inputs
        hist, ref = fit_pair(X, y, seed=seed, **params)
        assert_twin(hist, ref)

    @pytest.mark.parametrize("budget", [64, 4096])
    def test_small_histogram_budget(self, budget, monkeypatch):
        # Many feature chunks per level, down to one feature each.
        monkeypatch.setattr("repro.ml.hist_forest._CHUNK_KEYS", budget)
        for seed in range(6):
            X, y = make_matrix(seed, 150, 5)
            hist, ref = fit_pair(
                X, y, seed=seed, n_estimators=6, max_depth=6,
                max_samples=None,
            )
            assert_twin(hist, ref)

    def test_single_class_labels(self, rng):
        X = rng.normal(size=(80, 3))
        y = np.ones(80)
        hist, ref = fit_pair(X, y)
        assert_twin(hist, ref)
        assert all(t.n_nodes == 1 for t in hist.trees_)

    def test_all_constant_columns(self):
        X = np.full((50, 4), 3.25)
        y = np.tile([0.0, 1.0], 25)
        hist, ref = fit_pair(X, y)
        assert_twin(hist, ref)
        assert hist.feature_importances_.sum() == 0.0

    def test_null_code_columns(self, rng):
        # Dictionary-code columns as the pipeline feeds them: small
        # non-negative ints with -1 standing in for NULL.
        X = rng.integers(-1, 6, size=(120, 3)).astype(float)
        y = (X[:, 0] > 2).astype(float)
        hist, ref = fit_pair(X, y)
        assert_twin(hist, ref)

    def test_nan_and_minus_inf(self, rng):
        X = rng.normal(size=(100, 3))
        X[::7, 0] = np.nan
        X[::11, 1] = -np.inf
        y = (rng.random(100) < 0.5).astype(float)
        hist, ref = fit_pair(X, y)
        assert_twin(hist, ref)

    def test_below_min_samples_split(self, rng):
        X = rng.normal(size=(4, 2))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        hist, ref = fit_pair(X, y, max_samples=None)
        assert_twin(hist, ref)
        assert all(t.n_nodes == 1 for t in hist.trees_)

    def test_no_bootstrap_cap(self, rng):
        X = rng.normal(size=(90, 3))
        y = (X[:, 1] > 0).astype(float)
        hist, ref = fit_pair(X, y, max_samples=None)
        assert_twin(hist, ref)


    def test_wide_range_integral_column_allocates_by_count(self, rng):
        # 44 integral values over a range of 895,870, as in one of the
        # distinct fits of Qnba5 at two edges: binning must cost memory
        # by the values, not by the range (a presence scan took 15 MB).
        X = np.column_stack([
            rng.integers(0, 895_870, 44), rng.integers(-1, 5, 44)
        ]).astype(float)
        X[:3, 0] = [0.0, 895_869.0, -0.0]
        y = (rng.random(44) < 0.5).astype(float)
        hist, ref = fit_pair(X, y, seed=3)
        assert_twin(hist, ref)
        tracemalloc.start()
        try:
            HistRandomForestClassifier(random_state=3, **FOREST_PARAMS).fit(
                X, y
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


class TestColumnReduction:
    """A fit on the splittable columns, replayed at the caller's width,
    is bitwise a fit on every column."""

    @settings(deadline=None)
    @given(inputs=forest_inputs(), data=st.data())
    def test_importances_at_each_width_equal_a_full_fit(self, inputs, data):
        X, y, params, seed = inputs
        kept = splittable_columns(X)
        reduced = HistRandomForestClassifier(
            random_state=seed, **params
        ).fit(X[:, kept], y)
        for _ in range(2):
            # Embed the matrix among more columns no split can use.
            kinds = data.draw(
                st.lists(st.sampled_from(INJECTED[:3]), max_size=4)
            )
            rng = np.random.default_rng(data.draw(st.integers(0, 99)))
            wide = inject(X, kinds, rng)
            columns = splittable_columns(wide)
            assert bits(wide[:, columns]) == bits(X[:, kept])
            full = HistRandomForestClassifier(
                random_state=seed, **params
            ).fit(wide, y)
            assert bits(
                reduced.importances_at(columns, wide.shape[1])
            ) == bits(full.feature_importances_)
            assert [t.n_nodes for t in reduced.trees_] == [
                t.n_nodes for t in full.trees_
            ]

    def test_drops_exactly_the_columns_no_split_can_use(self):
        X = np.array(
            [
                [1.0, 1.0, 4.0, np.nan, 5.0, -np.inf, 7.0, -0.0, 0.0],
                [2.0, 2.0, 4.0, np.nan, np.nan, 3.0, 7.0, 0.0, -0.0],
                [3.0, 3.0, 4.0, np.nan, 5.0, -np.inf, np.inf, 1.0, 1.0],
            ]
        )
        # 1 copies 0; 2 is single-valued; 3 holds no finite value; 5 is
        # one value beside -inf (which sorts with it).  4 and 6 split
        # their value from NaN / +inf; 8 equals 7 by value only.
        assert list(splittable_columns(X)) == [0, 4, 6, 7, 8]


class TestApi:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            HistRandomForestClassifier().fit(
                np.zeros((0, 2)), np.zeros(0)
            )

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            HistRandomForestClassifier().fit(np.zeros(5), np.zeros(5))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HistRandomForestClassifier().fit(
                np.zeros((4, 2)), np.zeros(3)
            )

    @pytest.mark.parametrize("label", [0.5, 2.0, np.nan])
    def test_labels_outside_0_1_rejected(self, label):
        y = np.tile([0.0, 1.0], 10)
        y[3] = label
        with pytest.raises(ValueError, match="0 or 1"):
            HistRandomForestClassifier().fit(np.zeros((20, 2)), y)

    def test_work_counters_populated(self, rng):
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(float)
        forest = HistRandomForestClassifier(
            random_state=1, **FOREST_PARAMS
        ).fit(X, y)
        assert forest.nodes_grown >= len(forest.trees_)
        assert forest.histograms_built > 0
        assert forest.splits_evaluated > 0


class TestBinning:
    def test_uniques_sorted_finite(self, rng):
        X = rng.normal(size=(60, 2))
        X[::5, 0] = np.nan
        X[::9, 1] = -np.inf
        binned = bin_matrix(X)
        for uniq in binned.uniques:
            assert np.all(np.isfinite(uniq))
            assert np.all(np.diff(uniq) > 0)

    def test_codes_roundtrip_through_uniques(self, rng):
        X = rng.choice([-3.5, 0.0, 2.0, 9.75], size=(80, 3))
        binned = bin_matrix(X)
        for j in range(3):
            assert np.array_equal(
                binned.uniques[j][binned.bins[:, j]], X[:, j]
            )

    def test_nan_and_infinities_get_sentinel_bins(self):
        X = np.array([[np.nan], [-np.inf], [np.inf], [1.0], [2.0]])
        binned = bin_matrix(X)
        assert binned.bins[0, 0] == binned.n_bins[0]  # NaN above all
        assert binned.bins[1, 0] == -1  # -inf below all
        assert binned.bins[2, 0] == binned.n_bins[0]  # +inf above all
        assert binned.n_bins[0] == 2

    def test_integral_fast_path_matches_generic(self, rng):
        X = rng.integers(-1, 40, size=(100, 2)).astype(float)
        fast = bin_matrix(X)
        generic = bin_matrix(X + 0.5)  # forces the sort-based path
        assert np.array_equal(fast.bins, generic.bins)
        for j in range(2):
            assert np.array_equal(
                fast.uniques[j] + 0.5, generic.uniques[j]
            )

    @pytest.mark.parametrize(
        "column",
        [
            [3.0, -1.0, 7.0, 3.0, -0.0],  # small-range integral
            [3.0, -1.0, 7.5, 3.0, 0.0],  # one fraction
            [1e19, 1e19 + 4096, 1e19],  # integral, past int64
            [2.0**62, 2.0**62 + 4096, 2.0**62],  # past the cast guard
            [0.0, float(1 << 21)],  # integral, range past the cap
            [2.0**-40, 1.0, 1.0 + 2.0**-40],  # one ulp off integral
        ],
    )
    def test_integral_detection_never_changes_the_encoding(self, column):
        X = np.array(column)[:, None]
        binned = bin_matrix(X)
        uniq, inverse = np.unique(X[:, 0], return_inverse=True)
        assert np.array_equal(binned.bins[:, 0], inverse)
        assert np.array_equal(binned.uniques[0], uniq)
