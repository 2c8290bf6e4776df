"""Exact-twin tests for the histogram frontier-at-a-time forest.

``HistRandomForestClassifier`` promises **bit-identical** results to the
reference ``RandomForestClassifier`` (the per-node CART oracle in
``tests/oracles/cart_forest.py``) when the reference examines every
feature at every split (``max_features = n_features``): same bootstrap
draws, same trees, same thresholds, same predictions, same importances.
These tests hold the twin to that promise on adversarial inputs — NULL
-1 dictionary codes, NaN, -inf, constant columns, single-class labels,
duplicate-heavy columns, and n_rows below ``min_samples_split`` — plus
the usual API edge cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import HistRandomForestClassifier, apply_bins, bin_matrix
from tests.oracles.cart_forest import RandomForestClassifier

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


def assert_twin(hist, ref, X):
    assert np.array_equal(
        hist.feature_importances_, ref.feature_importances_
    )
    for ht, rt in zip(hist.trees_, ref.trees_):
        assert np.array_equal(
            ht.feature_importances_, rt.feature_importances_
        )
    assert np.array_equal(hist.predict_proba(X), ref.predict_proba(X))
    assert np.array_equal(hist.predict(X), ref.predict(X))


class TestExactTwin:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n_rows=st.integers(1, 160),
        n_features=st.integers(1, 6),
    )
    def test_matches_reference_bitwise(self, seed, n_rows, n_features):
        X, y = make_matrix(seed, n_rows, n_features)
        hist, ref = fit_pair(X, y, seed=seed % 17)
        assert_twin(hist, ref, X)

    def test_single_class_labels(self, rng):
        X = rng.normal(size=(80, 3))
        y = np.ones(80)
        hist, ref = fit_pair(X, y)
        assert_twin(hist, ref, X)
        assert np.all(hist.predict_proba(X) == 1.0)

    def test_all_constant_columns(self):
        X = np.full((50, 4), 3.25)
        y = np.tile([0.0, 1.0], 25)
        hist, ref = fit_pair(X, y)
        assert_twin(hist, ref, X)
        assert hist.feature_importances_.sum() == 0.0

    def test_null_code_columns(self, rng):
        # Dictionary-code columns as the pipeline feeds them: small
        # non-negative ints with -1 standing in for NULL.
        X = rng.integers(-1, 6, size=(120, 3)).astype(float)
        y = (X[:, 0] > 2).astype(float)
        hist, ref = fit_pair(X, y)
        assert_twin(hist, ref, X)

    def test_nan_and_minus_inf(self, rng):
        X = rng.normal(size=(100, 3))
        X[::7, 0] = np.nan
        X[::11, 1] = -np.inf
        y = (rng.random(100) < 0.5).astype(float)
        hist, ref = fit_pair(X, y)
        assert_twin(hist, ref, X)

    def test_below_min_samples_split(self, rng):
        X = rng.normal(size=(4, 2))
        y = np.array([0.0, 1.0, 0.0, 1.0])
        hist, ref = fit_pair(X, y, max_samples=None)
        assert_twin(hist, ref, X)
        assert all(t.depth == 0 for t in hist.trees_)

    def test_no_bootstrap_cap(self, rng):
        X = rng.normal(size=(90, 3))
        y = (X[:, 1] > 0).astype(float)
        hist, ref = fit_pair(X, y, max_samples=None)
        assert_twin(hist, ref, X)

    def test_accuracy_matches(self, rng):
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        hist, ref = fit_pair(X, y)
        assert hist.accuracy(X, y) == ref.accuracy(X, y)
        assert hist.accuracy(X, y) > 0.8

    def test_categorical_hint_never_changes_fit(self, rng):
        X = rng.integers(0, 12, size=(150, 4)).astype(float)
        y = (X[:, 2] > 5).astype(float)
        plain = HistRandomForestClassifier(
            random_state=3, **FOREST_PARAMS
        ).fit(X, y)
        hinted = HistRandomForestClassifier(
            random_state=3, **FOREST_PARAMS
        ).fit(X, y, categorical_features={0, 1, 2, 3})
        assert np.array_equal(
            plain.feature_importances_, hinted.feature_importances_
        )
        assert np.array_equal(
            plain.predict_proba(X), hinted.predict_proba(X)
        )


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

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            HistRandomForestClassifier().predict(np.zeros((1, 2)))

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
        fast = bin_matrix(X, categorical_features={0, 1})
        generic = bin_matrix(X + 0.5)  # forces the sort-based path
        assert np.array_equal(fast.bins, generic.bins)
        for j in range(2):
            assert np.array_equal(
                fast.uniques[j] + 0.5, generic.uniques[j]
            )

    def test_apply_bins_quantizes_to_lower_rank(self, rng):
        X = rng.normal(size=(50, 2))
        binned = bin_matrix(X)
        # Training rows land exactly on their own bins.
        assert np.array_equal(apply_bins(X, binned), binned.bins)
        # Unseen values snap to the rank of the largest unique below;
        # values below every unique share the -inf slot.
        probe = np.array([[binned.uniques[0][3] + 1e-9, -1e9]])
        snapped = apply_bins(probe, binned)
        assert snapped[0, 0] == 3
        assert snapped[0, 1] == -1
