"""Unit tests for the CART decision tree (the §3.1 forest oracle's tree)."""

import numpy as np
import pytest

from tests.oracles.cart_forest import DecisionTreeClassifier, gini_impurity


class TestGini:
    def test_pure_is_zero(self):
        assert gini_impurity(0.0) == 0.0
        assert gini_impurity(1.0) == 0.0

    def test_max_at_half(self):
        assert gini_impurity(0.5) == pytest.approx(0.5)

    def test_symmetric(self):
        assert gini_impurity(0.3) == pytest.approx(gini_impurity(0.7))


class TestDecisionTree:
    def test_learns_threshold(self, rng):
        x = rng.normal(size=(500, 1))
        y = (x[:, 0] > 0.3).astype(float)
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        acc = (tree.predict(x) == y).mean()
        assert acc > 0.95

    def test_learns_xor_with_depth(self, rng):
        x = rng.uniform(-1, 1, size=(800, 2))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(float)
        tree = DecisionTreeClassifier(max_depth=4, min_samples_split=4).fit(x, y)
        assert (tree.predict(x) == y).mean() > 0.9

    def test_constant_labels_are_leaf(self, rng):
        x = rng.normal(size=(50, 2))
        y = np.ones(50)
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.depth == 0
        assert (tree.predict_proba(x) == 1.0).all()

    def test_importances_sum_to_one_or_zero(self, rng):
        x = rng.normal(size=(200, 3))
        y = (x[:, 1] > 0).astype(float)
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.feature_importances_ is not None
        assert tree.feature_importances_.sum() == pytest.approx(1.0)
        assert np.argmax(tree.feature_importances_) == 1

    def test_respects_max_depth(self, rng):
        x = rng.normal(size=(500, 4))
        y = (x.sum(axis=1) > 0).astype(float)
        tree = DecisionTreeClassifier(max_depth=2, min_samples_split=2).fit(x, y)
        assert tree.depth <= 2

    def test_min_samples_split(self, rng):
        x = rng.normal(size=(8, 1))
        y = (x[:, 0] > 0).astype(float)
        tree = DecisionTreeClassifier(min_samples_split=100).fit(x, y)
        assert tree.depth == 0

    def test_validation(self):
        tree = DecisionTreeClassifier()
        with pytest.raises(ValueError):
            tree.fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            tree.fit(np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            tree.fit(np.zeros(3), np.zeros(3))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_nan_features_tolerated(self, rng):
        x = rng.normal(size=(100, 2))
        x[::7, 0] = np.nan
        y = (x[:, 1] > 0).astype(float)
        tree = DecisionTreeClassifier().fit(x, y)
        assert (tree.predict(x) == y).mean() > 0.8

    def test_probabilities_in_unit_interval(self, rng):
        x = rng.normal(size=(300, 2))
        y = (x[:, 0] + 0.4 * rng.normal(size=300) > 0).astype(float)
        tree = DecisionTreeClassifier(max_depth=4).fit(x, y)
        probs = tree.predict_proba(x)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_importances_golden(self):
        """Pins the split arithmetic bit-for-bit.  The quantile grid
        and positive-count totals are hoisted out of the per-feature
        loop in `_best_split`; this golden locks in that the hoist (or
        any future micro-optimisation) never shifts a split."""
        rng = np.random.default_rng(42)
        x = rng.normal(size=(300, 4))
        x[::9, 2] = np.nan
        y = ((x[:, 0] + 0.5 * x[:, 1]) > 0).astype(float)
        tree = DecisionTreeClassifier(max_depth=4).fit(x, y)
        assert tree.feature_importances_.tolist() == [
            0.6877909747339919,
            0.3122090252660081,
            0.0,
            0.0,
        ]

    def test_vectorized_predict_proba_matches_traversal(self, rng):
        """The batched predict_proba must route rows exactly as a
        one-row-at-a-time walk of the tree would (NaN goes right)."""
        x = rng.normal(size=(400, 3))
        x[::5, 1] = np.nan
        y = (np.nan_to_num(x[:, 1]) + x[:, 0] > 0).astype(float)
        tree = DecisionTreeClassifier(max_depth=5).fit(x, y)

        def walk(node, row):
            while node.feature is not None:
                value = row[node.feature]
                go_left = value <= node.threshold  # False for NaN
                node = node.left if go_left else node.right
            return node.prediction

        expected = np.array([walk(tree._root, row) for row in x])
        assert np.array_equal(tree.predict_proba(x), expected)
