"""Oracle for the §3.1 relevance forest: the per-node recursive CART learner.

These are the two classes ``repro.ml`` shipped as ``decision_tree.py`` and
``random_forest.py`` before the histogram forest
(:class:`repro.ml.hist_forest.HistRandomForestClassifier`) became the only
learner, kept verbatim: binary classification, Gini impurity,
quantile-candidate splits per node (``np.nanquantile`` over the node's
rows), impurity-decrease feature importances, bootstrap bagging.  With
``max_features`` set to every feature the production learner must
reproduce this one **bit for bit** — the twin contract is trees and
importances: bootstrap samples, each tree's preorder of (feature,
threshold) and node count, per-tree and forest importances
(``tests/test_ml_hist_forest.py``).  Predictions are this oracle's own:
§3.1 only ranks, so the production learner has no predict.

scikit-learn is deliberately not used: the environment is offline and the
substrate must be self-contained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


def gini_impurity(positive_fraction: float) -> float:
    """Gini impurity of a binary distribution."""
    p = positive_fraction
    return 2.0 * p * (1.0 - p)


@dataclass
class _Node:
    """One node of a fitted tree (leaf when ``feature`` is None)."""

    prediction: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTreeClassifier:
    """Binary CART classifier with quantile candidate thresholds.

    Parameters:
        max_depth: depth cap of the tree.
        min_samples_split: do not split nodes smaller than this.
        max_features: number of features examined per split (None = all).
        n_thresholds: candidate thresholds per feature per split.
        rng: numpy Generator for feature subsampling (forest injection).
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_split: int = 10,
        max_features: int | None = None,
        n_thresholds: int = 24,
        rng: np.random.Generator | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.n_thresholds = n_thresholds
        self.rng = rng or np.random.default_rng(0)
        self._root: _Node | None = None
        self._n_features = 0
        self.feature_importances_: np.ndarray | None = None

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Fit on a float feature matrix X and a 0/1 label vector y."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if len(X) != len(y):
            raise ValueError("X and y must have the same number of rows")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._n_features = X.shape[1]
        self._importance = np.zeros(self._n_features)
        self._total = len(y)
        self._root = self._grow(X, y, depth=0)
        total = self._importance.sum()
        if total > 0:
            self.feature_importances_ = self._importance / total
        else:
            self.feature_importances_ = np.zeros(self._n_features)
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        prediction = float(y.mean())
        node = _Node(prediction=prediction)
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or prediction in (0.0, 1.0)
        ):
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        feature, threshold, gain = split
        self._importance[feature] += gain * len(y) / self._total
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[int, float, float] | None:
        n = len(y)
        parent_impurity = gini_impurity(float(y.mean()))
        if parent_impurity == 0.0:
            return None
        features = np.arange(self._n_features)
        if self.max_features is not None and self.max_features < len(features):
            features = self.rng.choice(
                features, size=self.max_features, replace=False
            )
        # Node-level precomputation, hoisted out of the feature loop:
        # the positive-label total is feature-independent, and the
        # quantile candidate thresholds of every examined feature come
        # from one nanquantile call (non-finite cells masked to NaN, so
        # per-column results equal np.quantile over the finite values).
        total_pos = float((y > 0.5).sum())
        examined = X[:, features]
        finite_mask = np.isfinite(examined)
        finite_counts = finite_mask.sum(axis=0)
        quantiles = np.linspace(0.0, 1.0, self.n_thresholds + 2)[1:-1]
        splittable = finite_counts >= 2
        all_candidates = np.full((len(quantiles), len(features)), np.nan)
        if splittable.any():
            with np.errstate(invalid="ignore"):
                all_candidates[:, splittable] = np.nanquantile(
                    np.where(
                        finite_mask[:, splittable],
                        examined[:, splittable],
                        np.nan,
                    ),
                    quantiles,
                    axis=0,
                )
        best: tuple[int, float, float] | None = None
        best_gain = 1e-12
        for index, feature in enumerate(features):
            if not splittable[index]:
                continue
            col = examined[:, index]
            candidates = np.unique(all_candidates[:, index])
            # Vectorized gain over all candidate thresholds at once.
            below = col[:, None] <= candidates[None, :]
            n_left = below.sum(axis=0).astype(np.float64)
            n_right = n - n_left
            valid = (n_left > 0) & (n_right > 0)
            if not valid.any():
                continue
            pos_left = (below & (y[:, None] > 0.5)).sum(axis=0)
            with np.errstate(invalid="ignore", divide="ignore"):
                p_left = pos_left / n_left
                p_right = (total_pos - pos_left) / n_right
                child = (
                    n_left * 2.0 * p_left * (1.0 - p_left)
                    + n_right * 2.0 * p_right * (1.0 - p_right)
                ) / n
            gain = parent_impurity - child
            gain[~valid] = -np.inf
            best_here = int(np.argmax(gain))
            if gain[best_here] > best_gain:
                best_gain = float(gain[best_here])
                best = (int(feature), float(candidates[best_here]), best_gain)
        return best

    # ------------------------------------------------------------------
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probability for each row of X.

        Rows are routed through the tree level by level with boolean
        masks — one ``<=`` comparison per (node, its rows) instead of a
        per-row Python walk, identical predictions.
        """
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X))
        frontier: list[tuple[_Node, np.ndarray]] = [
            (self._root, np.arange(len(X)))
        ]
        while frontier:
            next_frontier: list[tuple[_Node, np.ndarray]] = []
            for node, rows in frontier:
                if node.is_leaf:
                    out[rows] = node.prediction
                    continue
                assert node.left is not None and node.right is not None
                mask = X[rows, node.feature] <= node.threshold
                next_frontier.append((node.left, rows[mask]))
                next_frontier.append((node.right, rows[~mask]))
            frontier = next_frontier
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """0/1 predictions at the 0.5 threshold."""
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

    @property
    def depth(self) -> int:
        """The realized depth of the fitted tree."""

        def walk(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise RuntimeError("tree is not fitted")
        return walk(self._root)


class RandomForestClassifier:
    """An ensemble of CART trees over bootstrap samples.

    Parameters:
        n_estimators: number of trees.
        max_depth: per-tree depth cap.
        max_features: features per split; "sqrt" (default) or an int.
        max_samples: rows per bootstrap sample (cap; None = all rows).
        random_state: seed for reproducibility.
    """

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int = 8,
        max_features: str | int = "sqrt",
        max_samples: int | None = 4000,
        random_state: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.max_samples = max_samples
        self.random_state = random_state
        self.trees_: list[DecisionTreeClassifier] = []
        self.feature_importances_: np.ndarray | None = None

    def _features_per_split(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(math.sqrt(n_features)))
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, n_features))
        raise ValueError(f"bad max_features: {self.max_features!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Fit the ensemble on float features X and 0/1 labels y."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        rng = np.random.default_rng(self.random_state)
        n_rows, n_features = X.shape
        sample_size = n_rows
        if self.max_samples is not None:
            sample_size = min(n_rows, self.max_samples)
        per_split = self._features_per_split(n_features)

        self.trees_ = []
        importances = np.zeros(n_features)
        for _ in range(self.n_estimators):
            indices = rng.integers(0, n_rows, size=sample_size)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                max_features=per_split,
                rng=rng,
            )
            tree.fit(X[indices], y[indices])
            self.trees_.append(tree)
            assert tree.feature_importances_ is not None
            importances += tree.feature_importances_
        total = importances.sum()
        if total > 0:
            self.feature_importances_ = importances / total
        else:
            self.feature_importances_ = np.zeros(n_features)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean positive-class probability across trees."""
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        X = np.asarray(X, dtype=np.float64)
        probs = np.zeros(len(X))
        for tree in self.trees_:
            probs += tree.predict_proba(X)
        return probs / len(self.trees_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

    def accuracy(self, X: np.ndarray, y: np.ndarray) -> float:
        """Fraction of correct 0/1 predictions."""
        predictions = self.predict(X)
        return float((predictions == np.asarray(y, dtype=np.int64)).mean())


class _AllFeaturesForest(RandomForestClassifier):
    """This oracle behind ``HistRandomForestClassifier``'s constructor and
    ``fit`` signature, examining every feature at every split."""

    nodes_grown = histograms_built = splits_evaluated = 0

    def __init__(self, n_estimators, max_depth, max_samples, random_state):
        super().__init__(
            n_estimators=n_estimators,
            max_depth=max_depth,
            max_samples=max_samples,
            random_state=random_state,
        )

    def fit(self, X, y):
        self.max_features = np.asarray(X).shape[1]
        return super().fit(X, y)

    def importances_at(self, columns, width):
        assert np.array_equal(columns, np.arange(width))
        return self.feature_importances_.copy()


def swap_in(monkeypatch) -> None:
    """Make ``filter_attributes`` rank relevance with this oracle, fitted
    on every column of its matrix (no column reduction)."""
    monkeypatch.setattr(
        "repro.core.attribute_filter.HistRandomForestClassifier",
        _AllFeaturesForest,
    )
    monkeypatch.setattr(
        "repro.core.attribute_filter.splittable_columns",
        lambda X: np.arange(np.shape(X)[1]),
    )
