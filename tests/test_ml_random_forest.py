"""Unit tests for the CART random forest (the §3.1 forest oracle)."""

import numpy as np
import pytest

from tests.oracles.cart_forest import RandomForestClassifier


class TestRandomForest:
    def test_importance_ranks_informative_features(self, rng):
        n = 1500
        informative = rng.normal(size=n)
        noise = rng.normal(size=(n, 3))
        x = np.column_stack([noise[:, 0], informative, noise[:, 1], noise[:, 2]])
        y = (informative > 0).astype(float)
        forest = RandomForestClassifier(n_estimators=10, random_state=1).fit(x, y)
        assert np.argmax(forest.feature_importances_) == 1
        assert forest.feature_importances_.sum() == pytest.approx(1.0)

    def test_accuracy_on_learnable_task(self, rng):
        x = rng.normal(size=(800, 3))
        y = ((x[:, 0] + x[:, 1]) > 0).astype(float)
        forest = RandomForestClassifier(n_estimators=12, random_state=2).fit(x, y)
        assert forest.accuracy(x, y) > 0.9

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=(300, 3))
        y = (x[:, 0] > 0).astype(float)
        f1 = RandomForestClassifier(n_estimators=5, random_state=7).fit(x, y)
        f2 = RandomForestClassifier(n_estimators=5, random_state=7).fit(x, y)
        assert np.allclose(f1.feature_importances_, f2.feature_importances_)
        assert np.allclose(f1.predict_proba(x), f2.predict_proba(x))

    def test_different_seeds_differ(self, rng):
        x = rng.normal(size=(300, 5))
        y = (x[:, 0] + 0.5 * rng.normal(size=300) > 0).astype(float)
        f1 = RandomForestClassifier(n_estimators=5, random_state=1).fit(x, y)
        f2 = RandomForestClassifier(n_estimators=5, random_state=2).fit(x, y)
        assert not np.allclose(f1.predict_proba(x), f2.predict_proba(x))

    def test_max_samples_caps_bootstrap(self, rng):
        x = rng.normal(size=(5000, 2))
        y = (x[:, 0] > 0).astype(float)
        forest = RandomForestClassifier(
            n_estimators=3, max_samples=100, random_state=0
        ).fit(x, y)
        assert forest.accuracy(x, y) > 0.8

    def test_max_features_int(self, rng):
        x = rng.normal(size=(200, 4))
        y = (x[:, 0] > 0).astype(float)
        forest = RandomForestClassifier(
            n_estimators=3, max_features=2, random_state=0
        ).fit(x, y)
        assert len(forest.trees_) == 3

    def test_bad_max_features(self, rng):
        x = rng.normal(size=(50, 2))
        y = (x[:, 0] > 0).astype(float)
        forest = RandomForestClassifier(max_features=0.5)  # type: ignore
        with pytest.raises(ValueError):
            forest.fit(x, y)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            RandomForestClassifier().fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict(np.zeros((1, 2)))
