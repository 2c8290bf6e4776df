"""Unit tests for correlation-based attribute clustering."""

import numpy as np
import pytest

from repro.ml import (
    cluster_attributes,
    correlation_matrix,
    encode_columns,
    pick_cluster_representatives,
)


class TestEncodeColumns:
    def test_numeric_passthrough(self):
        cols = {"a": np.array([1.0, 2.0, 3.0])}
        m = encode_columns(cols)
        assert m.shape == (3, 1)
        assert np.allclose(m[:, 0], [1, 2, 3])

    def test_text_label_encoding(self):
        cols = {"a": np.array(["x", "y", "x"], dtype=object)}
        m = encode_columns(cols)
        assert m[:, 0].tolist() == [0.0, 1.0, 0.0]

    def test_nan_filled_with_mean(self):
        cols = {"a": np.array([1.0, np.nan, 3.0])}
        m = encode_columns(cols)
        assert m[1, 0] == pytest.approx(2.0)

    def test_empty(self):
        assert encode_columns({}).size == 0


class TestCorrelationMatrix:
    def test_diagonal_ones(self, rng):
        m = rng.normal(size=(100, 3))
        corr = correlation_matrix(m)
        assert np.allclose(np.diag(corr), 1.0)

    def test_absolute_value(self, rng):
        x = rng.normal(size=200)
        m = np.column_stack([x, -x])
        corr = correlation_matrix(m)
        assert corr[0, 1] == pytest.approx(1.0)

    def test_constant_column_zero_corr(self, rng):
        m = np.column_stack([rng.normal(size=50), np.ones(50)])
        corr = correlation_matrix(m)
        assert corr[0, 1] == 0.0


class TestClustering:
    def test_correlated_pair_clusters(self, rng):
        x = rng.normal(size=500)
        cols = {
            "age": x,
            "birth_offset": -x + 0.001 * rng.normal(size=500),
            "other": rng.normal(size=500),
        }
        clusters = cluster_attributes(cols, threshold=0.9)
        grouped = {frozenset(c.members) for c in clusters}
        assert frozenset({"age", "birth_offset"}) in grouped
        assert frozenset({"other"}) in grouped

    def test_one_representative_each(self, rng):
        x = rng.normal(size=300)
        cols = {"a": x, "b": 2 * x, "c": rng.normal(size=300)}
        clusters = cluster_attributes(cols)
        reps = pick_cluster_representatives(clusters)
        assert len(reps) == 2
        for cluster in clusters:
            assert cluster.representative in cluster.members

    def test_threshold_controls_merging(self, rng):
        x = rng.normal(size=500)
        y = x + rng.normal(size=500)  # corr ≈ 0.7
        cols = {"a": x, "b": y}
        loose = cluster_attributes(cols, threshold=0.5)
        tight = cluster_attributes(cols, threshold=0.95)
        assert len(loose) == 1
        assert len(tight) == 2

    def test_transitive_single_linkage(self, rng):
        x = rng.normal(size=800)
        cols = {
            "a": x,
            "b": x + 0.05 * rng.normal(size=800),
            "c": x + 0.10 * rng.normal(size=800),
        }
        clusters = cluster_attributes(cols, threshold=0.9)
        assert len(clusters) == 1
        assert set(clusters[0].members) == {"a", "b", "c"}

    def test_empty_input(self):
        assert cluster_attributes({}) == []

    def test_deterministic_order(self, rng):
        cols = {"z": rng.normal(size=50), "a": rng.normal(size=50)}
        clusters = cluster_attributes(cols)
        assert [c.representative for c in clusters] == ["a", "z"]

    def test_categorical_identity_redundancy(self, rng):
        # An id column and its name column are perfectly correlated.
        ids = rng.integers(0, 5, size=400)
        names = np.array([f"name{i}" for i in ids], dtype=object)
        cols = {"player_id": ids.astype(float), "player_name": names}
        clusters = cluster_attributes(cols, threshold=0.9)
        assert len(clusters) == 1


class TestKernelCodeReuse:
    """Kernel-supplied first-occurrence codes must yield the same
    Cramér's V values and the same clusters as from-scratch encoding."""

    def make_columns(self, rng, with_nulls=True):
        cats = ["red", "green", "blue"]
        if with_nulls:
            cats.append(None)
        a = np.array(
            [cats[i] for i in rng.integers(0, len(cats), size=300)],
            dtype=object,
        )
        # b is determined by a (an alias), c is independent
        b = np.array(
            [None if v is None else f"code-{v}" for v in a], dtype=object
        )
        c = np.array(
            [f"t{i}" for i in rng.integers(0, 4, size=300)], dtype=object
        )
        return {"a": a, "b": b, "c": c, "n": rng.normal(size=300)}

    def kernel_codes(self, cols):
        from repro.core.kernel import MiningKernel

        n = len(next(iter(cols.values())))
        kernel = MiningKernel(cols, np.arange(n), m1=n)
        return {
            name: codes
            for name in cols
            if (codes := kernel.ml_codes(name)) is not None
        }

    def test_cramers_v_identical(self, rng):
        from repro.ml import cramers_v

        cols = self.make_columns(rng)
        codes = self.kernel_codes(cols)
        for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
            assert cramers_v(cols[x], cols[y]) == cramers_v(
                cols[x], cols[y], a_codes=codes[x], b_codes=codes[y]
            )

    def test_clusters_identical(self, rng):
        cols = self.make_columns(rng)
        codes = self.kernel_codes(cols)
        without = cluster_attributes(cols, threshold=0.9, same_type_only=True)
        with_codes = cluster_attributes(
            cols, threshold=0.9, same_type_only=True, codes=codes
        )
        assert without == with_codes
        grouped = {frozenset(c.members) for c in with_codes}
        assert frozenset({"a", "b"}) in grouped

    def test_association_matrix_identical(self, rng):
        from repro.ml import association_matrix

        cols = self.make_columns(rng, with_nulls=False)
        codes = self.kernel_codes(cols)
        np.testing.assert_array_equal(
            association_matrix(cols), association_matrix(cols, codes=codes)
        )


class TestSameTypeOnly:
    """Feature selection clusters with ``same_type_only=True``: the
    numeric×categorical associations are never read, so never computed."""

    def make_columns(self, rng):
        base = rng.integers(0, 6, size=250)
        return {
            "id": base.astype(float),
            "id_scaled": base * 3.0 + 1.0,
            "noise": rng.normal(size=250),
            "name": np.array([f"n{i}" for i in base], dtype=object),
            "alias": np.array([f"a{i}" for i in base], dtype=object),
            "other": np.array(
                [f"o{i}" for i in rng.integers(0, 3, size=250)], dtype=object
            ),
        }

    def test_same_type_entries_unchanged_cross_type_zero(self, rng):
        from repro.ml import association_matrix

        cols = self.make_columns(rng)
        full = association_matrix(cols)
        same = association_matrix(cols, same_type_only=True)
        is_text = np.array([cols[n].dtype == object for n in cols])
        same_type = is_text[:, None] == is_text[None, :]
        np.testing.assert_array_equal(same[same_type], full[same_type])
        assert (full[~same_type] > 0).any()
        assert not same[~same_type].any()

    def test_clusters_equal_those_of_the_full_matrix(self, rng, monkeypatch):
        import repro.ml.varclus as varclus

        cols = self.make_columns(rng)
        fast = cluster_attributes(cols, threshold=0.9, same_type_only=True)
        full_matrix = varclus.association_matrix
        monkeypatch.setattr(
            varclus,
            "association_matrix",
            lambda columns, same_type_only=False, **rest: full_matrix(
                columns, **rest
            ),
        )
        assert cluster_attributes(
            cols, threshold=0.9, same_type_only=True
        ) == fast
        assert {frozenset(c.members) for c in fast} == {
            frozenset({"id", "id_scaled"}),
            frozenset({"noise"}),
            frozenset({"name", "alias"}),
            frozenset({"other"}),
        }

    def test_numeric_columns_are_not_binned(self, rng, monkeypatch):
        import repro.ml.varclus as varclus

        def no_numeric(values, max_bins=12):
            assert values.dtype == object, "numeric column quantile-binned"
            return original(values, max_bins)

        original = varclus._codes
        monkeypatch.setattr(varclus, "_codes", no_numeric)
        cluster_attributes(
            self.make_columns(rng), threshold=0.9, same_type_only=True
        )

    def test_contingency_table_matches_scatter_add(self, rng):
        from repro.ml import cramers_v

        a = rng.integers(0, 7, size=500)
        b = (a + rng.integers(0, 2, size=500)) % 5
        table = np.zeros((7, 5))
        np.add.at(table, (a, b), 1.0)
        expected = table.sum(1, keepdims=True) @ table.sum(0, keepdims=True) / 500
        chi2 = np.nansum((table - expected) ** 2 / expected)
        assert cramers_v(None, None, a_codes=a, b_codes=b) == float(
            np.sqrt(min(1.0, chi2 / (500 * 4)))
        )
