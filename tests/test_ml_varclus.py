"""Unit tests for correlation-based attribute clustering."""

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.core.kernel import MiningKernel
from repro.db.relation import encode_object_column
from repro.ml import (
    cluster_attributes,
    correlation_matrix,
    encode_columns,
    pick_cluster_representatives,
)
from tests.conftest import apt_of

settings.register_profile(
    "ci", settings(max_examples=200, deadline=None, derandomize=True)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def text_codes(columns: dict) -> dict:
    """First-occurrence label codes of the object columns, as the
    mining kernel would hand them over."""
    return {
        name: encode_object_column(values).codes
        for name, values in columns.items()
        if values.dtype == object
    }


def split(columns: dict, codes: dict | None = None) -> tuple:
    """``(names, numeric, codes)`` of a column dict: the object columns'
    label codes (``text_codes`` unless given) and the rest as floats."""
    numeric = {
        name: values.astype(np.float64)
        for name, values in columns.items()
        if values.dtype != object
    }
    return list(columns), numeric, text_codes(columns) if codes is None else codes


class TestEncodeColumns:
    def test_numeric_passthrough(self):
        cols = {"a": np.array([1.0, 2.0, 3.0])}
        m = encode_columns(*split(cols))
        assert m.shape == (3, 1)
        assert np.allclose(m[:, 0], [1, 2, 3])

    def test_text_label_encoding(self):
        """A TEXT column is its label codes; its values are not read."""
        cols = {"a": np.array(["x", "y", "x"], dtype=object), "n": np.ones(3)}
        m = encode_columns(*split(cols))
        assert m[:, 0].tolist() == [0.0, 1.0, 0.0]
        assert m[:, 1].tolist() == [1.0, 1.0, 1.0]
        # A name with no codes is numeric, and "a" has no values.
        with pytest.raises(KeyError):
            encode_columns(*split(cols, codes={}))

    def test_nan_filled_with_mean(self):
        cols = {"a": np.array([1.0, np.nan, 3.0])}
        m = encode_columns(*split(cols))
        assert m[1, 0] == pytest.approx(2.0)

    def test_empty(self):
        assert encode_columns([], {}, {}).size == 0


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
        clusters = cluster_attributes(*split(cols), threshold=0.9)
        grouped = {frozenset(c.members) for c in clusters}
        assert frozenset({"age", "birth_offset"}) in grouped
        assert frozenset({"other"}) in grouped

    def test_one_representative_each(self, rng):
        x = rng.normal(size=300)
        cols = {"a": x, "b": 2 * x, "c": rng.normal(size=300)}
        clusters = cluster_attributes(*split(cols))
        reps = pick_cluster_representatives(clusters)
        assert len(reps) == 2
        for cluster in clusters:
            assert cluster.representative in cluster.members

    def test_threshold_controls_merging(self, rng):
        x = rng.normal(size=500)
        y = x + rng.normal(size=500)  # corr ≈ 0.7
        cols = {"a": x, "b": y}
        loose = cluster_attributes(*split(cols), threshold=0.5)
        tight = cluster_attributes(*split(cols), threshold=0.95)
        assert len(loose) == 1
        assert len(tight) == 2

    def test_transitive_single_linkage(self, rng):
        x = rng.normal(size=800)
        cols = {
            "a": x,
            "b": x + 0.05 * rng.normal(size=800),
            "c": x + 0.10 * rng.normal(size=800),
        }
        clusters = cluster_attributes(*split(cols), threshold=0.9)
        assert len(clusters) == 1
        assert set(clusters[0].members) == {"a", "b", "c"}

    def test_empty_input(self):
        assert cluster_attributes([], {}, {}) == []

    def test_deterministic_order(self, rng):
        cols = {"z": rng.normal(size=50), "a": rng.normal(size=50)}
        clusters = cluster_attributes(*split(cols))
        assert [c.representative for c in clusters] == ["a", "z"]

    def test_categorical_identity_redundancy(self, rng):
        # A code column and the name column it determines are perfectly
        # associated (Cramér's V; their label codes are a permutation).
        ids = rng.integers(0, 5, size=400)
        cols = {
            "player_code": np.array([f"#{i}" for i in ids], dtype=object),
            "player_name": np.array([f"name{i}" for i in ids], dtype=object),
        }
        clusters = cluster_attributes(*split(cols), threshold=0.9)
        assert len(clusters) == 1


class TestKernelCodeReuse:
    """Codes gathered from a table-level encoding through row indices
    (how every APT's kernel gets them) must yield the same Cramér's V
    values and the same clusters as encoding the gathered column itself."""

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

    def gathered(self, cols, rng):
        """``(gathered columns, their gathered codes)``: ``cols`` is a
        base table, read through a row sample with repeats as a join's
        index vector would."""
        rows = rng.integers(0, 300, size=200)
        kernel = MiningKernel(
            apt_of(cols), rows, np.arange(len(rows)), m1=len(rows)
        )
        sampled = {name: values[rows] for name, values in cols.items()}
        codes = {name: kernel.ml_codes(name) for name in text_codes(sampled)}
        return sampled, codes

    def test_cramers_v_identical(self, rng):
        from repro.ml import cramers_v

        cols, gathered = self.gathered(self.make_columns(rng), rng)
        direct = text_codes(cols)
        for x, y in (("a", "b"), ("a", "c"), ("b", "c")):
            assert cramers_v(direct[x], direct[y]) == cramers_v(
                gathered[x], gathered[y]
            )
        assert cramers_v(direct["a"], direct["b"]) == pytest.approx(1.0)

    def test_clusters_identical(self, rng):
        cols, gathered = self.gathered(self.make_columns(rng), rng)
        without = cluster_attributes(*split(cols), threshold=0.9)
        with_codes = cluster_attributes(*split(cols, gathered), threshold=0.9)
        assert without == with_codes
        grouped = {frozenset(c.members) for c in with_codes}
        assert frozenset({"a", "b"}) in grouped

    def test_association_matrix_identical(self, rng):
        from repro.ml import association_matrix

        cols, gathered = self.gathered(
            self.make_columns(rng, with_nulls=False), rng
        )
        np.testing.assert_array_equal(
            association_matrix(*split(cols)),
            association_matrix(*split(cols, gathered)),
        )


class TestSameTypeOnly:
    """Association is measured within a kind: a numeric and a
    categorical attribute never merge, and no numeric column is ever
    binned to find out."""

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
        from repro.ml import association_matrix, cramers_v

        cols = self.make_columns(rng)
        codes = text_codes(cols)
        names = list(cols)
        matrix = association_matrix(*split(cols))
        is_text = np.array([cols[n].dtype == object for n in names])
        same_type = is_text[:, None] == is_text[None, :]
        assert not matrix[~same_type].any()
        numeric = [n for n in names if n not in codes]
        np.testing.assert_array_equal(matrix, matrix.T)
        np.testing.assert_array_equal(
            np.triu(matrix[np.ix_(~is_text, ~is_text)]),
            np.triu(
                correlation_matrix(
                    np.column_stack([cols[n] for n in numeric])
                )
            ),
        )
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                if i < j and a in codes and b in codes:
                    assert matrix[i, j] == matrix[j, i] == cramers_v(
                        codes[a], codes[b]
                    )

    def test_clusters_equal_those_of_the_full_matrix(self, rng):
        """``id`` determines ``name`` as surely as ``alias`` does, but
        only same-kind attributes cluster."""
        cols = self.make_columns(rng)
        clusters = cluster_attributes(*split(cols), threshold=0.9)
        assert {frozenset(c.members) for c in clusters} == {
            frozenset({"id", "id_scaled"}),
            frozenset({"noise"}),
            frozenset({"name", "alias"}),
            frozenset({"other"}),
        }

    def test_numeric_columns_are_not_binned(self, rng, monkeypatch):
        """Cramér's V is computed for the three categorical pairs and
        nothing else gets label codes."""
        import repro.ml.varclus as varclus

        cols = self.make_columns(rng)
        codes = text_codes(cols)
        leveled = []
        original = varclus._with_levels

        def recording(column_codes):
            leveled.append(column_codes)
            return original(column_codes)

        monkeypatch.setattr(varclus, "_with_levels", recording)
        cluster_attributes(*split(cols, codes), threshold=0.9)
        assert len(leveled) == 3
        assert all(
            any(seen is codes[name] for name in codes) for seen in leveled
        )

    def test_contingency_table_matches_scatter_add(self, rng):
        from repro.ml import cramers_v

        a = rng.integers(0, 7, size=500)
        b = (a + rng.integers(0, 2, size=500)) % 5
        table = np.zeros((7, 5))
        np.add.at(table, (a, b), 1.0)
        expected = table.sum(1, keepdims=True) @ table.sum(0, keepdims=True) / 500
        chi2 = np.nansum((table - expected) ** 2 / expected)
        assert cramers_v(a, b) == float(np.sqrt(min(1.0, chi2 / (500 * 4))))
