"""Unit tests for numeric refinement (§3.4)."""

import numpy as np
import pytest

from repro.core import CajadeConfig, Pattern, RefinementGenerator, numeric_fragments
from repro.core.pattern import OP_EQ, OP_GE, OP_LE
from tests.oracles.mining import refinements


class TestNumericFragments:
    def test_three_fragments_min_median_max(self):
        values = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert numeric_fragments(values, 3) == [0.0, 2.0, 4.0]

    def test_nan_ignored(self):
        values = np.array([np.nan, 1.0, np.nan, 3.0])
        frags = numeric_fragments(values, 3)
        assert frags[0] == 1.0 and frags[-1] == 3.0

    def test_constant_column_empty(self):
        assert numeric_fragments(np.array([5.0, 5.0]), 3) == []

    def test_empty_column(self):
        assert numeric_fragments(np.array([]), 3) == []

    def test_single_fragment_median(self):
        """λ#frag = 1: one fragment is the whole domain, which has no
        boundary — and so no numeric refinement at all."""
        assert numeric_fragments(np.array([1.0, 2.0, 9.0]), 1) == []
        assert numeric_fragments(np.array([4.0]), 1) == []
        generator = RefinementGenerator(
            {"pts": np.linspace(0, 40, 21)}, ["pts"],
            CajadeConfig(num_fragments=1),
        )
        assert generator.extensions == []

    def test_boundaries_sorted_unique(self):
        values = np.array([1.0] * 50 + [2.0, 3.0])
        frags = numeric_fragments(values, 5)
        assert frags == sorted(set(frags))


class TestRefinementGenerator:
    def make(self, **kwargs) -> tuple[RefinementGenerator, dict]:
        columns = {
            "pts": np.linspace(0, 40, 21),
            "minutes": np.linspace(10, 38, 21),
            "team": np.array(["a"] * 21, dtype=object),
        }
        config = CajadeConfig(**kwargs)
        gen = RefinementGenerator(columns, ["pts", "minutes"], config)
        return gen, columns

    def test_extends_by_one_numeric_predicate(self):
        gen, _ = self.make(num_fragments=3)
        base = Pattern.from_dict({"team": (OP_EQ, "a")})
        refs = refinements(gen, base)
        assert refs
        for r in refs:
            assert r.size == 2
            assert set(base.predicates) <= set(r.predicates)

    def test_vacuous_extremes_skipped(self):
        gen, _ = self.make(num_fragments=3)
        refs = refinements(gen, Pattern())
        for r in refs:
            for pred in r.predicates:
                if pred.op == OP_LE:
                    assert pred.value != 40.0 and pred.value != 38.0
                if pred.op == OP_GE:
                    assert pred.value != 0.0 and pred.value != 10.0

    def test_used_attribute_not_reused(self):
        gen, _ = self.make(num_fragments=3)
        base = Pattern.from_dict({"pts": (OP_GE, 20.0)})
        refs = refinements(gen, base)
        for r in refs:
            new = set(r.attributes) - set(base.attributes)
            assert new == {"minutes"}

    def test_attr_num_cap(self):
        gen, _ = self.make(num_fragments=3, max_numeric_predicates=1)
        base = Pattern.from_dict({"pts": (OP_GE, 20.0)})
        assert refinements(gen, base) == []

    def test_flat_extension_table(self):
        """Extension ids: attribute by attribute, <= before >=, boundaries
        ascending, the two vacuous extremes left out."""
        gen, _ = self.make(num_fragments=3)
        assert [(p.attribute, p.op, p.value) for p in gen.extensions] == [
            ("pts", OP_LE, 0.0), ("pts", OP_LE, 20.0),
            ("pts", OP_GE, 20.0), ("pts", OP_GE, 40.0),
            ("minutes", OP_LE, 10.0), ("minutes", OP_LE, 24.0),
            ("minutes", OP_GE, 24.0), ("minutes", OP_GE, 38.0),
        ]
        assert gen.extension_attrs == ["pts", "minutes"]
        assert gen.extension_attr.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_fragments_of_accessor(self):
        gen, _ = self.make(num_fragments=3)
        assert len(gen.fragments_of("pts")) == 3
        assert gen.fragments_of("unknown") == []

    def test_more_fragments_more_refinements(self):
        gen3, _ = self.make(num_fragments=3)
        gen5, _ = self.make(num_fragments=5)
        assert len(refinements(gen5, Pattern())) > len(
            refinements(gen3, Pattern())
        )
