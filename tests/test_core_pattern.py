"""Unit tests for summarization patterns (Definition 5)."""

import numpy as np
import pytest

from repro.core import OP_EQ, OP_GE, OP_LE, Pattern, PatternPredicate


@pytest.fixture()
def columns() -> dict:
    return {
        "player": np.array(
            ["Curry", "Curry", "Green", None, "Curry"], dtype=object
        ),
        "pts": np.array([30.0, 20.0, 8.0, 25.0, np.nan]),
        "minutes": np.array([36, 30, 20, 28, 33], dtype=np.int64),
    }


class TestPredicate:
    def test_equality_on_categorical(self, columns):
        pred = PatternPredicate("player", OP_EQ, "Curry")
        assert pred.matches_array(columns["player"]).tolist() == [
            True, True, False, False, True,
        ]

    def test_null_never_matches(self, columns):
        pred = PatternPredicate("pts", OP_GE, 0)
        assert pred.matches_array(columns["pts"]).tolist() == [
            True, True, True, True, False,
        ]

    def test_le_ge_on_numeric(self, columns):
        le = PatternPredicate("pts", OP_LE, 20.0)
        assert le.matches_array(columns["pts"]).tolist() == [
            False, True, True, False, False,
        ]
        ge = PatternPredicate("minutes", OP_GE, 30)
        assert ge.matches_array(columns["minutes"]).tolist() == [
            True, True, False, False, True,
        ]

    def test_inequality_on_categorical_rejected(self, columns):
        pred = PatternPredicate("player", OP_LE, "Curry")
        with pytest.raises(ValueError):
            pred.matches_array(columns["player"])

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError):
            PatternPredicate("x", "<", 1)

    def test_describe_rounds_floats(self):
        pred = PatternPredicate("pts", OP_GE, 23.000000001)
        assert pred.describe() == "pts>=23"

    def test_describe_handles_nan_and_inf(self):
        """NaN constants surface through LCA singletons on object
        columns; describe must render them instead of raising."""
        assert (
            PatternPredicate("a", OP_EQ, float("nan")).describe() == "a=nan"
        )
        assert (
            PatternPredicate("a", OP_GE, float("inf")).describe() == "a>=inf"
        )


class TestPattern:
    def test_empty_pattern_matches_all(self, columns):
        assert Pattern().match_mask(columns).all()
        assert Pattern().size == 0

    def test_conjunction(self, columns):
        pattern = Pattern(
            [
                PatternPredicate("player", OP_EQ, "Curry"),
                PatternPredicate("pts", OP_GE, 23),
            ]
        )
        assert pattern.match_mask(columns).tolist() == [
            True, False, False, False, False,
        ]

    def test_structural_equality_and_hash(self):
        p1 = Pattern(
            [
                PatternPredicate("a", OP_EQ, 1),
                PatternPredicate("b", OP_LE, 2),
            ]
        )
        p2 = Pattern(
            [
                PatternPredicate("b", OP_LE, 2),
                PatternPredicate("a", OP_EQ, 1),
            ]
        )
        assert p1 == p2
        assert hash(p1) == hash(p2)
        assert len({p1, p2}) == 1

    def test_duplicate_attribute_op_rejected(self):
        with pytest.raises(ValueError):
            Pattern(
                [
                    PatternPredicate("a", OP_EQ, 1),
                    PatternPredicate("a", OP_EQ, 2),
                ]
            )

    def test_both_bounds_on_same_attribute_allowed(self, columns):
        pattern = Pattern(
            [
                PatternPredicate("pts", OP_GE, 10),
                PatternPredicate("pts", OP_LE, 25),
            ]
        )
        assert pattern.match_mask(columns).tolist() == [
            False, True, False, True, False,
        ]

    def test_refined_adds_predicate(self):
        base = Pattern([PatternPredicate("a", OP_EQ, "x")])
        refined = base.refined("b", OP_GE, 5)
        assert refined.size == 2
        assert set(base.predicates) < set(refined.predicates)
        assert base.size == 1  # immutability

    def test_pattern_is_immutable(self):
        pattern = Pattern()
        with pytest.raises(AttributeError):
            pattern.predicates = ()

    def test_from_dict(self):
        pattern = Pattern.from_dict({"pts": (OP_GE, 23), "p": (OP_EQ, "C")})
        assert pattern.uses("pts")
        assert pattern.value_of("p") == "C"

    def test_value_of_missing_raises(self):
        with pytest.raises(KeyError):
            Pattern().value_of("zzz")

    def test_missing_column_raises(self, columns):
        pattern = Pattern([PatternPredicate("nope", OP_EQ, 1)])
        with pytest.raises(KeyError):
            pattern.match_mask(columns)

    def test_num_numeric_predicates(self):
        pattern = Pattern.from_dict(
            {"pts": (OP_GE, 23), "player": (OP_EQ, "C")}
        )
        assert pattern.num_numeric_predicates({"pts"}) == 1
        assert pattern.num_numeric_predicates(set()) == 0

    def test_describe_sorted(self):
        pattern = Pattern.from_dict(
            {"b": (OP_LE, 2), "a": (OP_EQ, "x")}
        )
        assert pattern.describe() == "a=x ∧ b<=2"

    def test_empty_describe(self):
        assert Pattern().describe() == "(*)"

    def test_first_values_in_predicate_order(self):
        # "<=" sorts before ">=", so pts reports its upper bound; the
        # mapping iterates in sorted-attribute order however it is built.
        pattern = Pattern(
            [
                PatternPredicate("pts", OP_GE, 10),
                PatternPredicate("team", OP_EQ, "GSW"),
                PatternPredicate("pts", OP_LE, 30),
                PatternPredicate("age", OP_EQ, 27),
            ]
        )
        assert list(pattern.first_values.items()) == [
            ("age", 27), ("pts", 30), ("team", "GSW"),
        ]
        assert pattern.value_of("pts") == 30
        assert pattern.size == 3
        assert pattern.attributes == frozenset({"age", "pts", "team"})
        assert Pattern().first_values == {} and Pattern().size == 0

    def test_derived_views_are_computed_once(self):
        pattern = Pattern.from_dict({"b": (OP_LE, 2), "a": (OP_EQ, "x")})
        assert pattern.first_values is pattern.first_values
        assert pattern.describe() is pattern.describe()
        # The caches are derived state: equality and hashing ignore them.
        fresh = Pattern.from_dict({"a": (OP_EQ, "x"), "b": (OP_LE, 2)})
        assert fresh == pattern and hash(fresh) == hash(pattern)
        with pytest.raises(AttributeError):
            pattern._first = {}


class TestRefinementMonotonicity:
    """Adding a predicate can only shrink the match set (Prop 3.1 core)."""

    def test_match_set_shrinks(self, columns):
        base = Pattern([PatternPredicate("player", OP_EQ, "Curry")])
        refined = base.refined("pts", OP_GE, 25)
        base_mask = base.match_mask(columns)
        refined_mask = refined.match_mask(columns)
        assert (refined_mask <= base_mask).all()
