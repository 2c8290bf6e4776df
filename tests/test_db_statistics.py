"""Unit tests for catalog statistics and the cost model."""

import pytest

from repro.db import ColumnType, Relation, SchemaError, TableSchema
from repro.db.statistics import TableStatistics, estimate_join_cardinality


def make_relation() -> Relation:
    schema = TableSchema.build(
        "t",
        {"a": ColumnType.INT, "b": ColumnType.TEXT, "c": ColumnType.FLOAT},
    )
    rows = [
        (1, "x", 1.0),
        (2, "x", None),
        (2, "y", 3.0),
        (3, None, 3.0),
    ]
    return Relation.from_rows(schema, rows)


class TestTableStatistics:
    def test_collect_all_columns(self):
        stats = TableStatistics(make_relation())
        assert stats.num_rows == 4
        # NULL / NaN cells are not values: a TEXT column counts its
        # non-NULL codes, a numeric one its non-NaN uniques.
        assert [stats.distinct(c) for c in ("a", "b", "c")] == [3, 2, 2]

    def test_distinct_accessor(self):
        stats = TableStatistics(make_relation())
        assert stats.distinct("a") == 3
        with pytest.raises(SchemaError, match="zz"):
            stats.distinct("zz")

    def test_empty_counts_one(self):
        empty = Relation.from_rows(
            TableSchema.build("e", {"a": ColumnType.INT}), []
        )
        assert TableStatistics(empty).distinct("a") == 1


class TestCardinalityEstimation:
    def test_key_fk_join(self):
        # |R|=1000 with key (1000 distinct), |S|=100 FK: expect ~100.
        estimate = estimate_join_cardinality(1000, 100, [(1000, 50)])
        assert estimate == pytest.approx(100.0)

    def test_multiple_conjuncts_reduce(self):
        single = estimate_join_cardinality(100, 100, [(10, 10)])
        double = estimate_join_cardinality(100, 100, [(10, 10), (5, 5)])
        assert double < single

    def test_never_negative(self):
        assert estimate_join_cardinality(0, 10, [(1, 1)]) == 0.0
