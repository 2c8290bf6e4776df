"""Unit tests for the query executor (joins, grouping, aggregates)."""

import numpy as np
import pytest

from repro.db import (
    ColumnType,
    Database,
    ExecutionError,
    Relation,
    TableSchema,
    parse_sql,
)
from repro.db.executor import execute, working_table
from tests.oracles.eager import cross_product, hash_join


def rel(name, cols, rows, pk=()):
    return Relation.from_rows(
        TableSchema.build(name, cols, primary_key=pk), rows
    )


@pytest.fixture()
def db() -> Database:
    d = Database("t")
    d.add_relation(
        rel(
            "orders",
            {"oid": ColumnType.INT, "cid": ColumnType.INT, "amount": ColumnType.FLOAT},
            [(1, 10, 5.0), (2, 10, 7.0), (3, 20, 1.0), (4, 99, 2.0)],
            pk=("oid",),
        )
    )
    d.add_relation(
        rel(
            "customers",
            {"cid": ColumnType.INT, "city": ColumnType.TEXT},
            [(10, "NYC"), (20, "LA"), (30, "SF")],
            pk=("cid",),
        )
    )
    return d


class TestHashJoin:
    def test_inner_join_matches(self, db):
        left = db.table("orders").prefix_columns("o.")
        right = db.table("customers").prefix_columns("c.")
        joined = hash_join(left, right, [("o.cid", "c.cid")])
        assert joined.num_rows == 3  # order 4 has no customer

    def test_join_is_symmetric_in_size(self, db):
        left = db.table("orders").prefix_columns("o.")
        right = db.table("customers").prefix_columns("c.")
        a = hash_join(left, right, [("o.cid", "c.cid")])
        b = hash_join(right, left, [("c.cid", "o.cid")])
        assert a.num_rows == b.num_rows

    def test_duplicate_columns_rejected(self, db):
        left = db.table("orders")
        with pytest.raises(ExecutionError):
            hash_join(left, left, [("cid", "cid")])

    def test_null_keys_never_match(self):
        left = rel("l", {"l.k": ColumnType.FLOAT}, [(1.0,), (None,)])
        right = rel("r", {"r.k": ColumnType.FLOAT}, [(1.0,), (None,)])
        joined = hash_join(left, right, [("l.k", "r.k")])
        assert joined.num_rows == 1

    def test_requires_condition(self, db):
        with pytest.raises(ExecutionError):
            hash_join(
                db.table("orders").prefix_columns("o."),
                db.table("customers").prefix_columns("c."),
                [],
            )

    def test_matches_nested_loop_semantics(self, rng):
        n, m = 40, 30
        left_rows = [(int(rng.integers(0, 8)),) for _ in range(n)]
        right_rows = [(int(rng.integers(0, 8)),) for _ in range(m)]
        left = rel("l", {"l.k": ColumnType.INT}, left_rows)
        right = rel("r", {"r.k": ColumnType.INT}, right_rows)
        joined = hash_join(left, right, [("l.k", "r.k")])
        expected = sum(
            1 for (a,) in left_rows for (b,) in right_rows if a == b
        )
        assert joined.num_rows == expected


class TestCrossProduct:
    def test_size(self, db):
        left = db.table("orders").prefix_columns("o.")
        right = db.table("customers").prefix_columns("c.")
        assert cross_product(left, right).num_rows == 12


class TestWorkingTable:
    def test_columns_are_alias_qualified(self, db):
        q = parse_sql(
            "SELECT city, COUNT(*) AS n FROM orders o, customers c "
            "WHERE o.cid = c.cid GROUP BY city"
        )
        work = working_table(q, db)
        assert "o.amount" in work.column_names
        assert "c.city" in work.column_names
        assert work.num_rows == 3

    def test_filter_pushdown_result(self, db):
        q = parse_sql(
            "SELECT city, COUNT(*) AS n FROM orders o, customers c "
            "WHERE o.cid = c.cid AND c.city = 'NYC' GROUP BY city"
        )
        assert working_table(q, db).num_rows == 2

    def test_no_join_condition_cross_product(self, db):
        q = parse_sql(
            "SELECT COUNT(*) AS n FROM orders o, customers c"
        )
        assert working_table(q, db).num_rows == 12

    def test_residual_predicate(self, db):
        q = parse_sql(
            "SELECT COUNT(*) AS n FROM orders o, customers c "
            "WHERE o.cid = c.cid AND o.amount > 4"
        )
        assert working_table(q, db).num_rows == 2


class TestAggregation:
    def test_count_star(self, db):
        result = execute(
            parse_sql(
                "SELECT city, COUNT(*) AS n FROM orders o, customers c "
                "WHERE o.cid = c.cid GROUP BY city"
            ),
            db,
        )
        rows = {d["city"]: d["n"] for d in result.to_dicts()}
        assert rows == {"NYC": 2, "LA": 1}

    def test_sum_avg_min_max(self, db):
        result = execute(
            parse_sql(
                "SELECT cid, SUM(amount) AS s, AVG(amount) AS a, "
                "MIN(amount) AS lo, MAX(amount) AS hi "
                "FROM orders GROUP BY cid"
            ),
            db,
        )
        by_cid = {d["cid"]: d for d in result.to_dicts()}
        assert by_cid[10]["s"] == 12.0
        assert by_cid[10]["a"] == 6.0
        assert by_cid[10]["lo"] == 5.0
        assert by_cid[10]["hi"] == 7.0

    def test_arithmetic_over_aggregates(self, db):
        result = execute(
            parse_sql(
                "SELECT cid, 1.0 * SUM(amount) / COUNT(*) AS rate "
                "FROM orders GROUP BY cid"
            ),
            db,
        )
        by_cid = {d["cid"]: d["rate"] for d in result.to_dicts()}
        assert by_cid[10] == pytest.approx(6.0)

    def test_global_aggregate_no_group_by(self, db):
        result = execute(
            parse_sql("SELECT COUNT(*) AS n FROM orders"), db
        )
        assert result.to_dicts() == [{"n": 4}]

    def test_group_counts_partition_input(self, db):
        result = execute(
            parse_sql("SELECT cid, COUNT(*) AS n FROM orders GROUP BY cid"),
            db,
        )
        assert sum(d["n"] for d in result.to_dicts()) == 4

    def test_pure_projection(self, db):
        result = execute(
            parse_sql("SELECT city FROM customers"), db
        )
        assert sorted(d["city"] for d in result.to_dicts()) == [
            "LA", "NYC", "SF",
        ]

    def test_mini_db_example(self, mini_db):
        result = mini_db.sql(
            "SELECT winner AS team, season, COUNT(*) AS win FROM game g "
            "WHERE winner = 'GSW' GROUP BY winner, season"
        )
        wins = {d["season"]: d["win"] for d in result.to_dicts()}
        assert wins == {"2012-13": 3, "2015-16": 6}
