"""Unit tests for the single-block SQL parser."""

import pytest

from repro.db import ParseError, parse_sql
from repro.db.expressions import And, Arithmetic, Comparison, Literal, Not
from repro.db.parser import MAX_NESTING_DEPTH
from repro.db.query import AggregateCall, contains_aggregate


class TestBasicParsing:
    def test_count_star_group_by(self):
        q = parse_sql(
            "SELECT winner AS team, season, COUNT(*) AS win FROM game g "
            "WHERE winner = 'GSW' GROUP BY winner, season"
        )
        assert [i.alias for i in q.select] == ["team", "season", "win"]
        assert q.tables[0].table == "game"
        assert q.tables[0].alias == "g"
        assert [r.name for r in q.group_by] == ["winner", "season"]

    def test_avg_with_join(self):
        q = parse_sql(
            "SELECT AVG(points) AS avg_pts, s.season_name "
            "FROM player p, player_game_stats pgs, game g, season s "
            "WHERE p.player_id = pgs.player_id AND g.game_date = pgs.game_date "
            "AND s.season_id = g.season_id AND p.player_name = 'LeBron James' "
            "GROUP BY s.season_name"
        )
        assert len(q.tables) == 4
        assert [i.alias for i in q.select] == ["avg_pts", "season_name"]
        assert [r.name for r in q.group_by] == ["s.season_name"]

    def test_arithmetic_over_aggregates(self):
        q = parse_sql(
            "SELECT insurance, 1.0 * SUM(flag) / COUNT(*) AS rate "
            "FROM admissions GROUP BY insurance"
        )
        rate = q.select[1].expression
        assert isinstance(rate, Arithmetic)
        assert contains_aggregate(rate)

    def test_implicit_alias(self):
        q = parse_sql("SELECT COUNT(*) FROM t GROUP BY x")
        # default alias for COUNT(*) is "count"; x must appear… it doesn't,
        # so use a group-by column query instead
        assert q.select[0].alias == "count"

    def test_alias_without_as(self):
        q = parse_sql("SELECT COUNT(*) win, season FROM game GROUP BY season")
        assert q.select[0].alias == "win"

    def test_string_literal_with_quote(self):
        q = parse_sql(
            "SELECT COUNT(*) FROM t WHERE name = 'O''Neal' GROUP BY name"
        )
        comparison = q.where
        assert isinstance(comparison, Comparison)
        assert isinstance(comparison.right, Literal)
        assert comparison.right.value == "O'Neal"

    def test_numeric_literals(self):
        q = parse_sql("SELECT COUNT(*) FROM t WHERE a >= 1.5 AND b = 3")
        assert isinstance(q.where, And)

    def test_trailing_semicolon(self):
        parse_sql("SELECT COUNT(*) FROM t;")

    def test_parenthesized_predicate(self):
        q = parse_sql("SELECT COUNT(*) FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        assert isinstance(q.where, And)

    def test_not_predicate(self):
        parse_sql("SELECT COUNT(*) FROM t WHERE NOT a = 1")

    def test_text_roundtrip(self):
        sql = "SELECT COUNT(*) AS c FROM t GROUP BY x"
        # x not selected: fine — only selected non-aggregates must be grouped
        assert str(parse_sql(sql)) == sql


class TestValidation:
    def test_ungrouped_select_column_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT a, COUNT(*) FROM t GROUP BY b")

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT COUNT(*) FROM t x, u x")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_sql("")


class TestUnsupportedFeatures:
    @pytest.mark.parametrize(
        "sql,fragment",
        [
            ("SELECT COUNT(*) FROM t ORDER BY a", "ORDER BY"),
            ("SELECT COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1", "HAVING"),
            ("SELECT COUNT(*) FROM t LIMIT 5", "LIMIT"),
            ("SELECT DISTINCT a FROM t", "DISTINCT"),
            ("SELECT COUNT(*) FROM t JOIN u ON t.a = u.a", "JOIN"),
            ("SELECT COUNT(*) FROM t WHERE a IN (1, 2)", "IN"),
            ("SELECT COUNT(*) FROM t WHERE a LIKE 'x%'", "LIKE"),
            ("SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 2", "BETWEEN"),
            ("SELECT (SELECT COUNT(*) FROM u) FROM t", "subquer"),
        ],
    )
    def test_rejected_with_clear_message(self, sql, fragment):
        with pytest.raises(ParseError) as exc:
            parse_sql(sql)
        assert fragment.lower().split()[0] in str(exc.value).lower()

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ParseError):
            AggregateCall(func="median")

    def test_sum_requires_argument(self):
        with pytest.raises(ParseError):
            AggregateCall(func="sum")


class TestLimits:
    """Hostile SQL ends in a typed ParseError, never a RecursionError."""

    DEEP = 3000

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(*) FROM t WHERE " + "(" * DEEP + "a = 1" + ")" * DEEP,
            "SELECT COUNT(*) FROM t WHERE a = " + "(" * DEEP + "1" + ")" * DEEP,
            "SELECT COUNT(*) FROM t WHERE " + "NOT " * DEEP + "a = 1",
            "SELECT " + " + ".join(["COUNT(*)"] * DEEP) + " AS x FROM t",
        ],
        ids=["predicate-parens", "expression-parens", "nots", "arithmetic"],
    )
    def test_deep_nesting_is_a_parse_error(self, sql):
        with pytest.raises(ParseError, match="nests deeper than"):
            parse_sql(sql)

    def test_nesting_up_to_the_bound_parses(self):
        depth = MAX_NESTING_DEPTH
        q = parse_sql(
            "SELECT COUNT(*) FROM t WHERE "
            + "NOT " * (depth - 1) + "(a = 1)"
        )
        assert isinstance(q.where, Not)
        q = parse_sql(
            "SELECT COUNT(*) FROM t WHERE a = " + "(" * depth + "1" + ")" * depth
        )
        assert q.where.right == Literal(1)
        with pytest.raises(ParseError, match="nests deeper than"):
            parse_sql("SELECT COUNT(*) FROM t WHERE " + "NOT " * depth + "(a = 1)")

    def test_huge_in_list(self):
        items = ", ".join(str(i) for i in range(100_000))
        with pytest.raises(ParseError, match="IN predicates"):
            parse_sql(f"SELECT COUNT(*) FROM t WHERE a IN ({items})")

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="cannot tokenize"):
            parse_sql("SELECT COUNT(*) FROM t WHERE name = 'O''Neal")
