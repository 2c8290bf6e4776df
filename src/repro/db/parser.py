"""A small SQL parser for the paper's query class.

Supports single-block ``SELECT ... FROM ... [WHERE ...] [GROUP BY ...]``
queries with aggregate functions (COUNT/SUM/AVG/MIN/MAX), arithmetic over
aggregates, comma-style joins and explicit ``JOIN ... ON``.  Anything
outside this class (subqueries, HAVING, ORDER BY, set operations, ...)
raises :class:`~repro.db.errors.ParseError` naming the unsupported feature,
matching the paper's scope (§2, footnote 1).
"""

from __future__ import annotations

import re
from typing import Any

from .errors import ParseError
from .expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    Not,
    Or,
    Predicate,
)
from .query import AGGREGATE_FUNCTIONS, AggregateCall, Query, SelectItem, TableRef

_TOKEN_RE = re.compile(
    r"""
    \s*(
        '(?:[^']|'')*'            # single-quoted string
      | \d+\.\d*| \.\d+ | \d+    # numbers
      | [A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)*  # identifiers
      | <> | != | <= | >= | [=<>(),;*+\-/]
    )
    """,
    re.VERBOSE,
)

_UNSUPPORTED = {
    "having": "HAVING clauses",
    "order": "ORDER BY",
    "limit": "LIMIT",
    "union": "set operations",
    "intersect": "set operations",
    "except": "set operations",
    "distinct": "SELECT DISTINCT",
    "left": "outer joins",
    "right": "outer joins",
    "full": "outer joins",
    "outer": "outer joins",
    "exists": "EXISTS subqueries",
    "in": "IN predicates",
    "like": "LIKE predicates",
    "between": "BETWEEN predicates",
    "case": "CASE expressions",
}

# Deepest nesting the recursive descent accepts: parentheses, NOT and
# each arithmetic operator of a chain each count one level.  Deeper
# input is a ParseError, never a RecursionError in the parser or in
# whatever walks the expression tree afterwards.
MAX_NESTING_DEPTH = 100


def tokenize(sql: str) -> list[str]:
    """Split SQL text into tokens, preserving quoted strings."""
    tokens: list[str] = []
    pos = 0
    text = sql.strip().rstrip(";")
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ParseError(f"cannot tokenize SQL at: {text[pos:pos + 20]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over a token stream."""

    def __init__(self, tokens: list[str], text: str):
        self.tokens = tokens
        self.pos = 0
        self.text = text
        self.depth = 0

    # -- token helpers -------------------------------------------------
    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def peek_lower(self) -> str | None:
        tok = self.peek()
        return tok.lower() if tok is not None else None

    def advance(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of SQL input")
        self.pos += 1
        return tok

    def expect(self, keyword: str) -> None:
        tok = self.advance()
        if tok.lower() != keyword.lower():
            raise ParseError(f"expected {keyword!r}, found {tok!r}")

    def accept(self, keyword: str) -> bool:
        if self.peek_lower() == keyword.lower():
            self.pos += 1
            return True
        return False

    def descend(self) -> None:
        """Enter one more level of nesting (see :data:`MAX_NESTING_DEPTH`);
        the caller restores ``depth`` when it returns."""
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise ParseError(
                f"SQL nests deeper than {MAX_NESTING_DEPTH} levels "
                "(parentheses, NOT, arithmetic operators)"
            )

    def _check_unsupported(self, token: str) -> None:
        feature = _UNSUPPORTED.get(token.lower())
        if feature:
            raise ParseError(
                f"{feature} are outside the supported single-block SPJA "
                "query class"
            )
        if token.lower() == "select":
            raise ParseError(
                "nested subqueries are outside the supported single-block "
                "SPJA query class"
            )

    # -- grammar -------------------------------------------------------
    def parse_query(self) -> Query:
        self.expect("select")
        select = self.parse_select_list()
        self.expect("from")
        tables = self.parse_from_list()
        where: Predicate | None = None
        group_by: list[ColumnRef] = []
        while self.peek() is not None:
            tok = self.peek_lower()
            if tok == "where":
                self.advance()
                where = self.parse_predicate()
            elif tok == "group":
                self.advance()
                self.expect("by")
                group_by = self.parse_group_by()
            else:
                self._check_unsupported(self.tokens[self.pos])
                raise ParseError(f"unexpected token {self.tokens[self.pos]!r}")
        return Query(
            select=select,
            tables=tables,
            where=where,
            group_by=group_by,
            text=self.text,
        )

    def parse_select_list(self) -> list[SelectItem]:
        items = [self.parse_select_item()]
        while self.accept(","):
            items.append(self.parse_select_item())
        return items

    def parse_select_item(self) -> SelectItem:
        expression = self.parse_expression()
        alias: str | None = None
        if self.accept("as"):
            alias = self.advance()
        elif self.peek() is not None and self.peek_lower() not in (
            ",", "from"
        ) and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", self.peek() or ""):
            keyword = self.peek_lower()
            if (
                keyword not in ("from", "where", "group", "as")
                and keyword not in _UNSUPPORTED
            ):
                alias = self.advance()
        if alias is None:
            alias = self._default_alias(expression)
        return SelectItem(expression=expression, alias=alias)

    @staticmethod
    def _default_alias(expression: Expression) -> str:
        if isinstance(expression, ColumnRef):
            return expression.name.split(".")[-1]
        if isinstance(expression, AggregateCall):
            if expression.argument is None:
                return expression.func
            inner = _Parser._default_alias(expression.argument)
            return f"{expression.func}_{inner}"
        return "expr"

    def parse_from_list(self) -> list[TableRef]:
        tables = [self.parse_table_ref()]
        while True:
            if self.accept(","):
                tables.append(self.parse_table_ref())
            elif self.peek_lower() in ("join", "inner"):
                # JOIN ... ON is folded into comma-join + WHERE semantics
                # by lifting the ON condition into the WHERE clause later;
                # to keep the grammar single-block we reject it explicitly
                # and ask for comma-style joins as used by the paper.
                raise ParseError(
                    "explicit JOIN syntax is not supported; use comma-style "
                    "joins with conditions in WHERE (as in the paper's "
                    "workload queries)"
                )
            else:
                break
        return tables

    def parse_table_ref(self) -> TableRef:
        name = self.advance()
        self._check_unsupported(name)
        if name == "(":
            raise ParseError(
                "derived tables (subqueries in FROM) are not supported"
            )
        alias = None
        nxt = self.peek()
        reserved = {"where", "group", "join", "inner", "on", "as", "from"}
        if (
            nxt is not None
            and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", nxt)
            and nxt.lower() not in reserved
            and nxt.lower() not in _UNSUPPORTED
        ):
            alias = self.advance()
        return TableRef.of(name, alias)

    def parse_group_by(self) -> list[ColumnRef]:
        refs = [ColumnRef(self.advance())]
        while self.accept(","):
            refs.append(ColumnRef(self.advance()))
        return refs

    # -- predicates ----------------------------------------------------
    def parse_predicate(self) -> Predicate:
        return self.parse_or()

    def parse_or(self) -> Predicate:
        parts = [self.parse_and()]
        while self.accept("or"):
            parts.append(self.parse_and())
        if len(parts) == 1:
            return parts[0]
        return Or(tuple(parts))

    def parse_and(self) -> Predicate:
        parts = [self.parse_not()]
        while self.accept("and"):
            parts.append(self.parse_not())
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts))

    def parse_not(self) -> Predicate:
        entry = self.depth
        if self.accept("not"):
            self.descend()
            inner = Not(self.parse_not())
        elif self.peek() == "(" and self._paren_is_predicate():
            self.advance()
            self.descend()
            inner = self.parse_predicate()
            self.expect(")")
        else:
            inner = self.parse_comparison()
        self.depth = entry
        return inner

    def _paren_is_predicate(self) -> bool:
        """Lookahead: does this parenthesized group contain a comparison?"""
        depth = 0
        for tok in self.tokens[self.pos:]:
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif depth >= 1 and tok in ("=", "!=", "<>", "<", "<=", ">", ">="):
                return True
            elif depth >= 1 and tok.lower() in ("and", "or"):
                return True
        return False

    def parse_comparison(self) -> Predicate:
        left = self.parse_expression()
        op = self.advance()
        if op == "<>":
            op = "!="
        if op not in ("=", "!=", "<", "<=", ">", ">="):
            self._check_unsupported(op)
            raise ParseError(f"expected comparison operator, found {op!r}")
        right = self.parse_expression()
        return Comparison(op=op, left=left, right=right)

    # -- scalar expressions ---------------------------------------------
    def parse_expression(self) -> Expression:
        entry = self.depth
        left = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.advance()
            self.descend()
            right = self.parse_term()
            left = Arithmetic(op=op, left=left, right=right)
        self.depth = entry
        return left

    def parse_term(self) -> Expression:
        entry = self.depth
        left = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.advance()
            self.descend()
            right = self.parse_factor()
            left = Arithmetic(op=op, left=left, right=right)
        self.depth = entry
        return left

    def parse_factor(self) -> Expression:
        tok = self.advance()
        if tok == "(":
            self.descend()
            inner = self.parse_expression()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.startswith("'"):
            return Literal(tok[1:-1].replace("''", "'"))
        if re.fullmatch(r"\d+\.\d*|\.\d+", tok):
            return Literal(float(tok))
        if re.fullmatch(r"\d+", tok):
            return Literal(int(tok))
        lowered = tok.lower()
        if lowered in AGGREGATE_FUNCTIONS and self.peek() == "(":
            self.advance()
            if self.peek() == "*":
                self.advance()
                self.expect(")")
                return AggregateCall(func=lowered, argument=None)
            self.descend()
            argument = self.parse_expression()
            self.expect(")")
            self.depth -= 1
            return AggregateCall(func=lowered, argument=argument)
        self._check_unsupported(tok)
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9.]*", tok):
            raise ParseError(f"unexpected token {tok!r} in expression")
        return ColumnRef(tok)


def parse_sql(sql: str) -> Query:
    """Parse SQL text into a :class:`~repro.db.query.Query`.

    Raises ParseError for anything outside the supported single-block
    SPJA class.
    """
    tokens = tokenize(sql)
    if not tokens:
        raise ParseError("empty SQL string")
    parser = _Parser(tokens, sql.strip())
    return parser.parse_query()
