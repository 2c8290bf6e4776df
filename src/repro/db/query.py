"""Logical representation of single-block SPJA queries.

The paper restricts itself to "simple single-block SQL queries with a single
aggregate function (select-from-where-group by)"; in practice its workload
queries use one or more aggregates and arithmetic over them (e.g. the MIMIC
death-rate query), so SELECT items here are expression trees whose leaves
may be :class:`AggregateCall` nodes or group-by column references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import ParseError
from .expressions import ColumnRef, Expression, Literal, Predicate

AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class TableRef:
    """A FROM-clause entry: a catalog table with an optional alias."""

    table: str
    alias: str

    @classmethod
    def of(cls, table: str, alias: str | None = None) -> "TableRef":
        return cls(table=table, alias=alias or table)


@dataclass(frozen=True)
class AggregateCall(Expression):
    """An aggregate function call appearing in a SELECT item.

    ``argument`` is None for ``COUNT(*)``.  AggregateCall is an Expression
    leaf only so arithmetic like ``1.0 * SUM(x) / COUNT(*)`` can be built
    over it; it is never evaluated per-row (the executor substitutes group
    values).
    """

    func: str
    argument: Expression | None = None

    def __post_init__(self) -> None:
        if self.func not in AGGREGATE_FUNCTIONS:
            raise ParseError(f"unsupported aggregate function {self.func!r}")
        if self.func != "count" and self.argument is None:
            raise ParseError(f"{self.func.upper()} requires an argument")

    def values(self, relation):  # pragma: no cover - defensive
        raise NotImplementedError("aggregates are evaluated per group")

    def referenced_columns(self) -> set[str]:
        if self.argument is None:
            return set()
        return self.argument.referenced_columns()

    def __str__(self) -> str:
        arg = "*" if self.argument is None else str(self.argument)
        return f"{self.func.upper()}({arg})"


@dataclass(frozen=True)
class SelectItem:
    """One SELECT-clause item: an expression with an output name."""

    expression: Expression
    alias: str

    def __str__(self) -> str:
        return f"{self.expression} AS {self.alias}"


def contains_aggregate(expression: Expression) -> bool:
    """Whether an expression tree contains an AggregateCall."""
    if isinstance(expression, AggregateCall):
        return True
    from .expressions import Arithmetic

    if isinstance(expression, Arithmetic):
        return contains_aggregate(expression.left) or contains_aggregate(
            expression.right
        )
    return False


def collect_aggregates(expression: Expression) -> list[AggregateCall]:
    """All AggregateCall leaves of an expression tree, in order."""
    if isinstance(expression, AggregateCall):
        return [expression]
    from .expressions import Arithmetic

    if isinstance(expression, Arithmetic):
        return collect_aggregates(expression.left) + collect_aggregates(
            expression.right
        )
    return []


@dataclass
class Query:
    """A validated single-block SPJA query."""

    select: list[SelectItem]
    tables: list[TableRef]
    where: Predicate | None = None
    group_by: list[ColumnRef] = field(default_factory=list)
    text: str = ""

    def __post_init__(self) -> None:
        if not self.select:
            raise ParseError("SELECT list must be non-empty")
        if not self.tables:
            raise ParseError("FROM list must be non-empty")
        aliases = [t.alias for t in self.tables]
        if len(set(aliases)) != len(aliases):
            raise ParseError(f"duplicate table aliases in FROM: {aliases}")
        has_aggregate = any(
            contains_aggregate(item.expression) for item in self.select
        )
        if self.group_by or has_aggregate:
            group_names = {ref.name.split(".")[-1] for ref in self.group_by}
            for item in self.select:
                if contains_aggregate(item.expression):
                    continue
                refs = item.expression.referenced_columns()
                for ref in refs:
                    if ref.split(".")[-1] not in group_names:
                        raise ParseError(
                            f"non-aggregated SELECT column {ref!r} is not "
                            "in GROUP BY"
                        )

    @property
    def table_names(self) -> list[str]:
        """relsQ(D): catalog names of the relations the query accesses."""
        return [t.table for t in self.tables]

    @property
    def aliases(self) -> list[str]:
        return [t.alias for t in self.tables]

    def __str__(self) -> str:
        return self.text or (
            "SELECT "
            + ", ".join(str(i) for i in self.select)
            + " FROM "
            + ", ".join(f"{t.table} {t.alias}" for t in self.tables)
        )
