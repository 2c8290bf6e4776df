"""Scalar expressions and predicates over relations.

This is the AST shared by the SQL parser, the executor and CaJaDE's join
conditions.  Evaluation is vectorized: ``Predicate.mask(relation)`` returns
a boolean numpy array over the relation's rows.

Column references may be qualified (``game.winner_id``) or bare
(``winner_id``); resolution against a relation first tries the exact name,
then the suffix match ``*_name`` / ``alias.name`` used by provenance-table
column prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ExecutionError
from .relation import Relation


def resolve_column(relation: Relation, name: str) -> str:
    """Resolve a possibly-qualified column name against ``relation``.

    Resolution order: exact match, then ``alias.attr`` → ``attr``-suffix
    match (unique suffix required).  Raises ExecutionError when the name is
    absent or ambiguous.
    """
    names = relation.schema.column_names
    if name in names:
        return name
    bare = name.split(".")[-1]
    if bare in names:
        return bare
    suffix_hits = [c for c in names if c.split(".")[-1] == bare]
    if len(suffix_hits) == 1:
        return suffix_hits[0]
    if len(suffix_hits) > 1:
        raise ExecutionError(f"ambiguous column reference {name!r}: {suffix_hits}")
    raise ExecutionError(
        f"unknown column {name!r} in relation {relation.schema.name!r}"
    )


# ----------------------------------------------------------------------
# Scalar expressions
# ----------------------------------------------------------------------
class Expression:
    """Base class: a scalar expression evaluable per row, vectorized."""

    def values(self, relation: Relation) -> np.ndarray:
        raise NotImplementedError

    def referenced_columns(self) -> set[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A (possibly qualified) reference to a relation column."""

    name: str

    def values(self, relation: Relation) -> np.ndarray:
        return relation.column(resolve_column(relation, self.name))

    def referenced_columns(self) -> set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def values(self, relation: Relation) -> np.ndarray:
        if isinstance(self.value, str):
            return np.full(relation.num_rows, self.value, dtype=object)
        return np.full(relation.num_rows, self.value)

    def referenced_columns(self) -> set[str]:
        return set()

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Binary arithmetic on numeric expressions (+, -, *, /)."""

    op: str
    left: Expression
    right: Expression

    _OPS = {
        "+": np.add,
        "-": np.subtract,
        "*": np.multiply,
        "/": np.divide,
    }

    def values(self, relation: Relation) -> np.ndarray:
        if self.op not in self._OPS:
            raise ExecutionError(f"unknown arithmetic operator {self.op!r}")
        left = self.left.values(relation).astype(np.float64)
        right = self.right.values(relation).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._OPS[self.op](left, right)

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------
class Predicate:
    """Base class: a boolean expression evaluable as a row mask."""

    def mask(self, relation: Relation) -> np.ndarray:
        raise NotImplementedError

    def referenced_columns(self) -> set[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Comparison(Predicate):
    """``left OP right`` for OP in =, !=, <, <=, >, >=.

    NULL semantics follow SQL: comparisons involving NULL are False.
    """

    op: str
    left: Expression
    right: Expression

    _NUMERIC_OPS = {
        "=": np.equal,
        "!=": np.not_equal,
        "<": np.less,
        "<=": np.less_equal,
        ">": np.greater,
        ">=": np.greater_equal,
    }

    def mask(self, relation: Relation) -> np.ndarray:
        if self.op not in self._NUMERIC_OPS:
            raise ExecutionError(f"unknown comparison operator {self.op!r}")
        left = self.left.values(relation)
        right = self.right.values(relation)
        if left.dtype == object or right.dtype == object:
            return self._object_mask(left, right)
        with np.errstate(invalid="ignore"):
            result = self._NUMERIC_OPS[self.op](left, right)
        # NaN (NULL) comparisons are False even for !=.
        if left.dtype.kind == "f" or right.dtype.kind == "f":
            nulls = np.zeros(len(result), dtype=bool)
            if left.dtype.kind == "f":
                nulls |= np.isnan(left)
            if right.dtype.kind == "f":
                nulls |= np.isnan(right)
            result = result & ~nulls
        return result

    def _object_mask(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        result = np.zeros(len(left), dtype=bool)
        for i in range(len(left)):
            lv, rv = left[i], right[i]
            if lv is None or rv is None:
                continue
            try:
                if self.op == "=":
                    result[i] = lv == rv
                elif self.op == "!=":
                    result[i] = lv != rv
                elif self.op == "<":
                    result[i] = lv < rv
                elif self.op == "<=":
                    result[i] = lv <= rv
                elif self.op == ">":
                    result[i] = lv > rv
                else:
                    result[i] = lv >= rv
            except TypeError as exc:
                raise ExecutionError(
                    f"cannot compare {lv!r} with {rv!r}"
                ) from exc
        return result

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates (vacuously true when empty)."""

    parts: tuple[Predicate, ...]

    def mask(self, relation: Relation) -> np.ndarray:
        result = np.ones(relation.num_rows, dtype=bool)
        for part in self.parts:
            result &= part.mask(relation)
            if not result.any():
                break
        return result

    def referenced_columns(self) -> set[str]:
        cols: set[str] = set()
        for part in self.parts:
            cols |= part.referenced_columns()
        return cols

    def __str__(self) -> str:
        return " AND ".join(f"({p})" for p in self.parts) or "TRUE"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates (vacuously false when empty)."""

    parts: tuple[Predicate, ...]

    def mask(self, relation: Relation) -> np.ndarray:
        result = np.zeros(relation.num_rows, dtype=bool)
        for part in self.parts:
            result |= part.mask(relation)
        return result

    def referenced_columns(self) -> set[str]:
        cols: set[str] = set()
        for part in self.parts:
            cols |= part.referenced_columns()
        return cols

    def __str__(self) -> str:
        return " OR ".join(f"({p})" for p in self.parts) or "FALSE"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    inner: Predicate

    def mask(self, relation: Relation) -> np.ndarray:
        return ~self.inner.mask(relation)

    def referenced_columns(self) -> set[str]:
        return self.inner.referenced_columns()

    def __str__(self) -> str:
        return f"NOT ({self.inner})"


def conjunction(parts: list[Predicate]) -> Predicate:
    """Flatten a list of predicates into a single conjunction."""
    flat: list[Predicate] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))
