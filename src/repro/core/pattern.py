"""Summarization patterns and match semantics (paper Definition 5).

A pattern Φ assigns each APT attribute either ``*`` (unused) or a predicate
``(op, threshold)``; categorical attributes allow only ``=``, numeric ones
allow ``<=``/``>=``/``=``.  A tuple matches when it satisfies every
predicate.  Attributes used in the query's GROUP BY are excluded from
patterns upstream (they exactly capture the answer tuples and carry no
information).

Patterns are immutable; :meth:`Pattern.refined` returns extended copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

OP_EQ = "="
OP_LE = "<="
OP_GE = ">="
VALID_OPS = (OP_EQ, OP_LE, OP_GE)


@dataclass(frozen=True)
class PatternPredicate:
    """One conjunct of a pattern: ``attribute op value``."""

    attribute: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in VALID_OPS:
            raise ValueError(f"invalid pattern operator {self.op!r}")

    def matches_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over a column array (NULLs never match)."""
        if values.dtype == object:
            if self.op != OP_EQ:
                raise ValueError(
                    f"operator {self.op} not allowed on categorical "
                    f"attribute {self.attribute}"
                )
            return np.array(
                [v is not None and v == self.value for v in values], dtype=bool
            )
        numeric = values.astype(np.float64, copy=False)
        with np.errstate(invalid="ignore"):
            if self.op == OP_EQ:
                mask = numeric == float(self.value)
            elif self.op == OP_LE:
                mask = numeric <= float(self.value)
            else:
                mask = numeric >= float(self.value)
        if numeric.dtype.kind == "f":
            mask = mask & ~np.isnan(numeric)
        return mask

    def describe(self) -> str:
        value = self.value
        if isinstance(value, float):
            # is_integer (not int(value) equality): NaN and ±inf render
            # via the general format instead of raising.
            if value.is_integer():
                value = int(value)
            else:
                value = f"{value:.6g}"
        return f"{self.attribute}{self.op}{value}"

    def __str__(self) -> str:
        return self.describe()


class Pattern:
    """An immutable conjunction of :class:`PatternPredicate`.

    Predicates are stored sorted by (attribute, op) so structurally equal
    patterns hash equal — the ``done`` set of Algorithm 1 relies on this.
    """

    __slots__ = ("predicates", "_key", "_first", "_description")

    def __init__(self, predicates: Iterable[PatternPredicate] = ()):
        ordered = tuple(
            sorted(predicates, key=lambda p: (p.attribute, p.op, str(p.value)))
        )
        attrs_ops = [(p.attribute, p.op) for p in ordered]
        if len(set(attrs_ops)) != len(attrs_ops):
            raise ValueError(
                "pattern has two predicates with the same attribute and "
                "operator"
            )
        object.__setattr__(self, "predicates", ordered)
        object.__setattr__(
            self,
            "_key",
            tuple((p.attribute, p.op, p.value) for p in ordered),
        )

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Pattern is immutable")

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, mapping: Mapping[str, tuple[str, Any]]) -> "Pattern":
        """Build from ``{attribute: (op, value)}``."""
        return cls(
            PatternPredicate(attr, op, value)
            for attr, (op, value) in mapping.items()
        )

    @property
    def first_values(self) -> Mapping[str, Any]:
        """attribute → constant of its first predicate, in predicate order.

        Built on first use and kept (the pattern is immutable): the §3.5
        rerank reads it per candidate per call.
        """
        try:
            return self._first
        except AttributeError:
            first: dict[str, Any] = {}
            for p in self.predicates:
                first.setdefault(p.attribute, p.value)
            object.__setattr__(self, "_first", first)
            return first

    @property
    def attributes(self) -> frozenset[str]:
        return frozenset(self.first_values)

    @property
    def size(self) -> int:
        """|Φ|: the number of non-``*`` attributes."""
        return len(self.first_values)

    def uses(self, attribute: str) -> bool:
        return attribute in self.first_values

    def value_of(self, attribute: str) -> Any:
        """The threshold/constant of the first predicate on ``attribute``."""
        return self.first_values[attribute]

    def num_numeric_predicates(self, numeric_attrs: set[str]) -> int:
        return sum(1 for p in self.predicates if p.attribute in numeric_attrs)

    # ------------------------------------------------------------------
    def refined(self, attribute: str, op: str, value: Any) -> "Pattern":
        """A refinement Φ' of Φ: one more predicate (paper §3)."""
        return Pattern(
            list(self.predicates) + [PatternPredicate(attribute, op, value)]
        )

    # ------------------------------------------------------------------
    def match_mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Boolean match mask over row-aligned column arrays."""
        if not self.predicates:
            lengths = [len(a) for a in columns.values()]
            return np.ones(lengths[0] if lengths else 0, dtype=bool)
        mask: np.ndarray | None = None
        for predicate in self.predicates:
            if predicate.attribute not in columns:
                raise KeyError(
                    f"pattern attribute {predicate.attribute!r} missing from "
                    "the provided columns"
                )
            part = predicate.matches_array(columns[predicate.attribute])
            mask = part if mask is None else (mask & part)
            if not mask.any():
                break
        assert mask is not None
        return mask

    # ------------------------------------------------------------------
    def describe(self) -> str:
        try:
            return self._description
        except AttributeError:
            text = " ∧ ".join(p.describe() for p in self.predicates) or "(*)"
            object.__setattr__(self, "_description", text)
            return text

    def __str__(self) -> str:
        return self.describe()

    def __repr__(self) -> str:
        return f"Pattern({self.describe()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Pattern) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def order_key(self) -> tuple:
        """Totalizes orders that sort by :meth:`describe`.

        Descriptions collide — ``:.6g`` renders two fragment boundaries
        that agree to six significant digits alike, and a column may mix
        equal-rendering values of different types — so every sort of
        distinct patterns ends on this key; the type name keeps values
        of different types from being compared.
        """
        return tuple(
            (p.attribute, p.op, type(p.value).__name__, str(p.value))
            for p in self.predicates
        )

    def __lt__(self, other: "Pattern") -> bool:
        """By :meth:`order_key`: a pattern as the last element of a sort
        key is read only when everything before it ties."""
        return self.order_key() < other.order_key()
