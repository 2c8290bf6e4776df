"""User questions over query results (paper §2.4).

CaJaDE supports *two-point* questions (compare two output tuples t1, t2)
and *single-point* questions (one outlier tuple t versus the rest of the
output).  Tuples are described by their group-by output values, e.g.
``{"season_name": "2015-16"}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..db.provenance import ProvenanceTable


@dataclass(frozen=True)
class ComparisonQuestion:
    """Why does output tuple t1 differ from output tuple t2?

    ``primary`` and ``secondary`` map group-by output names to values and
    must each identify exactly one output tuple.  Explanations are
    asymmetric: swapping the two tuples may change the top-k (paper §2.4).
    """

    primary: dict[str, Any]
    secondary: dict[str, Any]

    def resolve(self, pt: ProvenanceTable) -> "ResolvedQuestion":
        key1 = pt.group_key_for(self.primary)
        key2 = pt.group_key_for(self.secondary)
        if key1 == key2:
            raise ValueError("the two question tuples are the same output")
        return ResolvedQuestion(
            question=self,
            key1=key1,
            key2=key2,
            row_ids1=pt.row_ids_of(key1),
            row_ids2=pt.row_ids_of(key2),
        )

    def describe(self) -> str:
        return f"why {self.primary} compared to {self.secondary}?"


@dataclass(frozen=True)
class OutlierQuestion:
    """Why is output tuple t surprising, versus the rest of the output?

    Implemented as the paper prescribes: t is treated as t1, and all other
    output tuples together form t2 (false positives sum over
    PT(Q, D) \\ PT(Q, D, t)).
    """

    target: dict[str, Any]

    def resolve(self, pt: ProvenanceTable) -> "ResolvedQuestion":
        key = pt.group_key_for(self.target)
        return ResolvedQuestion(
            question=self,
            key1=key,
            key2=None,
            row_ids1=pt.row_ids_of(key),
            row_ids2=pt.row_ids_excluding(key),
        )

    def describe(self) -> str:
        return f"why {self.target} (vs the rest of the output)?"


@dataclass(frozen=True)
class ResolvedQuestion:
    """A question bound to provenance row ids of its output tuples.

    ``row_ids1``/``row_ids2`` index into the provenance table's synthetic
    ``__pt_row_id`` column; they are the universes over which Definition 7
    counts coverage.
    """

    question: ComparisonQuestion | OutlierQuestion
    key1: tuple[Any, ...]
    key2: tuple[Any, ...] | None
    row_ids1: np.ndarray
    row_ids2: np.ndarray

    def label_for_key(self, primary_is_t1: bool) -> str:
        if isinstance(self.question, ComparisonQuestion):
            source = (
                self.question.primary if primary_is_t1 else self.question.secondary
            )
            return ", ".join(f"{k}={v}" for k, v in source.items())
        if primary_is_t1:
            return ", ".join(f"{k}={v}" for k, v in self.question.target.items())
        return "rest of output"
