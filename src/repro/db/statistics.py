"""Catalog statistics and the join cost model.

CaJaDE skips join graphs whose materialization query has an estimated cost
above λqcost (paper §4: "We use the DBMS to estimate the cost of this query
upfront").  Our engine plays the DBMS role: per-table row counts and
per-column distinct counts feed the textbook equi-join cardinality estimate

    |R ⋈ S| ≈ |R| · |S| / max(V(R, a), V(S, b))

and the cost of a join pipeline is the sum of estimated intermediate sizes,
which is what a disk-based optimizer's I/O cost is proportional to.
"""

from __future__ import annotations

import numpy as np

from .relation import Relation


class TableStatistics:
    """Row count plus per-column distinct counts, each computed on first ask.

    A TEXT column counts its distinct table-level dictionary codes other
    than the NULL code, so pricing a join over a reopened column store
    reads the memmapped code array and never a dictionary file.  A
    numeric column counts its non-NaN unique values.
    """

    def __init__(self, relation: Relation):
        self._relation = relation
        self.num_rows = relation.num_rows
        self._distinct: dict[str, int] = {}

    def distinct(self, column: str) -> int:
        """V(R, column), at least 1; an unknown column is a
        :class:`~repro.db.errors.SchemaError`."""
        if column not in self._distinct:
            self._distinct[column] = max(1, self._count_distinct(column))
        return self._distinct[column]

    def _count_distinct(self, column: str) -> int:
        encoding = self._relation.encoding(column)
        if encoding is not None:
            codes = np.unique(encoding.codes)
            null = encoding.none_code
            return len(codes) - int(null is not None and null in codes)
        values = self._relation.column(column).astype(np.float64)
        return len(np.unique(values[~np.isnan(values)]))


def estimate_join_cardinality(
    left_rows: float,
    right_rows: float,
    key_distincts: list[tuple[int, int]],
) -> float:
    """Estimate |R ⋈ S| for a conjunctive equi-join.

    ``key_distincts`` holds ``(V(R, a_i), V(S, b_i))`` per join conjunct;
    conjuncts are assumed independent (System-R style).
    """
    cardinality = left_rows * right_rows
    for left_d, right_d in key_distincts:
        cardinality /= max(1, left_d, right_d)
    return max(0.0, cardinality)
