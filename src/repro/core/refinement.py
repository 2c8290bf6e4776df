"""Numeric refinement of categorical patterns (paper §3.4).

Refinements add one numeric predicate at a time.  Numeric domains are
split into λ#frag fragments; only fragment boundaries serve as thresholds,
with both ``<=`` and ``>=`` comparisons (the paper's example explanations
use both directions, e.g. ``pts >= 23``).  Refinement can only lower
recall (Proposition 3.1), so candidates below λrecall are pruned together
with all of their refinements.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .config import CajadeConfig
from .pattern import OP_GE, OP_LE, PatternPredicate


def numeric_fragments(
    values: np.ndarray, num_fragments: int
) -> list[float]:
    """Fragment boundaries of a numeric column's active domain.

    For λ#frag = k the boundaries are the k quantiles at
    ``linspace(0, 1, k)`` — e.g. min/median/max for k = 3, matching the
    paper's example.  NaNs (NULLs) are ignored; constant or empty columns
    yield no boundaries, and neither does k = 1 (one fragment is the
    whole domain).
    """
    numeric = values.astype(np.float64, copy=False)
    finite = numeric[~np.isnan(numeric)]
    if len(finite) == 0:
        return []
    qs = np.linspace(0.0, 1.0, num_fragments)
    candidates = [float(v) for v in np.quantile(finite, qs)]
    unique: list[float] = []
    for value in candidates:
        if not unique or value != unique[-1]:
            unique.append(value)
    if len(unique) == 1:
        return []
    return unique


class RefinementGenerator:
    """The one-step numeric refinements of one APT, as a flat table.

    Fragment boundaries are computed once per APT.  ``extensions`` lists
    every predicate a pattern may be refined by — attribute by attribute,
    ``<=`` before ``>=``, boundaries ascending — and an extension's index
    in that list is its id: Algorithm 1's search works on those ids and
    builds patterns only for what it reports.  A pattern takes at most
    one extension per attribute (``extension_attr`` numbers them), so a
    set of ids names one refinement.
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        numeric_attrs: list[str],
        config: CajadeConfig,
    ):
        self.config = config
        self.numeric_attrs = [a for a in numeric_attrs if a in columns]
        self._fragments: dict[str, list[float]] = {}
        self.extensions: list[PatternPredicate] = []
        for attr in self.numeric_attrs:
            boundaries = numeric_fragments(
                columns[attr], config.num_fragments
            )
            self._fragments[attr] = boundaries
            if not boundaries:
                continue
            # The lowest boundary with <= matches (almost) nothing beyond
            # the minimum and the highest with >= only the maximum; use
            # every boundary with both operators except the two vacuous
            # extremes (<= max and >= min match everything).
            self.extensions.extend(
                PatternPredicate(attr, op, boundary)
                for op in (OP_LE, OP_GE)
                for boundary in boundaries
                if not (op == OP_LE and boundary == boundaries[-1])
                and not (op == OP_GE and boundary == boundaries[0])
            )

        attrs = list(dict.fromkeys(p.attribute for p in self.extensions))
        self.extension_attrs = attrs
        self.extension_attr = np.array(
            [attrs.index(p.attribute) for p in self.extensions], dtype=np.int64
        )

    def fragments_of(self, attr: str) -> list[float]:
        return list(self._fragments.get(attr, []))
