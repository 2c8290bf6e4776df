"""Diversity-aware top-k selection (paper §3.5).

Ranking purely by F-score tends to return near-duplicate patterns.  The
paper reranks with

    wscore(Φ) = Fscore(Φ) + min_{Φ' ∈ R} D(Φ, Φ')
    D(Φ, Φ')  = Σ_{A : Φ.A ≠ *} matchscore(Φ, Φ', A) / |Φ|

where matchscore awards +1 when Φ' does not use A, penalizes −0.3 when
both use A with different constants, and −2 when both use A with the same
constant.  The highest-F-score pattern seeds R; selection repeats until k
patterns are chosen.

The scalar functions are the paper's definitions; selection runs as an
array kernel over per-call (attribute id, value id) codes, with the
greedy loop kept as its oracle in ``tests/oracles/diversity.py``.  All
three add match scores in predicate (sorted-attribute) order, one float
addition at a time: 1 − 0.3 − 2 ≠ −2 − 0.3 + 1 in floats, and neither a
set's hash order nor a compensated ``sum`` may decide a near-tie.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .pattern import Pattern

MATCH_FREE = 1.0
MATCH_DIFFERENT_CONSTANT = -0.3
MATCH_SAME_CONSTANT = -2.0


def match_score(phi: Pattern, other: Pattern, attribute: str) -> float:
    """The paper's matchscore(Φ, Φ', A) for an attribute used by Φ."""
    if not other.uses(attribute):
        return MATCH_FREE
    if phi.value_of(attribute) == other.value_of(attribute):
        return MATCH_SAME_CONSTANT
    return MATCH_DIFFERENT_CONSTANT


def dissimilarity(phi: Pattern, other: Pattern) -> float:
    """D(Φ, Φ') ∈ [−2, 1]; larger means more dissimilar."""
    if phi.size == 0:
        return MATCH_FREE
    total = 0.0
    for attribute in phi.first_values:
        total += match_score(phi, other, attribute)
    return total / phi.size


def wscore(
    phi: Pattern, f_score: float, selected: Sequence[Pattern]
) -> float:
    """F-score plus distance to the most similar already-selected pattern."""
    if not selected:
        return f_score
    return f_score + min(dissimilarity(phi, other) for other in selected)


def select_diverse_top_k(
    candidates: Sequence[tuple[Pattern, float, Any]],
    k: int,
) -> list[tuple[Pattern, float, Any]]:
    """Greedy wscore selection of k diverse candidates.

    ``candidates`` are (pattern, f_score, payload) triples; the payload is
    carried through untouched (the mining pipeline stores full explanation
    records there).  The first pick is always the highest F-score; every
    subsequent pick maximizes wscore against the already-selected set,
    the earliest candidate in (−f_score, describe()) order winning ties.
    F-scores must be finite.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ordered = sorted(candidates, key=lambda c: (-c[1], c[0].describe()))
    n = len(ordered)
    if n == 0:
        return []

    # One row per candidate, one slot per distinct attribute.  Ids come
    # from dicts, so constants are equal exactly when Python's ``==``
    # says so (1 == 1.0 == True); NaN equals nothing, itself included.
    firsts = [c[0].first_values for c in ordered]
    sizes = np.array([len(first) for first in firsts])
    width = max(1, int(sizes.max()))
    attr_ids: dict[str, int] = {}
    value_ids: dict[Any, int] = {}
    unused = -1  # as a padding attribute id it reads the spare last cell
    attrs = np.full((n, width), unused)
    values = np.full((n, width), unused)
    for row, first in enumerate(firsts):
        for slot, (attribute, value) in enumerate(first.items()):
            attrs[row, slot] = attr_ids.setdefault(attribute, len(attr_ids))
            key = value if value == value else object()
            values[row, slot] = value_ids.setdefault(key, len(value_ids))
    # An empty pattern keeps its first slot live: free against every
    # pick, so D = 1.0 / 1 as the definition says.
    padding = attrs == unused
    padding[sizes == 0, 0] = False
    divisor = np.maximum(sizes, 1)
    live_f = np.array([c[1] for c in ordered], dtype=np.float64)
    min_d = np.full(n, np.inf)
    # attribute id -> the newest pick's value id, if it uses the attribute
    picked_value = np.empty(len(attr_ids) + 1, dtype=values.dtype)

    picks = [0]
    while len(picks) < min(k, n):
        newest = picks[-1]
        live_f[newest] = -np.inf
        picked_value[:] = unused
        picked_value[attrs[newest]] = values[newest]
        theirs = picked_value[attrs]
        scores = np.where(
            theirs == unused,
            MATCH_FREE,
            np.where(
                theirs == values, MATCH_SAME_CONSTANT, MATCH_DIFFERENT_CONSTANT
            ),
        )
        scores[padding] = 0.0
        # Left to right, like the scalar definition; x + 0.0 is exact.
        total = scores[:, 0]
        for slot in range(1, width):
            total = total + scores[:, slot]
        np.minimum(min_d, total / divisor, out=min_d)
        picks.append(int(np.argmax(live_f + min_d)))
    return [ordered[i] for i in picks]
