"""Oracle for the §3.5 diversity rerank: the greedy wscore loop.

This is the selection loop ``repro.core.diversity`` shipped before it
became an array kernel, with the one thing the paper leaves open pinned:
match scores are added in predicate (sorted-attribute) order, one float
addition at a time.  It reads nothing but ``Pattern.predicates`` — no
cached views, no ids — so it also checks the pattern-side caches the
kernel encodes from.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.pattern import Pattern

FREE, DIFFERENT, SAME = 1.0, -0.3, -2.0


def first_values(pattern: Pattern) -> dict[str, Any]:
    """attribute -> constant of its first predicate, in predicate order."""
    out: dict[str, Any] = {}
    for predicate in pattern.predicates:
        if predicate.attribute not in out:
            out[predicate.attribute] = predicate.value
    return out


def describe(pattern: Pattern) -> str:
    return " ∧ ".join(p.describe() for p in pattern.predicates) or "(*)"


def dissimilarity(phi: Pattern, other: Pattern) -> float:
    mine, theirs = first_values(phi), first_values(other)
    if not mine:
        return FREE
    total = 0.0
    for attribute, value in mine.items():
        if attribute not in theirs:
            total += FREE
        elif value == theirs[attribute]:
            total += SAME
        else:
            total += DIFFERENT
    return total / len(mine)


def wscore(phi: Pattern, f_score: float, selected: Sequence[Pattern]) -> float:
    if not selected:
        return f_score
    return f_score + min(dissimilarity(phi, other) for other in selected)


def select_diverse_top_k(
    candidates: Sequence[tuple[Pattern, float, Any]], k: int
) -> list[tuple[Pattern, float, Any]]:
    if k < 1:
        raise ValueError("k must be >= 1")
    remaining = sorted(candidates, key=lambda c: (-c[1], describe(c[0])))
    if not remaining:
        return []
    selected = [remaining.pop(0)]
    while remaining and len(selected) < k:
        chosen = [entry[0] for entry in selected]
        best_index, best_score = 0, float("-inf")
        for index, (pattern, f_score, _payload) in enumerate(remaining):
            score = wscore(pattern, f_score, chosen)
            if score > best_score:
                best_index, best_score = index, score
        selected.append(remaining.pop(best_index))
    return selected
