"""Diversity-aware top-k selection (paper §3.5).

Ranking purely by F-score tends to return near-duplicate patterns.  The
paper reranks with

    wscore(Φ) = Fscore(Φ) + min_{Φ' ∈ R} D(Φ, Φ')
    D(Φ, Φ')  = Σ_{A : Φ.A ≠ *} matchscore(Φ, Φ', A) / |Φ|

where matchscore awards +1 when Φ' does not use A, penalizes −0.3 when
both use A with different constants, and −2 when both use A with the same
constant.  The highest-F-score pattern seeds R; selection repeats until k
patterns are chosen.

The scalar functions are the paper's definitions; selection
(:func:`select`) runs as an array kernel over (attribute id, value id)
codes that :func:`encode` assigns from a :class:`RerankInterner`, with
the greedy loop kept as its oracle in ``tests/oracles/diversity.py``.
Codes outlive a call: the session's mining memo encodes each join
graph's finalists once, with one interner per memo slot, and a
re-asked question concatenates the stored pools instead of reading the
patterns again.  All three add match scores in predicate
(sorted-attribute) order, one float addition at a time:
1 − 0.3 − 2 ≠ −2 − 0.3 + 1 in floats, and neither a set's hash order
nor a compensated ``sum`` may decide a near-tie.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .pattern import Pattern

MATCH_FREE = 1.0
MATCH_DIFFERENT_CONSTANT = -0.3
MATCH_SAME_CONSTANT = -2.0
UNUSED = -1  # a padding cell; as an attribute id it reads the spare last cell
_NO_INTS = np.empty(0, dtype=np.int32)
_NO_FLOATS = np.empty(0, dtype=np.float64)


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


@dataclass(eq=False, slots=True)
class RerankInterner:
    """Dense ids for the rerank's inputs, shared by every pool encoded
    with it.

    Attributes and descriptions are numbered by text.  Constants are
    equal exactly when Python's ``==`` says so (1 == 1.0 == True ==
    ``np.int64(1)``), and NaN equals nothing, itself included: every NaN
    cell gets an id of its own.
    """

    attributes: dict[str, int] = field(default_factory=dict)
    values: dict[Any, int] = field(default_factory=dict)
    descriptions: dict[str, int] = field(default_factory=dict)
    _ranks: np.ndarray = field(
        default_factory=lambda: _NO_INTS, init=False, repr=False
    )

    def description_ranks(self) -> np.ndarray:
        """Description id -> its rank in Python string order.

        Re-sorted only after new descriptions arrived: the table only
        grows.
        """
        if len(self._ranks) != len(self.descriptions):
            texts = list(self.descriptions)
            ranks = np.empty(len(texts), dtype=np.int64)
            ranks[sorted(range(len(texts)), key=texts.__getitem__)] = (
                np.arange(len(texts))
            )
            self._ranks = ranks
        return self._ranks


@dataclass(eq=False, slots=True)
class EncodedPool(Sequence):
    """(pattern, f_score, payload) candidates and their rerank codes.

    Candidate r has ``sizes[r]`` = |Φ| cells in ``attr_cells`` /
    ``value_cells`` (attribute id, value id; in predicate order, rows
    one after another), F-score ``f_scores[r]`` and description id
    ``descriptions[r]``, all ids from ``interner``.  Indexing yields the
    candidates, so a pool stands wherever a list of them would.
    """

    candidates: list[tuple[Pattern, float, Any]]
    interner: RerankInterner
    sizes: np.ndarray
    attr_cells: np.ndarray
    value_cells: np.ndarray
    f_scores: np.ndarray
    descriptions: np.ndarray

    def __len__(self) -> int:
        return len(self.candidates)

    def __getitem__(self, index):
        return self.candidates[index]

    @classmethod
    def concat(
        cls, pools: Sequence["EncodedPool"], interner: RerankInterner
    ) -> "EncodedPool":
        """The pools' candidates one after another, codes as stored.

        Every pool must have been encoded with ``interner``.
        """
        if any(pool.interner is not interner for pool in pools):
            raise ValueError("pools encoded with another interner")

        def joined(name: str, empty: np.ndarray) -> np.ndarray:
            return np.concatenate(
                [getattr(pool, name) for pool in pools] or [empty]
            )

        return cls(
            [c for pool in pools for c in pool.candidates],
            interner,
            joined("sizes", _NO_INTS),
            joined("attr_cells", _NO_INTS),
            joined("value_cells", _NO_INTS),
            joined("f_scores", _NO_FLOATS),
            joined("descriptions", _NO_INTS),
        )

    def ranked(self) -> np.ndarray:
        """Row indices in (−f_score, describe()) order, ties kept in row
        order (``np.lexsort`` is stable)."""
        ranks = self.interner.description_ranks()[self.descriptions]
        return np.lexsort((ranks, -self.f_scores))


def encode(
    candidates: Sequence[tuple[Pattern, float, Any]],
    interner: RerankInterner,
) -> EncodedPool:
    """Encode (pattern, f_score, payload) triples with ``interner``'s ids.

    Reads each pattern's ``first_values`` and ``describe()`` once; the
    pool can then be selected from any number of times, alone or
    concatenated with other pools of the same interner.
    """
    candidates = list(candidates)
    attr_ids, value_ids = interner.attributes, interner.values
    description_ids = interner.descriptions
    sizes, attr_cells, value_cells, descriptions = [], [], [], []
    for pattern, _f_score, _payload in candidates:
        first = pattern.first_values
        sizes.append(len(first))
        for attribute, value in first.items():
            attr_cells.append(attr_ids.setdefault(attribute, len(attr_ids)))
            key = value if value == value else object()
            value_cells.append(value_ids.setdefault(key, len(value_ids)))
        description = pattern.describe()
        descriptions.append(
            description_ids.setdefault(description, len(description_ids))
        )
    return EncodedPool(
        candidates,
        interner,
        np.array(sizes, dtype=np.int32),
        np.array(attr_cells, dtype=np.int32),
        np.array(value_cells, dtype=np.int32),
        np.array([c[1] for c in candidates], dtype=np.float64),
        np.array(descriptions, dtype=np.int32),
    )


def select(pool: EncodedPool, k: int) -> list[int]:
    """Row indices of the k greedy wscore picks from ``pool``, in pick
    order.

    The first pick is the highest F-score; every later pick maximizes
    wscore against the picks so far, the earliest candidate in
    (−f_score, describe()) order winning ties.  F-scores must be finite.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    order = pool.ranked()
    n = len(order)
    if n == 0:
        return []
    # One row per candidate in ranked order, one slot per attribute.
    width = max(1, int(pool.sizes.max()))
    filled = np.arange(width) < pool.sizes[:, None]
    attrs = np.full((n, width), UNUSED, dtype=np.int32)
    values = np.full((n, width), UNUSED, dtype=np.int32)
    attrs[filled] = pool.attr_cells
    values[filled] = pool.value_cells
    attrs, values, sizes = attrs[order], values[order], pool.sizes[order]
    # An empty pattern keeps its first slot live: free against every
    # pick, so D = 1.0 / 1 as the definition says.
    padding = attrs == UNUSED
    padding[sizes == 0, 0] = False
    divisor = np.maximum(sizes, 1)
    live_f = pool.f_scores[order]
    min_d = np.full(n, np.inf)
    # attribute id -> the newest pick's value id, if it uses the attribute
    picked_value = np.empty(int(attrs.max()) + 2, dtype=np.int32)

    picks = [0]
    while len(picks) < min(k, n):
        newest = picks[-1]
        live_f[newest] = -np.inf
        picked_value[:] = UNUSED
        picked_value[attrs[newest]] = values[newest]
        theirs = picked_value[attrs]
        scores = np.where(
            theirs == UNUSED,
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
    return order[picks].tolist()


def select_diverse_top_k(
    candidates: Sequence[tuple[Pattern, float, Any]],
    k: int,
) -> list[tuple[Pattern, float, Any]]:
    """Greedy wscore selection of k diverse candidates.

    ``candidates`` are (pattern, f_score, payload) triples; the payload is
    carried through untouched (the mining pipeline stores full explanation
    records there).  An :class:`EncodedPool` is selected from as it is;
    anything else is encoded first with a fresh interner.  The picks
    come in :func:`select`'s order.
    """
    if not isinstance(candidates, EncodedPool):
        candidates = encode(candidates, RerankInterner())
    return [candidates[i] for i in select(candidates, k)]
