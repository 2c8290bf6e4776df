"""LCA pattern-candidate generation over categorical attributes (§3.2).

Following Gebaly et al. [19], candidates come from the cross product of an
APT sample with itself: for each row pair (t, t'), keep the categorical
attributes on which they agree as equality predicates and wildcard the
rest — the "lowest common ancestor" of the two rows in the pattern
lattice.  Constants that co-occur frequently therefore surface as
candidates.  Numeric attributes stay ``*`` at this stage.

Generation runs on the mining kernel's int32 dictionary codes end to end
(:func:`lca_candidates_codes`), and its cost follows the sample's *distinct*
rows, not its sampled pairs: the sample is a ``(m, n_attrs)`` code matrix
whose d distinct rows are found once; every sampled pair becomes the int64
id of its pair of distinct rows, and those ids deduplicate in one 1-D
``np.unique``.  Each distinct pair's LCA is then packed into one int64 key
(a column adds 0 for a wildcard, or 1 + the rank of the agreed code), one
more 1-D ``np.unique`` keeps one pair per key, and one :class:`Pattern` is
constructed per kept pair (a few hundred per question, where a Pattern per
agreeing pair would be millions) — distinct codes decode to distinct
values, so distinct keys are distinct patterns.

The definition it must equal — a Python loop over row pairs comparing
raw cell objects — is the oracle in ``tests/oracles/lca.py``.  It imports
the sampling helpers below (``_sample_row_indices``, ``_pair_indices``,
``_candidate_order``), so oracle and production consume the rng
identically and can be compared list for list.

The sample is governed by λpat-samp with an absolute cap (1000 rows in the
paper's experiments); the number of examined pairs is additionally capped
to keep the quadratic step bounded.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .config import CajadeConfig
from .pattern import OP_EQ, Pattern, PatternPredicate
from .timing import (
    LCA_DISTINCT_ROW_PAIRS,
    LCA_PAIRS_EXAMINED,
    LCA_PATTERNS_BUILT,
    StepTimer,
)

# Packed LCA keys stay below this bound; a column whose radix would pass
# it re-ranks the keys built so far first.
_KEY_BOUND = 2**62


def _sample_row_indices(
    n_rows: int, config: CajadeConfig, rng: np.random.Generator
) -> np.ndarray:
    """The λpat-samp row sample (one ``rng.choice`` call, or none at
    all — the test oracle shares this helper)."""
    sample_size = max(1, int(round(n_rows * config.lca_sample_rate)))
    sample_size = min(sample_size, config.lca_sample_cap, n_rows)
    if sample_size < n_rows:
        return rng.choice(n_rows, size=sample_size, replace=False)
    return np.arange(n_rows)


def _candidate_order(patterns: Iterable[Pattern]) -> list[Pattern]:
    """Deterministic, path-independent ordering of a candidate set.

    ``(size, describe)`` is the historical (and user-visible) order;
    :meth:`Pattern.order_key` totalizes it over distinct patterns whose
    describes collide, so the order the patterns arrive in never leaks
    into the result.
    """
    return sorted(patterns, key=lambda p: (p.size, p.describe(), p))


def _pair_indices(
    m: int, config: CajadeConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the examined row pairs.

    All i < j pairs when they fit under the cap; otherwise
    ``lca_pair_cap`` pairs drawn with two ``rng.integers`` calls (self
    pairs dropped).
    """
    total_pairs = m * (m - 1) // 2
    if total_pairs <= config.lca_pair_cap:
        i, j = np.triu_indices(m, k=1)
        return i, j
    firsts = rng.integers(0, m, size=config.lca_pair_cap)
    seconds = rng.integers(0, m, size=config.lca_pair_cap)
    keep = firsts != seconds
    return firsts[keep], seconds[keep]


def lca_candidates_codes(
    kernel,
    categorical_attrs: list[str],
    config: CajadeConfig,
    rng: np.random.Generator,
    timer: StepTimer | None = None,
) -> list[Pattern]:
    """LCA generation on a :class:`~repro.core.kernel.MiningKernel`.

    Returns the deduplicated non-empty patterns (the empty all-``*``
    pattern carries no information), computed on int32 dictionary codes:

    - the row sample becomes one ``(m, n_attrs)`` matrix of match codes
      (NULLs ``-1``) with d distinct rows — a pair's LCA depends only on
      the distinct rows it joins;
    - each sampled pair maps to the int64 id ``min·d + max`` of its two
      distinct rows, each distinct row joins itself as ``(a, a)`` (the
      LCA of a row with itself: the singleton candidates), and one 1-D
      ``np.unique`` keeps each distinct pair once;
    - a distinct pair's LCA keeps the attributes its rows agree on (NULL
      codes never agree), packed column by column into one int64 key: 0
      for a wildcard, else 1 + the agreed code's rank among the column's
      distinct sample codes (keys are re-ranked before the radix would
      pass 2⁶²);
    - one more 1-D ``np.unique`` keeps one pair per key, and one
      :class:`Pattern` is constructed per non-empty kept LCA, decoding
      codes back to the original value objects through the kernel's
      inverse dictionaries.

    Numeric attributes (they have no codes) are skipped.
    """
    attrs = [
        a for a in categorical_attrs if kernel.match_codes(a) is not None
    ]
    if not attrs:
        return []
    n_rows = kernel.num_rows
    if n_rows == 0:
        return []

    indices = _sample_row_indices(n_rows, config, rng)
    m = len(indices)
    match = kernel.code_matrix(attrs, indices=indices)
    rows, row_of = np.unique(match, axis=0, return_inverse=True)
    d = len(rows)
    row_of = row_of.reshape(-1)  # numpy 2.0.0 kept a trailing axis

    examined = m * (m - 1) // 2
    if examined <= config.lca_pair_cap:
        # Every row pair is examined (``_pair_indices`` would return all
        # of them and draw nothing), so every pair of distinct rows
        # occurs: the distinct pairs are the upper triangle over d.
        lo, hi = np.triu_indices(d)
    else:
        pair_i, pair_j = _pair_indices(m, config, rng)
        examined = len(pair_i)
        first, second = row_of[pair_i], row_of[pair_j]
        pair_ids = np.unique(np.concatenate([
            np.minimum(first, second) * d + np.maximum(first, second),
            np.arange(d, dtype=np.int64) * (d + 1),
        ]))
        lo, hi = np.divmod(pair_ids, d)

    keys = np.zeros(len(lo), dtype=np.int64)
    bound = 1
    for column in rows.T:
        ranks = np.unique(column, return_inverse=True)[1]
        radix = int(ranks.max()) + 2
        if bound * radix > _KEY_BOUND:
            keys = np.unique(keys, return_inverse=True)[1]
            bound = int(keys.max()) + 1
        agree = (column[lo] == column[hi]) & (column[lo] != -1)
        keys = keys * radix + np.where(agree, ranks[lo] + 1, 0)
        bound *= radix
    kept = np.unique(keys, return_index=True)[1]

    left, right = rows[lo[kept]], rows[hi[kept]]
    lcas = np.where((left == right) & (left != -1), left, np.int32(-1))
    lcas = lcas[(lcas != -1).any(axis=1)]

    values = [kernel.code_values(a) for a in attrs]
    patterns = [
        Pattern(
            PatternPredicate(attr, OP_EQ, inverse[code])
            for attr, inverse, code in zip(attrs, values, row)
            if code != -1
        )
        for row in lcas.tolist()
    ]

    if timer is not None:
        timer.count(LCA_PAIRS_EXAMINED, examined)
        timer.count(LCA_DISTINCT_ROW_PAIRS, len(lo))
        timer.count(LCA_PATTERNS_BUILT, len(lcas))
    return _candidate_order(patterns)


def pick_top_candidates(
    patterns: list[Pattern],
    recalls: np.ndarray,
    k_cat: int,
    recall_threshold: float,
) -> np.ndarray:
    """Indices into ``patterns`` of the k_cat highest-recall candidates
    at or above the threshold, best first (Algorithm 1's pickTopK over
    P_cat).

    ``recalls[i]`` is pattern ``i``'s (possibly sampled) recall w.r.t.
    the question's primary tuple(s); callers pass the max over t1/t2 so a
    pattern strong for either side survives.
    """
    kept = np.flatnonzero(recalls >= recall_threshold).tolist()
    recall = recalls.tolist()
    kept.sort(key=lambda i: (-recall[i], patterns[i].describe(), patterns[i]))
    return np.array(kept[:k_cat], dtype=np.int64)
