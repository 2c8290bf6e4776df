"""LCA pattern-candidate generation over categorical attributes (§3.2).

Following Gebaly et al. [19], candidates come from the cross product of an
APT sample with itself: for each row pair (t, t'), keep the categorical
attributes on which they agree as equality predicates and wildcard the
rest — the "lowest common ancestor" of the two rows in the pattern
lattice.  Constants that co-occur frequently therefore surface as
candidates.  Numeric attributes stay ``*`` at this stage.

Generation runs on the mining kernel's int32 dictionary codes end to end
(:func:`lca_candidates_codes`): the sample is a ``(m, n_attrs)`` code
matrix, pairwise agreement is one broadcast integer comparison over the
sampled pair index arrays (the NULL sentinel ``-1`` never agrees),
surviving LCAs are deduplicated as int row keys with ``np.unique``, and
one :class:`Pattern` is constructed per surviving key (a few hundred per
question, where a Pattern per agreeing pair would be millions) —
distinct codes decode to distinct values, so distinct keys are distinct
patterns.

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
    LCA_PAIRS_EXAMINED,
    LCA_PATTERNS_BUILT,
    LCA_PEAK_CHUNK_BYTES,
    StepTimer,
)

# Pairwise agreement matrices are materialized in bounded chunks so the
# λpat-samp cross product's peak allocation stays flat even on the
# no-feature-selection arm where n_attrs can be large.  The budget is
# expressed in bytes of live chunk temporaries rather than cells, so a
# wide attribute set shrinks the row count instead of inflating the
# footprint: each chunk cell costs 13 bytes — gathered left codes (4) +
# gathered right codes (4) + boolean agreement (1) + masked keys (4).
_PAIR_CHUNK_BYTES = 48 * 2**20
_BYTES_PER_PAIR_CELL = 13


def _pair_chunk_rows(n_attrs: int, budget_bytes: int = _PAIR_CHUNK_BYTES) -> int:
    """Rows per agreement chunk under the byte budget (always ≥ 1)."""
    return max(1, budget_bytes // (_BYTES_PER_PAIR_CELL * max(1, n_attrs)))


def _record_peak_chunk_bytes(timer: StepTimer | None, peak_bytes: int) -> None:
    """Fold this call's peak chunk footprint into the running-max gauge."""
    if timer is None or peak_bytes <= 0:
        return
    timer.set_gauge(
        LCA_PEAK_CHUNK_BYTES,
        max(timer.counter(LCA_PEAK_CHUNK_BYTES), peak_bytes),
    )


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
      (NULLs ``-1``); its distinct rows are the singleton candidates
      (the LCA of a row with itself);
    - pairwise agreement is ``(left == right) & (left != -1)`` broadcast
      over the pair index arrays; an agreeing attribute keeps its code,
      a disagreeing one becomes the wildcard ``-1`` — NULL codes never
      agree, so ``-1`` is unambiguous as the wildcard marker;
    - survivors (pair keys + singleton rows) deduplicate as int row keys
      in one ``np.unique(axis=0)``;
    - one :class:`Pattern` is constructed per survivor, decoding codes
      back to the original value objects through the kernel's inverse
      dictionaries.

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

    key_chunks = [np.unique(match, axis=0)]

    pair_i, pair_j = _pair_indices(m, config, rng)
    n_attrs = len(attrs)
    chunk = _pair_chunk_rows(n_attrs)
    peak_bytes = 0
    for start in range(0, len(pair_i), chunk):
        rows = min(chunk, len(pair_i) - start)
        peak_bytes = max(peak_bytes, rows * n_attrs * _BYTES_PER_PAIR_CELL)
        left = match[pair_i[start : start + chunk]]
        right = match[pair_j[start : start + chunk]]
        agree = left == right
        agree &= left != -1
        keys = np.where(agree, left, np.int32(-1))
        key_chunks.append(np.unique(keys, axis=0))
    _record_peak_chunk_bytes(timer, peak_bytes)

    all_keys = np.unique(np.concatenate(key_chunks, axis=0), axis=0)
    nonempty = (all_keys != -1).any(axis=1)
    all_keys = all_keys[nonempty]

    values = [kernel.code_values(a) for a in attrs]
    patterns = [
        Pattern(
            PatternPredicate(attr, OP_EQ, inverse[code])
            for attr, inverse, code in zip(attrs, values, row)
            if code != -1
        )
        for row in all_keys.tolist()
    ]

    if timer is not None:
        timer.count(LCA_PAIRS_EXAMINED, len(pair_i))
        timer.count(LCA_PATTERNS_BUILT, len(all_keys))
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
