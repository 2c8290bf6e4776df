"""Oracle for §3.2 LCA candidate generation: the object loop.

A Python loop over sampled row pairs comparing raw cell objects — the
implementation ``repro.core.lca`` shipped before candidates were computed
on the mining kernel's dictionary codes, kept verbatim.  It builds a
``Pattern`` per agreeing pair (the production path builds one per
deduplicated survivor), so it is only usable on test-sized inputs.

The row sample, the pair sample and the output order come from the
production module's own helpers, so both sides consume the rng identically
and results compare list for list (``tests/test_core_lca.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import CajadeConfig
from repro.core.lca import (
    _candidate_order,
    _pair_indices,
    _sample_row_indices,
)
from repro.core.pattern import OP_EQ, Pattern, PatternPredicate
from repro.core.timing import LCA_PAIRS_EXAMINED, LCA_PATTERNS_BUILT, StepTimer


def lca_candidates(
    columns: dict[str, np.ndarray],
    categorical_attrs: list[str],
    config: CajadeConfig,
    rng: np.random.Generator,
    timer: StepTimer | None = None,
) -> list[Pattern]:
    """§3.2 LCA candidates by the definition, one row pair at a time.

    ``columns`` are row-aligned APT columns (typically already restricted
    to the question's provenance rows).  Returns deduplicated non-empty
    patterns; the empty pattern (all ``*``) is excluded because it carries
    no information.
    """
    attrs = [
        a
        for a in categorical_attrs
        if a in columns and columns[a].dtype == object
    ]
    if not attrs:
        return []
    n_rows = len(next(iter(columns.values())))
    if n_rows == 0:
        return []

    indices = _sample_row_indices(n_rows, config, rng)
    arrays = [columns[a][indices] for a in attrs]
    m = len(indices)

    patterns: set[Pattern] = set()
    built = 0

    # Singleton patterns from single rows (the LCA of a row with itself);
    # these capture individually frequent constants.
    for i in range(m):
        predicates = [
            PatternPredicate(attr, OP_EQ, arr[i])
            for attr, arr in zip(attrs, arrays)
            if arr[i] is not None
        ]
        if predicates:
            patterns.add(Pattern(predicates))
            built += 1

    # Pairwise LCAs, capped.
    pair_i, pair_j = _pair_indices(m, config, rng)
    for i, j in zip(pair_i.tolist(), pair_j.tolist()):
        predicates = []
        for attr, arr in zip(attrs, arrays):
            vi, vj = arr[i], arr[j]
            if vi is not None and vi == vj:
                predicates.append(PatternPredicate(attr, OP_EQ, vi))
        if predicates:
            patterns.add(Pattern(predicates))
            built += 1

    if timer is not None:
        timer.count(LCA_PAIRS_EXAMINED, len(pair_i))
        timer.count(LCA_PATTERNS_BUILT, built)
    return _candidate_order(patterns)


def columns_of(kernel, attrs: list[str]) -> dict[str, np.ndarray]:
    """The object columns a kernel encoded, decoded back from its codes."""
    columns: dict[str, np.ndarray] = {}
    for attr in attrs:
        values = kernel.code_values(attr)
        if values is None:
            continue
        codes = kernel.code_matrix([attr])[:, 0]
        column = np.empty(len(codes), dtype=object)
        column[:] = [None if code < 0 else values[code] for code in codes]
        columns[attr] = column
    return columns


def swap_in(monkeypatch) -> None:
    """Make ``mine_apt`` generate its candidates with this oracle."""

    def from_kernel(kernel, categorical_attrs, config, rng, timer=None):
        return lca_candidates(
            columns_of(kernel, categorical_attrs),
            categorical_attrs,
            config,
            rng,
            timer=timer,
        )

    monkeypatch.setattr("repro.core.mining.lca_candidates_codes", from_kernel)
