"""Correlation-based attribute clustering (VARCLUS-style).

CaJaDE clusters mutually correlated attributes and keeps one representative
per cluster to avoid redundant patterns (paper §3.1: birth date vs age).
The paper uses SAS VARCLUS [44] but notes "any technique that can cluster
correlated attributes would be applicable"; this module provides an
agglomerative single-linkage clustering with a configurable threshold,
plus representative selection by mean intra-cluster association.

Association is measured within a kind only — |Pearson correlation|
between numeric columns, Cramér's V between categorical ones — and
attributes of different kinds never merge: folding a numeric attribute
into a categorical representative would silently remove it from the
numeric refinement phase.  An attribute's kind is where it arrives:
categorical ones as first-occurrence label codes (``codes``, e.g.
:meth:`repro.core.kernel.MiningKernel.ml_codes`), numeric ones as
float64 values (``numeric``, e.g.
:attr:`repro.core.kernel.MiningKernel.numeric_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, MutableMapping, Sequence

import numpy as np


def encode_columns(
    names: Sequence[str],
    numeric: Mapping[str, np.ndarray],
    codes: Mapping[str, np.ndarray],
) -> np.ndarray:
    """Encode ``names`` as a float matrix (one column each).

    A name in ``codes`` is categorical and becomes its label codes (NULL
    holds a code of its own there, so it still correlates); any other
    is numeric, read from ``numeric`` with its NaNs filled with the
    column mean.
    """
    encoded = []
    for name in names:
        if name in codes:
            encoded.append(codes[name].astype(np.float64))
        else:
            out = np.asarray(numeric[name], dtype=np.float64)
            nan_mask = np.isnan(out)
            if nan_mask.any():
                fill = np.nanmean(out) if (~nan_mask).any() else 0.0
                out = np.where(nan_mask, fill, out)
            encoded.append(out)
    return np.column_stack(encoded) if encoded else np.empty((0, 0))


def correlation_matrix(matrix: np.ndarray) -> np.ndarray:
    """|Pearson correlation| between columns; constants correlate 0."""
    n_cols = matrix.shape[1]
    if n_cols == 0:
        return np.empty((0, 0))
    stds = matrix.std(axis=0)
    safe = matrix.copy()
    constant = stds == 0
    corr = np.zeros((n_cols, n_cols))
    varying = ~constant
    if varying.sum() >= 1:
        sub = safe[:, varying]
        with np.errstate(invalid="ignore"):
            c = np.corrcoef(sub, rowvar=False)
        c = np.atleast_2d(c)
        c = np.nan_to_num(np.abs(c))
        idx = np.nonzero(varying)[0]
        corr[np.ix_(idx, idx)] = c
    np.fill_diagonal(corr, 1.0)
    return corr


def cramers_v(a_codes: np.ndarray, b_codes: np.ndarray) -> float:
    """Cramér's V association between two label-encoded columns.

    Label-encoded Pearson correlation cannot detect redundancy between,
    say, an id column and the name column it determines (the codes are a
    permutation); Cramér's V — a chi-squared-based measure on the
    contingency table — does.  Returns a value in [0, 1].

    The codes are contiguous ``0..K-1`` labels (first-occurrence
    numbering has that shape); Cramér's V only reads the contingency
    table, so any bijective relabeling yields the same value.
    """
    return _cramers_v(_with_levels(a_codes), _with_levels(b_codes))


def _with_levels(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """``(int64 codes, level count)`` of contiguous ``0..K-1`` labels."""
    codes = codes.astype(np.int64, copy=False)
    return codes, int(codes.max()) + 1 if len(codes) else 0


def _cramers_v(
    a: tuple[np.ndarray, int], b: tuple[np.ndarray, int]
) -> float:
    a_codes, a_levels = a
    b_codes, b_levels = b
    if a_levels < 2 or b_levels < 2:
        return 0.0
    n = len(a_codes)
    table = (
        np.bincount(a_codes * b_levels + b_codes, minlength=a_levels * b_levels)
        .reshape(a_levels, b_levels)
        .astype(np.float64)
    )
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / n
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.where(
            expected > 0, (table - expected) ** 2 / expected, 0.0
        ).sum()
    denominator = n * (min(a_levels, b_levels) - 1)
    if denominator <= 0:
        return 0.0
    return float(np.sqrt(min(1.0, chi2 / denominator)))


def association_matrix(
    names: Sequence[str],
    numeric: Mapping[str, np.ndarray],
    codes: Mapping[str, np.ndarray],
    pair_memo: MutableMapping[tuple, float] | None = None,
    digests: Mapping[str, Hashable] | None = None,
) -> np.ndarray:
    """Pairwise association of ``names`` within a kind: |Pearson| for
    numeric pairs, Cramér's V for categorical pairs, 0 across kinds
    (see the module docstring).

    A name in ``codes`` is categorical (its label codes); any other is
    numeric (its values in ``numeric``).

    ``pair_memo`` shares Cramér's V across calls whose columns repeat:
    a pair is looked up under the *ordered* pair of its columns'
    ``digests`` (the transposed table sums in another float order)
    before it is computed, and stored after; ``digests`` must map names
    to keys equal only for columns with equal codes.  |Pearson| is never
    looked up: one joint ``np.corrcoef`` over this call's numeric block.
    """
    names = list(names)
    if pair_memo is None:
        # Nothing to share with: names identify columns within one call.
        pair_memo, digests = {}, dict(zip(names, names))
    n = len(names)
    is_object = [m in codes for m in names]
    numeric_ids = [i for i in range(n) if not is_object[i]]
    pearson = np.zeros((n, n))
    if numeric_ids:
        sub = encode_columns([names[i] for i in numeric_ids], numeric, {})
        pearson[np.ix_(numeric_ids, numeric_ids)] = correlation_matrix(sub)
    out = np.eye(n)
    # Each column's level count is resolved once, when a pair first
    # misses the memo.
    leveled: dict[str, tuple[np.ndarray, int]] = {}

    def with_levels(name: str) -> tuple[np.ndarray, int]:
        if name not in leveled:
            leveled[name] = _with_levels(codes[name])
        return leveled[name]

    for i in range(n):
        for j in range(i + 1, n):
            if is_object[i] != is_object[j]:
                continue
            if not is_object[i]:
                value = pearson[i, j]
            else:
                a, b = names[i], names[j]
                key = (digests[a], digests[b])
                value = pair_memo.get(key)
                if value is None:
                    value = pair_memo[key] = _cramers_v(
                        with_levels(a), with_levels(b)
                    )
            out[i, j] = out[j, i] = value
    return out


@dataclass
class AttributeCluster:
    """A cluster of mutually correlated attributes with a representative."""

    members: list[str]
    representative: str


def cluster_attributes(
    names: Sequence[str],
    numeric: Mapping[str, np.ndarray],
    codes: Mapping[str, np.ndarray],
    threshold: float = 0.9,
    pair_memo: MutableMapping[tuple, float] | None = None,
    digests: Mapping[str, Hashable] | None = None,
) -> list[AttributeCluster]:
    """Cluster attributes whose association exceeds ``threshold``.

    Single-linkage agglomeration: attributes are connected components of
    the graph with edges association >= threshold (there is none between
    a numeric and a categorical attribute).  The representative of each
    cluster is the member with the greatest mean association to the
    rest (ties broken by name for determinism).

    ``names``, ``numeric``, ``codes``, ``pair_memo`` and ``digests``
    pass straight through to :func:`association_matrix`.
    """
    names = list(names)
    if not names:
        return []
    corr = association_matrix(
        names, numeric, codes, pair_memo=pair_memo, digests=digests
    )
    n = len(names)

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for i in range(n):
        for j in range(i + 1, n):
            if corr[i, j] >= threshold:
                union(i, j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    clusters: list[AttributeCluster] = []
    for member_ids in groups.values():
        members = [names[i] for i in member_ids]
        if len(member_ids) == 1:
            clusters.append(
                AttributeCluster(members=members, representative=members[0])
            )
            continue
        scores = []
        for i in member_ids:
            others = [j for j in member_ids if j != i]
            scores.append(float(np.mean([corr[i, j] for j in others])))
        ranked = sorted(
            zip(member_ids, scores), key=lambda p: (-p[1], names[p[0]])
        )
        representative = names[ranked[0][0]]
        clusters.append(
            AttributeCluster(
                members=sorted(members), representative=representative
            )
        )
    clusters.sort(key=lambda c: c.representative)
    return clusters


def pick_cluster_representatives(
    clusters: list[AttributeCluster],
) -> list[str]:
    """The representative attribute of each cluster, sorted."""
    return sorted(c.representative for c in clusters)
