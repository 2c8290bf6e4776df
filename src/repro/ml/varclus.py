"""Correlation-based attribute clustering (VARCLUS-style).

CaJaDE clusters mutually correlated attributes and keeps one representative
per cluster to avoid redundant patterns (paper §3.1: birth date vs age).
The paper uses SAS VARCLUS [44] but notes "any technique that can cluster
correlated attributes would be applicable"; this module provides an
agglomerative single-linkage clustering over |Pearson correlation| with a
configurable threshold, plus representative selection by mean intra-cluster
correlation.

Categorical columns are label-encoded before correlation; this captures
identity-level redundancy (e.g. an id column and its name column) which is
the redundancy the paper targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, MutableMapping

import numpy as np


def _dtype_of(columns: Mapping[str, np.ndarray], name: str) -> np.dtype:
    """A column's dtype without forcing a gather when avoidable.

    Lazily-gathering mappings (e.g.
    :class:`repro.core.quality.LazyColumns` over a late-materialized
    APT) expose ``dtype_of``; plain dicts fall back to the array.
    """
    probe = getattr(columns, "dtype_of", None)
    if probe is not None:
        return probe(name)
    return columns[name].dtype


def encode_columns(
    columns: Mapping[str, np.ndarray],
    codes: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Encode a name→array mapping as a float matrix (one column each).

    TEXT columns are label-encoded by first occurrence; NULL/NaN become
    a dedicated code so they still correlate.  ``codes`` may supply
    precomputed first-occurrence label encodings for object columns
    (e.g. from :class:`repro.core.kernel.MiningKernel.ml_codes`, which
    produces exactly this encoding) to skip the per-row Python loop —
    columns covered there are never gathered from ``columns`` at all.
    """
    encoded = []
    for name in columns.keys():
        if _dtype_of(columns, name) == object:
            precomputed = codes.get(name) if codes else None
            if precomputed is not None:
                encoded.append(precomputed.astype(np.float64))
                continue
            arr = columns[name]
            label_codes: dict[object, int] = {}
            out = np.empty(len(arr))
            for i, value in enumerate(arr):
                if value not in label_codes:
                    label_codes[value] = len(label_codes)
                out[i] = label_codes[value]
            encoded.append(out)
        else:
            out = columns[name].astype(np.float64)
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


def cramers_v(
    a: np.ndarray | None,
    b: np.ndarray | None,
    a_codes: np.ndarray | None = None,
    b_codes: np.ndarray | None = None,
) -> float:
    """Cramér's V association between two label-encoded columns.

    Label-encoded Pearson correlation cannot detect redundancy between,
    say, an id column and the name column it determines (the codes are a
    permutation); Cramér's V — a chi-squared-based measure on the
    contingency table — does.  Returns a value in [0, 1].

    ``a_codes``/``b_codes`` may supply a precomputed first-occurrence
    label encoding of the column (e.g. from
    :meth:`repro.core.kernel.MiningKernel.ml_codes`, which produces
    exactly what :func:`_codes` computes for object columns), skipping
    the per-row re-encoding pass; the corresponding value array may
    then be ``None`` (it is never read).  Cramér's V only reads the
    contingency table, so any bijective relabeling yields the same
    value.
    """
    return _cramers_v_from_codes(
        _resolve_codes(a, a_codes), _resolve_codes(b, b_codes)
    )


def _cramers_v_from_codes(
    a: tuple[np.ndarray, int], b: tuple[np.ndarray, int]
) -> float:
    """Cramér's V from resolved ``(codes, levels)`` pairs."""
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


def _resolve_codes(
    values: np.ndarray | None, precomputed: np.ndarray | None
) -> tuple[np.ndarray, int]:
    """``(codes, levels)`` from a precomputed encoding or from scratch.

    Precomputed first-occurrence codes are contiguous ``0..K-1``, so the
    level count is ``max + 1``.
    """
    if precomputed is None:
        assert values is not None, "need values when no codes are given"
        return _codes(values)
    codes = precomputed.astype(np.int64, copy=False)
    levels = int(codes.max()) + 1 if len(codes) else 0
    return codes, levels


def _codes(values: np.ndarray, max_bins: int = 12) -> tuple[np.ndarray, int]:
    """Integer codes for a column; numeric columns are quantile-binned."""
    if values.dtype == object:
        mapping: dict[object, int] = {}
        codes = np.empty(len(values), dtype=np.int64)
        for i, v in enumerate(values):
            if v not in mapping:
                mapping[v] = len(mapping)
            codes[i] = mapping[v]
        return codes, len(mapping)
    numeric = values.astype(np.float64)
    nan_mask = np.isnan(numeric)
    fill = np.nanmin(numeric) if (~nan_mask).any() else 0.0
    numeric = np.where(nan_mask, fill, numeric)
    unique = np.unique(numeric)
    if len(unique) <= max_bins:
        lookup = {v: i for i, v in enumerate(unique.tolist())}
        codes = np.array([lookup[v] for v in numeric.tolist()], dtype=np.int64)
        return codes, len(unique)
    edges = np.quantile(numeric, np.linspace(0, 1, max_bins + 1)[1:-1])
    codes = np.searchsorted(edges, numeric).astype(np.int64)
    return codes, max_bins


def association_matrix(
    columns: Mapping[str, np.ndarray],
    codes: dict[str, np.ndarray] | None = None,
    same_type_only: bool = False,
    pair_memo: MutableMapping[tuple, float] | None = None,
    digests: Mapping[str, Hashable] | None = None,
) -> np.ndarray:
    """Pairwise association: |Pearson| for numeric pairs, Cramér's V when
    a categorical column is involved.

    ``codes`` may supply precomputed first-occurrence label encodings per
    column name (object columns only; a numeric column is quantile-binned
    here when it meets a categorical one), feeding :func:`cramers_v`
    without re-encoding — and without ever gathering the coded columns'
    value arrays from a lazily-materializing ``columns`` mapping.

    ``same_type_only`` leaves numeric×categorical entries at 0 instead
    of computing them: :func:`cluster_attributes` never reads them under
    the same flag, and they are the only reason a numeric column is ever
    quantile-binned.

    ``pair_memo`` shares Cramér's V across calls whose columns repeat:
    a pair is looked up under the *ordered* pair of its columns'
    ``digests`` (the transposed table sums in another float order)
    before it is computed, and stored after; ``digests`` must map names
    to keys equal only for columns with equal codes.  |Pearson| is never
    looked up: one joint ``np.corrcoef`` over this call's numeric block.
    """
    codes = codes or {}
    names = list(columns)
    if pair_memo is None:
        # Nothing to share with: names identify columns within one call.
        pair_memo, digests = {}, dict(zip(names, names))
    n = len(names)
    is_object = {m: _dtype_of(columns, m) == object for m in names}
    numeric = [i for i, m in enumerate(names) if not is_object[m]]
    pearson = np.zeros((n, n))
    if numeric:
        sub = encode_columns({names[i]: columns[names[i]] for i in numeric})
        pearson[np.ix_(numeric, numeric)] = correlation_matrix(sub)
    out = np.eye(n)
    # Resolve each column's (codes, levels) once: numeric columns keep
    # their quantile binning but are no longer re-binned per pair, and
    # precomputed label encodings resolve their level count once.
    resolved: dict[str, tuple[np.ndarray, int]] = {}

    def codes_of(name: str) -> tuple[np.ndarray, int]:
        pair = resolved.get(name)
        if pair is None:
            pair = _resolve_codes(
                None if name in codes else columns[name], codes.get(name)
            )
            resolved[name] = pair
        return pair

    for i in range(n):
        for j in range(i + 1, n):
            a, b = names[i], names[j]
            if not is_object[a] and not is_object[b]:
                value = pearson[i, j]
            elif same_type_only and is_object[a] != is_object[b]:
                continue
            else:
                key = (digests[a], digests[b])
                value = pair_memo.get(key)
                if value is None:
                    value = pair_memo[key] = _cramers_v_from_codes(
                        codes_of(a), codes_of(b)
                    )
            out[i, j] = out[j, i] = value
    return out


@dataclass
class AttributeCluster:
    """A cluster of mutually correlated attributes with a representative."""

    members: list[str]
    representative: str


def cluster_attributes(
    columns: Mapping[str, np.ndarray],
    threshold: float = 0.9,
    same_type_only: bool = False,
    codes: dict[str, np.ndarray] | None = None,
    pair_memo: MutableMapping[tuple, float] | None = None,
    digests: Mapping[str, Hashable] | None = None,
) -> list[AttributeCluster]:
    """Cluster attributes whose association exceeds ``threshold``.

    Single-linkage agglomeration: attributes are connected components of
    the graph with edges association >= threshold.  The representative of
    each cluster is the member with the greatest mean association to the
    rest (ties broken by name for determinism).

    ``same_type_only`` restricts merging to pairs of the same kind
    (numeric with numeric, categorical with categorical).  CaJaDE's
    feature selection uses this: merging a numeric attribute into a
    categorical representative would silently remove it from the numeric
    refinement phase.

    ``codes``, ``pair_memo`` and ``digests`` pass straight through to
    :func:`association_matrix` (identical clusters, no re-encoding, no
    Cramér's V computed twice for one pair of digests).
    """
    names = list(columns)
    if not names:
        return []
    corr = association_matrix(
        columns,
        codes=codes,
        same_type_only=same_type_only,
        pair_memo=pair_memo,
        digests=digests,
    )
    n = len(names)
    is_text = [_dtype_of(columns, name) == object for name in names]

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
            if same_type_only and is_text[i] != is_text[j]:
                continue
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
