"""Attribute clustering and relevance filtering (paper §3.1).

``filterAttrs`` from Algorithm 1:

1. Train a random forest predicting which of the two question outputs an
   APT row's provenance belongs to, and rank attributes by impurity-based
   relevance.  Keep the top λ#sel-attr.
2. Cluster mutually correlated attributes (VARCLUS-style) and keep one
   representative per cluster, removing redundant near-duplicates such as
   an id column and its name column.
3. Split survivors into numeric and categorical sets for the mining phases.

Most join graphs of one question hand steps 1 and 2 content-identical
inputs under different names (the same context table hangs off every PT
alias); a :class:`SelectionMemo` shared by the graphs of a question
computes each distinct input once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..ml.hist_forest import HistRandomForestClassifier, splittable_columns
from ..ml.varclus import AttributeCluster, cluster_attributes, encode_columns
from .apt import AugmentedProvenanceTable
from .config import CajadeConfig
from .kernel import MiningKernel
from .quality import QualityEvaluator
from .timing import (
    ASSOCIATION_MEMO_HITS,
    ASSOCIATION_PAIRS_COMPUTED,
    FOREST_FITS_RUN,
    FOREST_MEMO_HITS,
    HIST_HISTOGRAMS_BUILT,
    HIST_NODES_GROWN,
    HIST_SPLITS_EVALUATED,
    StepTimer,
)


@dataclass
class SelectionMemo:
    """§3.1 values of one question, addressed by the content of their inputs.

    ``relevance``: digest of everything the forest fit reads — the
    columns that can win a split, not the caller's full matrix — → the
    fitted forest; ``association``: ordered pair of code-array digests
    → their Cramér's V.  Values are pure functions of what the key
    digests, so a hit is the bytes a miss computes.  Its lifetime is
    its bound: one per question.
    """

    relevance: dict[bytes, HistRandomForestClassifier] = field(
        default_factory=dict
    )
    association: dict[tuple, float] = field(default_factory=dict)


class _CountedPairs:
    """One graph's view of the pair memo with its own hit/store counts."""

    def __init__(self, pairs: dict[tuple, float]):
        self._pairs = pairs
        self.hits = 0
        self.computed = 0

    def get(self, key: tuple) -> float | None:
        value = self._pairs.get(key)
        self.hits += value is not None
        return value

    def __setitem__(self, key: tuple, value: float) -> None:
        self._pairs[key] = value
        self.computed += 1


def _digest(*parts: object) -> bytes:
    """A 128-bit content address: arrays by dtype, shape and bytes (equal
    bytes under another shape are another input), the rest by ``repr``.
    ``blake2b``, never ``hash()`` — keys must not follow PYTHONHASHSEED.
    """
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(repr((part.dtype.str, part.shape)).encode())
            digest.update(np.ascontiguousarray(part))
        else:
            digest.update(repr(part).encode())
    return digest.digest()


@dataclass
class FilteredAttributes:
    """Result of the §3.1 preprocessing step."""

    numeric: list[str]
    categorical: list[str]
    clusters: list[AttributeCluster]
    relevance: dict[str, float]

    @property
    def all_selected(self) -> list[str]:
        return sorted(self.numeric) + sorted(self.categorical)


def filter_attributes(
    apt: AugmentedProvenanceTable,
    evaluator: QualityEvaluator,
    config: CajadeConfig,
    rng: np.random.Generator,
    timer: StepTimer | None = None,
    memo: SelectionMemo | None = None,
) -> FilteredAttributes:
    """Run clustering + random-forest relevance selection on an APT.

    With ``config.use_feature_selection`` disabled, all minable attributes
    pass through untouched (the paper's "Naive" arm of Figure 7).

    ``timer`` (optional) accumulates the histogram forest's work
    counters (nodes grown / histograms built / splits evaluated) and
    how much ``memo`` — the question's :class:`SelectionMemo`; without
    one the call gets its own — answered.
    """
    timer = timer or StepTimer()
    memo = memo or SelectionMemo()
    names = sorted(a.name for a in apt.attributes)
    if not config.use_feature_selection or not names:
        return _passthrough(apt, names)

    labels = evaluator.side_labels()
    informative = labels > 0
    if informative.sum() < 4 or len(set(labels[informative].tolist())) < 2:
        return _passthrough(apt, names)

    # The evaluator's kernel is the only column source: categorical
    # attributes as int32 codes (a bijection of the non-NULL values),
    # numeric ones as float64.
    kernel = evaluator.kernel

    # -- drop categorical attributes that cannot reach λrecall ----------
    # An equality pattern on attribute A can cover at most
    # max-frequency(A) provenance rows of either side; if that bound is
    # already below the recall threshold the attribute is a dead end
    # (near-unique columns such as timestamps).  Dropping them here also
    # protects the random forest from its high-cardinality bias.
    n1, n2 = evaluator.universe_sizes
    names = [
        n
        for n in names
        if apt.attribute(n).is_numeric
        or _best_possible_recall(kernel.match_codes(n), labels, n1, n2)
        >= config.recall_threshold
    ]
    if not names:
        return _passthrough(apt, [])

    # -- optional FD guard (paper §8 future work) ------------------------
    if config.exclude_group_determined:
        names = [
            n
            for n in names
            if not _is_group_determined(
                *_values_and_presence(kernel, n), labels
            )
        ]
        if not names:
            return _passthrough(apt, [])

    # One first-occurrence code map (the kernel's ml encoding) feeds
    # both the Cramér's V association matrix and the random-forest
    # feature matrix — no column is re-encoded.
    ml_codes = {
        n: code_arr
        for n in names
        if (code_arr := kernel.ml_codes(n)) is not None
    }

    # -- cluster correlated attributes, keep representatives -----------
    numeric = kernel.numeric_columns
    pairs = _CountedPairs(memo.association)
    clusters = cluster_attributes(
        names,
        numeric,
        ml_codes,
        threshold=config.correlation_threshold,
        pair_memo=pairs,
        digests={n: _digest(codes) for n, codes in ml_codes.items()},
    )
    timer.count(ASSOCIATION_PAIRS_COMPUTED, pairs.computed)
    timer.count(ASSOCIATION_MEMO_HITS, pairs.hits)
    representatives = sorted(c.representative for c in clusters)

    # -- random-forest relevance over cluster representatives ----------
    matrix = encode_columns(representatives, numeric, ml_codes)
    importances = _forest_importances(
        matrix[informative],
        (labels[informative] == 1).astype(np.float64),
        config,
        timer,
        memo,
    )
    # Positional: graphs whose columns are equal by content but named
    # differently share one fit.
    relevance = dict(zip(representatives, importances))

    keep_count = config.selected_attr_count(len(representatives))
    ranked = sorted(representatives, key=lambda n: (-relevance[n], n))
    kept = set(ranked[:keep_count])

    numeric: list[str] = []
    categorical: list[str] = []
    for name in sorted(kept):
        if apt.attribute(name).is_numeric:
            numeric.append(name)
        else:
            categorical.append(name)
    # Guarantee at least one categorical attribute survives when the APT
    # has any: the LCA phase (§3.2) mines categorical attributes first and
    # yields nothing otherwise.
    if not categorical:
        fallback = [
            n for n in ranked if not apt.attribute(n).is_numeric
        ]
        if fallback:
            categorical.append(fallback[0])
    return FilteredAttributes(
        numeric=numeric,
        categorical=categorical,
        clusters=clusters,
        relevance=relevance,
    )


def _forest_importances(
    X: np.ndarray,
    y: np.ndarray,
    config: CajadeConfig,
    timer: StepTimer,
    memo: SelectionMemo,
) -> np.ndarray:
    """Impurity-based relevance of the columns of ``X`` for labels ``y``.

    Histogram learner on the dictionary codes: every object column of
    the matrix holds first-occurrence label codes (the kernel's
    ml_codes), which the learner finds integral — codes are bins.
    Every feature is examined at every split: relevance ranking wants
    the full importance signal, and per-node feature subsampling only
    adds rng noise to it.

    Only the columns that can win a split are fitted
    (``splittable_columns``: a later duplicate or a single-valued column
    never does), and the memo key digests that reduced matrix with
    everything else the fit reads — an argument added to
    ``forest_args`` is keyed by construction.  Inputs that differ only
    in columns no split uses share one fit; each replays the
    importances at its own width.
    """
    forest_args = {
        "n_estimators": config.rf_num_trees,
        "max_depth": config.rf_max_depth,
        "max_samples": config.rf_max_samples,
        "random_state": config.seed,
    }
    columns = splittable_columns(X)
    fitted = X[:, columns]
    key = _digest(forest_args, fitted, y)
    forest = memo.relevance.get(key)
    if forest is not None:
        timer.count(FOREST_MEMO_HITS)
    else:
        forest = HistRandomForestClassifier(**forest_args).fit(fitted, y)
        timer.count(FOREST_FITS_RUN)
        timer.count(HIST_NODES_GROWN, forest.nodes_grown)
        timer.count(HIST_HISTOGRAMS_BUILT, forest.histograms_built)
        timer.count(HIST_SPLITS_EVALUATED, forest.splits_evaluated)
        memo.relevance[key] = forest
    importances = forest.importances_at(columns, X.shape[1])
    importances.setflags(write=False)
    return importances


def _values_and_presence(
    kernel: MiningKernel, name: str
) -> tuple[np.ndarray, np.ndarray]:
    """An attribute as ``(values, present)``: a categorical one as its
    match codes (which biject to the non-NULL values; ``-1`` is NULL), a
    numeric one as its float64 values and validity mask."""
    codes = kernel.match_codes(name)
    if codes is not None:
        return codes, codes >= 0
    return kernel.numeric_columns[name], kernel.valid(name)


def _is_group_determined(
    values: np.ndarray, present: np.ndarray, labels: np.ndarray
) -> bool:
    """Whether an attribute is an alias of the question's group key.

    True when each side's rows carry exactly one non-NULL value and the
    two values differ — any equality pattern on such an attribute merely
    restates which output tuple a row belongs to.
    """
    side_values = []
    for side in (1, 2):
        unique = np.unique(values[present & (labels == side)])
        if len(unique) != 1:
            return False
        side_values.append(unique[0])
    return bool(side_values[0] != side_values[1])


def _best_possible_recall(
    codes: np.ndarray, labels: np.ndarray, n1: int, n2: int
) -> float:
    """Upper bound on the recall of any equality pattern on a
    categorical column, from its match codes (``-1`` = NULL).

    Counts the most frequent non-NULL value per question side (one
    ``np.bincount``) and divides by that side's provenance size; the max
    over sides bounds what LCA candidates on this attribute can achieve.
    """
    best = 0.0
    for side, size in ((1, n1), (2, n2)):
        if size == 0:
            continue
        selected = codes[labels == side]
        selected = selected[selected >= 0]
        if len(selected):
            best = max(best, int(np.bincount(selected).max()) / size)
    return best


def _passthrough(
    apt: AugmentedProvenanceTable, names: list[str]
) -> FilteredAttributes:
    numeric = [n for n in names if apt.attribute(n).is_numeric]
    categorical = [n for n in names if not apt.attribute(n).is_numeric]
    clusters = [
        AttributeCluster(members=[n], representative=n) for n in names
    ]
    return FilteredAttributes(
        numeric=numeric,
        categorical=categorical,
        clusters=clusters,
        relevance={n: 1.0 for n in names},
    )
