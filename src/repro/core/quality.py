"""Pattern quality metrics (paper Definition 7) with optional sampling.

Coverage is counted per *provenance* row: a PT row t' of output tuple t1 is
covered by (Ω, Φ) iff at least one APT row descending from t' matches Φ.
Then

    TP  = covered provenance rows of t1
    FP  = covered provenance rows of t2
    FN  = |PT(t1)| - TP

and precision/recall/F-score follow.  The denominators count *all*
provenance rows of the output tuple — including rows the join dropped
(they are never covered, exactly as Definition 7 prescribes).

λF1-samp sampling (paper §3.3/§5.4) is realized by sampling provenance
rows per side and evaluating coverage exactly on the sampled universe;
this yields unbiased recall/precision estimates while scanning only the
matching fraction of the APT.

Scoring runs on a :class:`repro.core.kernel.MiningKernel` built once per
evaluator and the only reader of the APT's columns in mining:
categorical columns arrive as gathered int32 codes, provenance ids map
to dense slots (side 1 first, then side 2) and patterns are scored a
batch at a time — conjunctions of predicate masks, one OR per slot, two
contiguous counts.  The per-row definition it must
equal (``Pattern.match_mask`` + ``np.unique`` + a pid → side dict) is
the oracle in ``tests/oracles/coverage.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .apt import AugmentedProvenanceTable
from .kernel import MiningKernel
from .pattern import Pattern


@dataclass(frozen=True)
class QualityStats:
    """TP/FP/FN counts and the derived quality measures."""

    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        denominator = self.tp + self.fp
        if denominator == 0:
            return 0.0
        return self.tp / denominator

    @property
    def recall(self) -> float:
        denominator = self.tp + self.fn
        if denominator == 0:
            return 0.0
        return self.tp / denominator

    @property
    def f_score(self) -> float:
        p, r = self.precision, self.recall
        if p + r == 0.0:
            return 0.0
        return 2.0 * p * r / (p + r)

    def __repr__(self) -> str:
        return (
            f"QualityStats(tp={self.tp}, fp={self.fp}, fn={self.fn}, "
            f"P={self.precision:.3f}, R={self.recall:.3f}, "
            f"F={self.f_score:.3f})"
        )


@dataclass(frozen=True)
class PatternSupport:
    """Relative support (c1, a1), (c2, a2) of an explanation (Def 6)."""

    covered1: int
    total1: int
    covered2: int
    total2: int

    def describe(self) -> str:
        return (
            f"{self.covered1} of {self.total1} vs "
            f"{self.covered2} of {self.total2}"
        )


class QualityEvaluator:
    """Evaluates patterns against one APT for a resolved user question.

    Parameters:
        apt: the materialized augmented provenance table.
        row_ids1: provenance row ids of output tuple t1.
        row_ids2: provenance row ids of output tuple t2 (or "the rest").
        sample_rate: λF1-samp; 1.0 evaluates exactly.
        rng: generator driving the provenance-row sample.
        encoding_source: an evaluator over the same APT whose kernel
            encodings this one slices instead of re-encoding.
    """

    def __init__(
        self,
        apt: AugmentedProvenanceTable,
        row_ids1: np.ndarray,
        row_ids2: np.ndarray,
        sample_rate: float = 1.0,
        rng: np.random.Generator | None = None,
        *,
        encoding_source: "QualityEvaluator | None" = None,
    ):
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        rng = rng or np.random.default_rng(0)
        self.apt = apt

        ids1 = np.asarray(row_ids1, dtype=np.int64)
        ids2 = np.asarray(row_ids2, dtype=np.int64)
        if sample_rate < 1.0:
            ids1 = self._sample_ids(ids1, sample_rate, rng)
            ids2 = self._sample_ids(ids2, sample_rate, rng)
        self._n1 = len(ids1)
        self._n2 = len(ids2)

        # The sampling universe is one vectorized union of the two
        # sides' provenance id arrays; rows are kept iff their id
        # appears in it (a sorted-array membership pass — no Python set
        # accumulation anywhere on this path).
        pt_ids = apt.pt_row_ids
        universe = np.union1d(ids1, ids2)
        if len(universe):
            pos = np.searchsorted(universe, pt_ids)
            pos = np.minimum(pos, len(universe) - 1)
            keep = universe[pos] == pt_ids
        else:
            keep = np.zeros(len(pt_ids), dtype=bool)
        self._keep = keep
        # ``rows``: the APT rows this evaluator scores (None = all); the
        # kernel composes them with the frame's index vectors.
        if keep.all():
            self.rows = None
            self._pt_ids = pt_ids
            self.sampled_rows = len(pt_ids)
        else:
            self.rows = np.nonzero(keep)[0]
            self._pt_ids = pt_ids[self.rows]
            self.sampled_rows = len(self.rows)

        # Dense coverage slots: side-1 slots occupy [0, m1), side-2
        # slots [m1, m1+m2).  Ids present on both sides count as side 2
        # (matching the historical dict semantics where the second
        # assignment won).
        ids2_unique = np.unique(ids2)
        ids1_only = np.setdiff1d(ids1, ids2_unique)
        self._m1 = len(ids1_only)
        slot_ids = np.concatenate([ids1_only, ids2_unique])
        order = np.argsort(slot_ids, kind="stable")
        sorted_slot_ids = slot_ids[order]
        if self.sampled_rows:
            slot_pos = np.searchsorted(sorted_slot_ids, self._pt_ids)
            self._row_slot = order[slot_pos].astype(np.int64)
        else:
            self._row_slot = np.empty(0, dtype=np.int64)
        self._side_labels = np.where(
            self._row_slot < self._m1, 1, 2
        ).astype(np.int64)

        self._encoding_source = encoding_source
        self._kernel: MiningKernel | None = None

    @staticmethod
    def _sample_ids(
        ids: np.ndarray, rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        if len(ids) == 0:
            return ids
        size = max(1, int(round(len(ids) * rate)))
        if size >= len(ids):
            return ids
        return rng.choice(ids, size=size, replace=False)

    # ------------------------------------------------------------------
    @property
    def kernel(self) -> MiningKernel:
        """The (lazily built) columnar kernel.

        With an ``encoding_source`` evaluator over the same APT (e.g.
        the exact evaluator while this one is the λF1-samp sample), the
        encoding dictionaries are shared and its code arrays sliced
        instead of gathered again.  The source's kernel is built on
        demand if needed.
        """
        if self._kernel is None:
            source = self._encoding_source
            if (
                source is not None
                and source is not self
                and source.apt is self.apt
                and len(source._keep) == len(self._keep)
            ):
                selector = self._keep[source._keep]
                if int(selector.sum()) == self.sampled_rows:
                    self._kernel = MiningKernel.derived(
                        source.kernel,  # built on demand
                        selector,
                        self._row_slot,
                        self._m1,
                    )
                    return self._kernel
            self._kernel = MiningKernel(
                self.apt, self.rows, self._row_slot, self._m1
            )
        return self._kernel

    # ------------------------------------------------------------------
    def coverage_batch(
        self, patterns: Sequence[Pattern]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct covered provenance rows of (t1, t2) in the sample,
        for a batch of patterns at once: two int64 arrays."""
        return self.kernel.coverage(patterns)

    def coverage_counts(self, pattern: Pattern) -> tuple[int, int]:
        """:meth:`coverage_batch` of one pattern, as two ints."""
        cov1, cov2 = self.coverage_batch([pattern])
        return int(cov1[0]), int(cov2[0])

    def evaluate(self, pattern: Pattern, primary: int = 1) -> QualityStats:
        """Definition 7 statistics with the chosen primary tuple."""
        cov1, cov2 = self.coverage_counts(pattern)
        return self.stats_from_counts(cov1, cov2, primary)

    def stats_from_counts(
        self, cov1: int, cov2: int, primary: int = 1
    ) -> QualityStats:
        if primary == 1:
            return QualityStats(tp=cov1, fp=cov2, fn=self._n1 - cov1)
        if primary == 2:
            return QualityStats(tp=cov2, fp=cov1, fn=self._n2 - cov2)
        raise ValueError("primary must be 1 or 2")

    # ------------------------------------------------------------------
    @property
    def universe_sizes(self) -> tuple[int, int]:
        """(sampled |PT(t1)|, sampled |PT(t2)|)."""
        return self._n1, self._n2

    def side_labels(self) -> np.ndarray:
        """Per-APT-row side (1 or 2) for the feature-selection labels.

        Precomputed during construction (dense slot membership); treat
        the returned array as read-only.
        """
        return self._side_labels
