"""Oracle for Definition 7 coverage: per-row matching and a pid → side dict.

A provenance row is covered by a pattern iff at least one APT row
descending from it matches.  This is the scoring path
``QualityEvaluator`` shipped before the dictionary-encoded
``MiningKernel``: ``Pattern.match_mask`` over the raw columns (per-row
Python equality on object cells), ``np.unique`` over the matching rows'
provenance ids, and a dict lookup per covered id.  No codes, no slots, no
mask cache.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.pattern import Pattern
from repro.core.quality import QualityEvaluator


def side_of(evaluator: QualityEvaluator) -> dict[int, int]:
    """Provenance row id -> question side (1 or 2) over the evaluator's rows."""
    return dict(
        zip(evaluator._pt_ids.tolist(), evaluator.side_labels().tolist())
    )


def coverage_counts(
    evaluator: QualityEvaluator,
    pattern: Pattern,
    side: dict[int, int] | None = None,
) -> tuple[int, int]:
    """Distinct covered provenance rows of (t1, t2) in the evaluator's sample.

    ``side`` lets a caller scoring many patterns build :func:`side_of` once.
    """
    mask = pattern.match_mask(evaluator.columns())
    if not mask.any():
        return 0, 0
    if side is None:
        side = side_of(evaluator)
    cov1 = cov2 = 0
    for pid in np.unique(evaluator._pt_ids[mask]).tolist():
        if side.get(pid) == 1:
            cov1 += 1
        elif side.get(pid) == 2:
            cov2 += 1
    return cov1, cov2


def swap_in(monkeypatch) -> None:
    """Make every evaluator score with this oracle instead of its kernel."""
    sides = functools.cache(side_of)  # one dict per live evaluator
    monkeypatch.setattr(
        QualityEvaluator,
        "coverage_counts",
        lambda self, pattern, parent=None: coverage_counts(
            self, pattern, sides(self)
        ),
    )


def cross_check(monkeypatch) -> list[int]:
    """Compare every kernel coverage computation with this oracle.

    Wraps ``QualityEvaluator.coverage_counts`` — the one place the pipeline
    calls ``MiningKernel.coverage`` — and raises ``AssertionError`` on the
    first disagreement.  Returns a one-element list holding the number of
    calls checked so far.
    """
    sides = functools.cache(side_of)  # one dict per live evaluator
    production = QualityEvaluator.coverage_counts
    checked = [0]

    def verified(self, pattern, parent=None):
        counts = production(self, pattern, parent)
        expected = coverage_counts(self, pattern, sides(self))
        assert counts == expected, (
            f"kernel coverage {counts} != oracle {expected} "
            f"for pattern {pattern.describe()}"
        )
        checked[0] += 1
        return counts

    monkeypatch.setattr(QualityEvaluator, "coverage_counts", verified)
    return checked
