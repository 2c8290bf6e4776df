"""Oracle for Definition 7 coverage: per-row matching and a pid → side dict.

A provenance row is covered by a pattern iff at least one APT row
descending from it matches.  This is the scoring path
``QualityEvaluator`` shipped before the dictionary-encoded
``MiningKernel``: ``Pattern.match_mask`` over the raw columns (per-row
Python equality on object cells), ``np.unique`` over the matching rows'
provenance ids, and a dict lookup per covered id.  No codes, no slots, no
batches.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.pattern import Pattern
from repro.core.quality import QualityEvaluator


def raw_columns(evaluator: QualityEvaluator) -> dict[str, np.ndarray]:
    """The evaluator's rows of every minable attribute, as raw APT values
    (object cells for TEXT) — never the kernel's codes."""
    return evaluator.apt.minable_columns(evaluator.rows)


def side_of(evaluator: QualityEvaluator) -> dict[int, int]:
    """Provenance row id -> question side (1 or 2) over the evaluator's rows."""
    return dict(
        zip(evaluator._pt_ids.tolist(), evaluator.side_labels().tolist())
    )


def coverage_counts(
    evaluator: QualityEvaluator,
    pattern: Pattern,
    side: dict[int, int] | None = None,
    columns: dict[str, np.ndarray] | None = None,
) -> tuple[int, int]:
    """Distinct covered provenance rows of (t1, t2) in the evaluator's sample.

    ``side`` and ``columns`` let a caller scoring many patterns build
    :func:`side_of` and :func:`raw_columns` once.
    """
    if columns is None:
        columns = raw_columns(evaluator)
    mask = pattern.match_mask(columns)
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


def swap_in(monkeypatch) -> list[int]:
    """Make every evaluator score patterns with this oracle instead of its
    kernel.  ``mine_apt``'s search scores integer rows on the kernel and
    never asks for a pattern's coverage, so a whole mining runs "kernel
    off" only with ``tests/oracles/mining.swap_in`` on top.

    Returns a one-element list counting the patterns the oracle scored.
    """
    sides = functools.cache(side_of)  # one dict per live evaluator
    values = functools.cache(raw_columns)
    scored = [0]

    def batch(self, patterns):
        scored[0] += len(patterns)
        counts = [
            coverage_counts(self, p, sides(self), values(self))
            for p in patterns
        ]
        return (
            np.array([c[0] for c in counts], dtype=np.int64),
            np.array([c[1] for c in counts], dtype=np.int64),
        )

    monkeypatch.setattr(QualityEvaluator, "coverage_batch", batch)
    return scored


def cross_check(monkeypatch) -> list[int]:
    """Compare the kernel's coverage counts with this oracle.

    Wraps ``QualityEvaluator.coverage_batch`` — every pattern-level count,
    single patterns and a join graph's finalists included — and
    ``repro.core.mining.frontier_search``, whose pool holds every count of
    the level-at-a-time search that can reach an answer; raises
    ``AssertionError`` on the first disagreement.  Returns a one-element
    list holding the number of counts checked so far.
    """
    import repro.core.mining as mining

    sides = functools.cache(side_of)  # one dict per live evaluator
    values = functools.cache(raw_columns)
    production = QualityEvaluator.coverage_batch
    search = mining.frontier_search
    checked = [0]

    def check(evaluator, pattern, counts):
        expected = coverage_counts(
            evaluator, pattern, sides(evaluator), values(evaluator)
        )
        assert counts == expected, (
            f"kernel coverage {counts} != oracle {expected} "
            f"for pattern {pattern.describe()}"
        )
        checked[0] += 1

    def verified_batch(self, patterns):
        cov1, cov2 = production(self, patterns)
        for pattern, counts in zip(patterns, zip(cov1.tolist(), cov2.tolist())):
            check(self, pattern, counts)
        return cov1, cov2

    def verified_search(evaluator, *args):
        pool, examined = search(evaluator, *args)
        for entry in pool:
            tp, fp = entry.stats.tp, entry.stats.fp
            check(
                evaluator,
                entry.pattern,
                (tp, fp) if entry.primary == 1 else (fp, tp),
            )
        return pool, examined

    monkeypatch.setattr(QualityEvaluator, "coverage_batch", verified_batch)
    monkeypatch.setattr(mining, "frontier_search", verified_search)
    return checked
