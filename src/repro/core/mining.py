"""Pattern mining over one APT — Algorithm 1 (MineAPT).

Phases, matching the paper's step names used in timing breakdowns:

1. *Sampling for F1*: build the (λF1-samp) sampled quality evaluator.
2. *Feature Selection*: §3.1 clustering + random-forest relevance.
3. *Gen. Pat. Cand.*: §3.2 LCA candidates over categorical attributes.
4. *F-score Calc.*: evaluate candidates, pickTopK (k_cat) by recall.
5. *Refine Patterns*: §3.4 numeric refinement with recall-monotonicity
   pruning (Proposition 3.1) and the λattrNum cap.
6. Final top-k with §3.5 diversity reranking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .apt import AugmentedProvenanceTable
from .attribute_filter import (
    FilteredAttributes,
    SelectionMemo,
    filter_attributes,
)
from .config import CajadeConfig
from .diversity import select_diverse_top_k
from .lca import lca_candidates_codes, pick_top_candidates
from .pattern import Pattern
from .quality import QualityEvaluator, QualityStats
from .question import ResolvedQuestion
from .refinement import RefinementGenerator
from .timing import (
    F_SCORE_CALC,
    FEATURE_SELECTION,
    GEN_PATTERN_CANDIDATES,
    REFINE_PATTERNS,
    SAMPLING_FOR_F1,
    StepTimer,
)

# Keep more than top_k candidates around so the diversity reranking has
# genuine alternatives to choose from.
_CANDIDATE_POOL_FACTOR = 5


@dataclass
class MinedPattern:
    """One scored pattern: (Φ, primary tuple choice, sampled stats)."""

    pattern: Pattern
    primary: int
    stats: QualityStats

    @property
    def f_score(self) -> float:
        return self.stats.f_score

    def sort_key(self) -> tuple:
        return (-self.f_score, self.pattern.describe(), self.primary)


@dataclass
class MiningResult:
    """Output of MineAPT for one join graph."""

    patterns: list[MinedPattern]
    evaluator: QualityEvaluator
    filtered: FilteredAttributes
    candidates_examined: int
    # The exact (λF1-samp = 1) evaluator over the same APT, kernel warm;
    # ``evaluator`` itself when mining did not sample.
    full_evaluator: QualityEvaluator


def mine_apt(
    apt: AugmentedProvenanceTable,
    question: ResolvedQuestion,
    config: CajadeConfig,
    rng: np.random.Generator,
    timer: StepTimer | None = None,
    memo: SelectionMemo | None = None,
) -> MiningResult:
    """Run Algorithm 1 on one materialized APT; ``memo`` is the
    question's §3.1 :class:`SelectionMemo`, shared by all its graphs."""
    timer = timer or StepTimer()

    # Candidate generation (feature selection, LCA, numeric fragment
    # boundaries) always sees the full APT so λF1-samp only affects the
    # *estimates* of pattern quality, not the candidate space itself —
    # otherwise sampled and exact runs would enumerate different
    # thresholds and the paper's Fig 10f NDCG comparison would be
    # meaningless.
    full_evaluator = QualityEvaluator(
        apt, question.row_ids1, question.row_ids2, sample_rate=1.0, rng=rng,
        kernel_cache_mb=config.kernel_cache_mb,
    )
    if config.f1_sample_rate >= 1.0:
        evaluator = full_evaluator
    else:
        with timer.step(SAMPLING_FOR_F1):
            evaluator = QualityEvaluator(
                apt,
                question.row_ids1,
                question.row_ids2,
                sample_rate=config.f1_sample_rate,
                rng=rng,
                encoding_source=full_evaluator,
                kernel_cache_mb=config.kernel_cache_mb,
            )

    if config.use_feature_selection:
        with timer.step(FEATURE_SELECTION):
            filtered = filter_attributes(
                apt, full_evaluator, config, rng, timer=timer, memo=memo
            )
    else:
        # The paper's "w/o feature selection" arm reports N/A for this
        # step, so the passthrough is not timed under its label.
        filtered = filter_attributes(
            apt, full_evaluator, config, rng, timer=timer
        )

    with timer.step(GEN_PATTERN_CANDIDATES):
        # §3.2 on the kernel's int32 dictionary codes; attributes whose
        # cells defeated dictionary encoding have no codes and are
        # skipped there.
        candidates = lca_candidates_codes(
            full_evaluator.kernel, filtered.categorical, config, rng,
            timer=timer,
        )

    with timer.step(F_SCORE_CALC):
        recall_cache: dict[Pattern, tuple[int, int]] = {}

        def best_recall(pattern: Pattern) -> float:
            cov = evaluator.coverage_counts(pattern)
            recall_cache[pattern] = cov
            r1 = evaluator.stats_from_counts(*cov, primary=1).recall
            r2 = evaluator.stats_from_counts(*cov, primary=2).recall
            return max(r1, r2)

        threshold = config.recall_threshold if config.use_recall_pruning else 0.0
        todo_list = pick_top_candidates(
            candidates, best_recall, config.k_cat, threshold
        )

    pool: list[MinedPattern] = []
    pool_cap = max(config.top_k * _CANDIDATE_POOL_FACTOR, 25)
    # The all-* pattern (the LCA of two rows that agree nowhere) seeds
    # numeric-only refinements; it is refined but never reported itself.
    todo_list = [Pattern()] + todo_list
    # Each frontier entry carries its parent pattern: a child's mask is
    # parent_mask & predicate_mask when the parent's mask is still
    # resident in the kernel's LRU (full evaluation otherwise) — the
    # result is byte-identical either way.
    todo: deque[tuple[Pattern, Pattern | None]] = deque(
        (pattern, None) for pattern in todo_list
    )
    seen: set[Pattern] = set(todo_list)
    done: set[Pattern] = set()
    refiner = RefinementGenerator(
        full_evaluator.columns(), filtered.numeric, config
    )
    examined = 0

    while todo:
        pattern, parent = todo.popleft()
        done.add(pattern)
        examined += 1
        with timer.step(F_SCORE_CALC):
            coverage = recall_cache.pop(pattern, None)
            if coverage is None:
                coverage = evaluator.coverage_counts(pattern, parent=parent)
        refinable = not config.use_recall_pruning
        for primary in (1, 2):
            stats = evaluator.stats_from_counts(*coverage, primary=primary)
            if (
                config.use_recall_pruning
                and stats.recall > config.recall_threshold
            ):
                refinable = True
            if pattern.size > 0 and stats.f_score > 0.0 and (
                not config.use_recall_pruning
                or stats.recall > config.recall_threshold
            ):
                pool.append(
                    MinedPattern(pattern=pattern, primary=primary, stats=stats)
                )
        if len(pool) > pool_cap * 3:
            pool.sort(key=MinedPattern.sort_key)
            del pool[pool_cap:]
        if not refinable:
            # Proposition 3.1: every refinement has recall <= this
            # pattern's recall, so none can pass the threshold either.
            continue
        with timer.step(REFINE_PATTERNS):
            for refined in refiner.refinements(pattern):
                if refined not in seen and refined not in done:
                    seen.add(refined)
                    todo.append((refined, pattern))

    pool.sort(key=MinedPattern.sort_key)
    del pool[pool_cap:]

    for counter, value in evaluator.kernel_counters().items():
        timer.count(counter, value)

    if config.use_diversity:
        triples = [(mp.pattern, mp.f_score, mp) for mp in pool]
        chosen = select_diverse_top_k(triples, config.top_k)
        top = [payload for _, _, payload in chosen]
    else:
        top = pool[: config.top_k]

    return MiningResult(
        patterns=top,
        evaluator=evaluator,
        filtered=filtered,
        candidates_examined=examined,
        full_evaluator=full_evaluator,
    )
