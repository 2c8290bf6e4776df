"""Pattern mining over one APT — Algorithm 1 (MineAPT).

Phases, matching the paper's step names used in timing breakdowns:

1. *Sampling for F1*: build the (λF1-samp) sampled quality evaluator.
2. *Feature Selection*: §3.1 clustering + random-forest relevance.
3. *Gen. Pat. Cand.*: §3.2 LCA candidates over categorical attributes.
4. *F-score Calc.*: evaluate candidates, pickTopK (k_cat) by recall.
5. *Refine Patterns*: §3.4 numeric refinement with recall-monotonicity
   pruning (Proposition 3.1) and the λattrNum cap.
6. Final top-k with §3.5 diversity reranking.

Steps 4 and 5 are one breadth-first search over the refinement lattice,
run a *level* at a time on integer rows (:func:`frontier_search`): a
node is ``(seed id, ascending extension ids)``, a level's masks are one
2-D AND, its coverage one reduction, its scores and the Proposition 3.1
test vector arithmetic.  Whether a pattern is pooled or refined depends
only on its own two counts, and the pool is the global top by a total
order — so nothing depends on visit order, and :class:`Pattern` objects
are built only for the pool.  The pattern-at-a-time loop it must equal
is the oracle in ``tests/oracles/mining.py``.
"""

from __future__ import annotations

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
    MINING_LEVELS,
    PATTERNS_EXAMINED,
    POOL_PATTERNS_BUILT,
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
        """A total order over a join graph's scored patterns (the
        pattern itself breaks ties between equal descriptions)."""
        return (
            -self.f_score, self.pattern.describe(), self.primary, self.pattern
        )


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


def pool_capacity(config: CajadeConfig) -> int:
    """Scored patterns kept per join graph for the §3.5 rerank."""
    return max(config.top_k * _CANDIDATE_POOL_FACTOR, 25)


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """``numerator / denominator`` as float64, 0.0 where the denominator
    is 0 — the guard of :class:`QualityStats`, applied before dividing."""
    out = np.zeros(len(numerator), dtype=np.float64)
    np.divide(numerator, denominator, out=out, where=denominator != 0)
    return out


def _quality(
    tp: np.ndarray, fp: np.ndarray, total: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(fn, recall, F-score)`` of a batch, in :class:`QualityStats`'
    operation order: int64 → float64 is exact and IEEE division is
    correctly rounded, so the results equal the scalar ones bit for bit."""
    fn = total - tp
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    return fn, recall, _ratio(2.0 * precision * recall, precision + recall)


def _children(
    parents: np.ndarray, blocked: np.ndarray, extension_attr: np.ndarray
) -> np.ndarray:
    """The next level: every parent × every extension on an attribute
    the parent does not use yet, as canonical de-duplicated rows.

    Children come from *every* refinable parent — ``(seed, {e1, e2})``
    must still be reached through ``{e2}`` when Proposition 3.1 pruned
    ``{e1}`` — so the same child arrives once per surviving parent.
    """
    allowed = ~blocked[parents[:, 0]]
    for k in range(1, parents.shape[1]):
        allowed &= extension_attr[parents[:, k], None] != extension_attr
    parent, extension = np.nonzero(allowed)
    children = np.concatenate([parents[parent], extension[:, None]], axis=1)
    children[:, 1:].sort(axis=1)
    children = children[np.lexsort(children.T[::-1])]
    fresh = np.ones(len(children), dtype=bool)
    fresh[1:] = (children[1:] != children[:-1]).any(axis=1)
    return children[fresh]


def frontier_search(
    evaluator: QualityEvaluator,
    candidates: list[Pattern],
    refiner: RefinementGenerator,
    config: CajadeConfig,
    timer: StepTimer,
) -> tuple[list[MinedPattern], int]:
    """Algorithm 1's pickTopK + refinement BFS, a level at a time.

    Returns the pool — the ``pool_capacity(config)`` best
    ``(pattern, primary)`` pairs by :meth:`MinedPattern.sort_key` among
    everything examined — and the number of patterns examined.
    """
    kernel = evaluator.kernel
    totals = evaluator.universe_sizes
    pruning = config.use_recall_pruning
    threshold = config.recall_threshold
    extensions = refiner.extensions
    extension_attr = refiner.extension_attr

    with timer.step(F_SCORE_CALC):
        # Level 0 is scored with the LCA candidates it is picked from.
        # The all-* pattern (the LCA of two rows that agree nowhere)
        # seeds numeric-only refinements; it is refined but never
        # reported itself.
        scored = [Pattern()] + candidates
        masks, ids = kernel.encode(scored)
        cov = kernel.score(masks, ids)
        best_recall = np.maximum(
            _quality(cov[0], cov[1], totals[0])[1],
            _quality(cov[1], cov[0], totals[1])[1],
        )
        picked = np.concatenate(([0], 1 + pick_top_candidates(
            candidates, best_recall[1:], config.k_cat,
            threshold if pruning else 0.0,
        )))
        seeds = [scored[i] for i in picked]
        cov = cov[0][picked], cov[1][picked]
        # Rows of ``base``: the seeds' masks, then one per extension.
        base = kernel.predicate_masks(extensions, lead=len(seeds))
        base[: len(seeds)] = kernel.conjunctions(masks, ids[picked])

    # What a seed already holds blocks and counts as it would in
    # ``Pattern.uses`` / ``num_numeric_predicates``.
    blocked = np.array(
        [[seed.uses(a) for a in refiner.extension_attrs] for seed in seeds],
        dtype=bool,
    ).reshape(len(seeds), -1)[:, extension_attr]
    numeric = set(refiner.numeric_attrs)
    room = config.max_numeric_predicates - np.array(
        [seed.num_numeric_predicates(numeric) for seed in seeds]
    )
    empty_seed = np.array([seed.size == 0 for seed in seeds])

    levels: list[np.ndarray] = []
    entries: list[tuple] = []
    rows = np.arange(len(seeds))[:, None]
    while len(rows):
        level = len(levels)
        levels.append(rows)
        with timer.step(F_SCORE_CALC):
            if level:  # level 0 was scored above, with the candidates
                ids = rows.copy()
                ids[:, 1:] += len(seeds)
                cov = kernel.score(base, ids)
            refinable = np.full(len(rows), not pruning)
            # |Φ| > 0: only an empty seed itself is never reported.
            sized = ~empty_seed[rows[:, 0]] if level == 0 else True
            for primary in (1, 2):
                tp, fp = cov[primary - 1], cov[2 - primary]
                fn, recall, f = _quality(tp, fp, totals[primary - 1])
                passing = recall > threshold if pruning else True
                refinable |= passing
                pooled = np.flatnonzero((f > 0.0) & passing & sized)
                entries.append((
                    f[pooled], np.full(len(pooled), level), pooled,
                    np.full(len(pooled), primary),
                    tp[pooled], fp[pooled], fn[pooled],
                ))
        with timer.step(REFINE_PATTERNS):
            # Proposition 3.1: every refinement has recall <= its
            # parent's, so below the threshold none can pass either.
            parents = rows[refinable & (room[rows[:, 0]] > level)]
            rows = _children(parents, blocked, extension_attr)

    with timer.step(REFINE_PATTERNS):
        f, *columns = map(np.concatenate, zip(*entries))
        cap = pool_capacity(config)
        keep = np.arange(len(f))
        if len(f) > cap:
            # Ties at the cut are all built: the order among them needs
            # their descriptions.
            keep = np.flatnonzero(f >= np.partition(f, -cap)[-cap])
        built: dict[tuple[int, int], Pattern] = {}
        pool = []
        for level, node, primary, *counts in zip(
            *(column[keep].tolist() for column in columns)
        ):
            pattern = built.get((level, node))
            if pattern is None:
                seed, *extended = levels[level][node].tolist()
                pattern = built[level, node] = (
                    Pattern(
                        seeds[seed].predicates
                        + tuple(extensions[e] for e in extended)
                    )
                    if extended
                    else seeds[seed]
                )
            pool.append(MinedPattern(pattern, primary, QualityStats(*counts)))
        pool.sort(key=MinedPattern.sort_key)
        del pool[cap:]

    examined = sum(map(len, levels))
    timer.count(PATTERNS_EXAMINED, examined)
    timer.count(MINING_LEVELS, len(levels))
    timer.count(POOL_PATTERNS_BUILT, len(built))
    return pool, examined


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
        apt, question.row_ids1, question.row_ids2, sample_rate=1.0, rng=rng
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
        # §3.2 on the kernel's int32 dictionary codes.
        candidates = lca_candidates_codes(
            full_evaluator.kernel, filtered.categorical, config, rng,
            timer=timer,
        )

    refiner = RefinementGenerator(
        full_evaluator.kernel.numeric_columns, filtered.numeric, config
    )
    pool, examined = frontier_search(
        evaluator, candidates, refiner, config, timer
    )

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
