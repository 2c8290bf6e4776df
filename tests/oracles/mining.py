"""Oracle for Algorithm 1's refinement search: the pattern-at-a-time BFS.

The loop ``repro.core.mining.mine_apt`` shipped before the search became
level-synchronous array operations on extension ids, kept verbatim: pick
the k_cat highest-recall LCA candidates one ``coverage_counts`` call at a
time, then pop one ``Pattern`` from a deque, score it, pool it for either
primary, and — unless Proposition 3.1 prunes it — construct and hash every
one-predicate numeric refinement.  The pool is sorted and truncated
whenever it grows past three times its cap, which equals keeping the
global top ``pool_cap`` because ``MinedPattern.sort_key`` is a total order.

Every count comes from ``evaluator.coverage_counts(pattern)``, so this
composes with ``tests/oracles/coverage.swap_in`` (Definition 7 by per-row
matching under Algorithm 1 by per-pattern search).
"""

from __future__ import annotations

from collections import deque

from repro.core.config import CajadeConfig
from repro.core.mining import MinedPattern, pool_capacity
from repro.core.pattern import Pattern
from repro.core.quality import QualityEvaluator
from repro.core.refinement import RefinementGenerator
from repro.core.timing import F_SCORE_CALC, REFINE_PATTERNS, StepTimer


def refinements(
    generator: RefinementGenerator, pattern: Pattern
) -> list[Pattern]:
    """All one-predicate numeric extensions permitted by λattrNum."""
    if (
        pattern.num_numeric_predicates(set(generator.numeric_attrs))
        >= generator.config.max_numeric_predicates
    ):
        return []
    return [
        pattern.refined(p.attribute, p.op, p.value)
        for p in generator.extensions
        if not pattern.uses(p.attribute)
    ]


def pick_top_candidates(
    patterns: list[Pattern],
    recall_of,
    k_cat: int,
    recall_threshold: float,
) -> list[Pattern]:
    """Filter by recall threshold, then keep the k_cat highest-recall
    candidates (Algorithm 1's pickTopK over P_cat), scoring one at a time."""
    scored = []
    for pattern in patterns:
        recall = recall_of(pattern)
        if recall >= recall_threshold:
            scored.append((recall, pattern))
    scored.sort(key=lambda pair: (-pair[0], pair[1].describe(), pair[1]))
    return [pattern for _, pattern in scored[:k_cat]]


def search(
    evaluator: QualityEvaluator,
    candidates: list[Pattern],
    refiner: RefinementGenerator,
    config: CajadeConfig,
    timer: StepTimer,
) -> tuple[list[MinedPattern], int]:
    """(pool — the global top ``pool_capacity(config)`` —, patterns examined)."""
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
    pool_cap = pool_capacity(config)
    # The all-* pattern (the LCA of two rows that agree nowhere) seeds
    # numeric-only refinements; it is refined but never reported itself.
    todo_list = [Pattern()] + todo_list
    todo: deque[Pattern] = deque(todo_list)
    seen: set[Pattern] = set(todo_list)
    done: set[Pattern] = set()
    examined = 0

    while todo:
        pattern = todo.popleft()
        done.add(pattern)
        examined += 1
        with timer.step(F_SCORE_CALC):
            coverage = recall_cache.pop(pattern, None)
            if coverage is None:
                coverage = evaluator.coverage_counts(pattern)
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
            for refined in refinements(refiner, pattern):
                if refined not in seen and refined not in done:
                    seen.add(refined)
                    todo.append(refined)

    pool.sort(key=MinedPattern.sort_key)
    del pool[pool_cap:]
    return pool, examined


def swap_in(monkeypatch) -> list[int]:
    """Make ``mine_apt`` search with this oracle instead of the frontier.

    Returns a one-element list counting the searches the oracle ran, so a
    test can assert it was actually reached.
    """
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return search(*args)

    monkeypatch.setattr("repro.core.mining.frontier_search", counted)
    return calls
