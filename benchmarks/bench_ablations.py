"""Ablations of CaJaDE's design choices (DESIGN.md §5).

Not paper figures, but each isolates one optimization the paper's text
motivates:

- Proposition 3.1 recall pruning — candidate count with pruning on/off;
- λqcost join-graph skipping — enumeration outcomes per threshold;
- diversity reranking — duplicate-attribute overlap in the top-k with
  and without the wscore reranking.
"""

import numpy as np
import pytest

from repro.api import CajadeSession
from repro.core import (
    CajadeConfig,
    ComparisonQuestion,
    mine_apt,
)
from repro.datasets import user_study_query
from repro.db import ProvenanceTable, parse_sql
from repro.engine import MaterializationEngine

from conftest import format_table

BASE = dict(
    max_join_edges=1, top_k=10, f1_sample_rate=1.0,
    num_selected_attrs=3, seed=2,
)


def _single_apt(db):
    wq = user_study_query()
    query = parse_sql(wq.sql)
    pt = ProvenanceTable.compute(query, db)
    resolved = wq.question.resolve(pt)
    from repro.core.enumeration import enumerate_join_graphs
    from repro.core.schema_graph import SchemaGraph

    config = CajadeConfig(**BASE).with_overrides(max_join_edges=2)
    graphs = list(
        enumerate_join_graphs(
            SchemaGraph.from_database(db), query, pt, db, config
        )
    )
    biggest = max(graphs, key=lambda g: g.num_edges)
    restrict = np.concatenate([resolved.row_ids1, resolved.row_ids2])
    engine = MaterializationEngine(pt, db, cache_mb=0)
    [(_, apt)] = engine.materialize_iter([biggest], restrict)
    return apt, resolved


@pytest.mark.benchmark(group="ablations")
def test_ablation_recall_pruning(benchmark, nba, report):
    db, _ = nba
    apt, resolved = _single_apt(db)

    def run():
        out = {}
        for pruning in (True, False):
            config = CajadeConfig(**BASE).with_overrides(
                use_recall_pruning=pruning
            )
            result = mine_apt(
                apt, resolved, config, np.random.default_rng(2)
            )
            out[pruning] = result
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_recall_pruning",
        format_table(
            ["pruning", "candidates examined", "best F-score"],
            [
                [
                    "on" if k else "off",
                    v.candidates_examined,
                    f"{max((m.f_score for m in v.patterns), default=0):.3f}",
                ]
                for k, v in results.items()
            ],
        ),
    )
    # Pruning must reduce work without losing the best pattern.
    assert (
        results[True].candidates_examined
        <= results[False].candidates_examined
    )
    best_on = max((m.f_score for m in results[True].patterns), default=0)
    best_off = max((m.f_score for m in results[False].patterns), default=0)
    assert best_on >= best_off - 0.05


@pytest.mark.benchmark(group="ablations")
def test_ablation_qcost_skipping(benchmark, nba, report):
    db, sg = nba
    wq = user_study_query()

    def run():
        out = {}
        for threshold in (2e4, 2e5, 1e9):
            config = CajadeConfig(**BASE).with_overrides(
                max_join_edges=2, qcost_threshold=threshold
            )
            result = CajadeSession(db, sg, config).explain(
                wq.sql, wq.question
            )
            out[threshold] = result.enumeration
        return out

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_qcost",
        format_table(
            ["λqcost", "valid", "skipped (cost)", "skipped (pk)"],
            [
                [f"{t:g}", e.valid, e.invalid_cost, e.invalid_pk]
                for t, e in outcomes.items()
            ],
        ),
    )
    thresholds = sorted(outcomes)
    valid_counts = [outcomes[t].valid for t in thresholds]
    assert valid_counts == sorted(valid_counts)
    assert outcomes[thresholds[0]].invalid_cost > 0


@pytest.mark.benchmark(group="ablations")
def test_ablation_diversity(benchmark, nba, report):
    db, sg = nba
    wq = user_study_query()

    def overlap(result) -> float:
        """Mean pairwise attribute-set Jaccard of the top-k patterns."""
        patterns = [e.pattern for e in result.explanations]
        if len(patterns) < 2:
            return 0.0
        total = count = 0
        for i in range(len(patterns)):
            for j in range(i + 1, len(patterns)):
                a, b = patterns[i].attributes, patterns[j].attributes
                union = a | b
                if union:
                    total += len(a & b) / len(union)
                    count += 1
        return total / count if count else 0.0

    def run():
        out = {}
        for diverse in (True, False):
            config = CajadeConfig(**BASE).with_overrides(
                max_join_edges=2, use_diversity=diverse
            )
            result = CajadeSession(db, sg, config).explain(
                wq.sql, wq.question
            )
            out[diverse] = result
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    overlaps = {k: overlap(v) for k, v in results.items()}
    report(
        "ablation_diversity",
        format_table(
            ["diversity reranking", "mean pairwise attribute Jaccard"],
            [["on" if k else "off", f"{v:.3f}"] for k, v in overlaps.items()],
        ),
    )
    # The reranking should not increase redundancy.
    assert overlaps[True] <= overlaps[False] + 0.05
