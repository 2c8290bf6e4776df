"""Experiment runners that regenerate the paper's tables and figures.

Each function returns plain dict/list structures with the same rows and
series labels the paper reports, so benchmarks can print comparable
output and tests can assert on shapes (who wins, rough factors,
crossovers) rather than absolute seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..api import CajadeSession
from ..baselines.explanation_tables import (
    ExplanationTables,
    discretize_numeric_columns,
)
from ..core.config import CajadeConfig
from ..core.explainer import ExplanationResult
from ..core.join_graph import JoinGraph
from ..core.pattern import Pattern
from ..core.quality import QualityEvaluator
from ..core.timing import StepTimer
from ..db.database import Database
from ..db.parser import parse_sql
from ..db.provenance import ProvenanceTable
from ..engine import MaterializationEngine
from ..ml.metrics import ndcg, recall_at_k, top_k_match
from ..core.schema_graph import SchemaGraph
from .. import datasets
from ..datasets.workloads import WorkloadQuery


def _question_apt(
    db: Database, workload: WorkloadQuery, join_graph: JoinGraph
) -> tuple:
    """The workload question resolved, and its APT over ``join_graph``
    restricted to the question's provenance rows."""
    pt = ProvenanceTable.compute(parse_sql(workload.sql), db)
    resolved = workload.question.resolve(pt)
    restrict = np.concatenate([resolved.row_ids1, resolved.row_ids2])
    engine = MaterializationEngine(pt, db, cache_mb=0)
    [(_, apt)] = engine.materialize_iter([join_graph], restrict)
    return resolved, apt


def explain_with_breakdown(
    db: Database,
    schema_graph: SchemaGraph,
    workload: WorkloadQuery,
    config: CajadeConfig,
    session: CajadeSession | None = None,
) -> tuple[ExplanationResult, dict[str, float]]:
    """Run one explanation and return (result, step→seconds breakdown).

    A fresh one-request session per call by default — experiment arms
    measure *cold* runtimes, so cross-call warmth would corrupt the
    figures.  Pass a ``session`` explicitly to measure warm behaviour
    instead (e.g. ``benchmarks/bench_session.py``).
    """
    overrides: dict[str, object] = {}
    if session is None:
        session = CajadeSession(db, schema_graph, config)
    else:
        # The engine's budget (apt_cache_mb) comes from the session's
        # own config — a per-request override cannot retrofit an
        # already-built engine, so it is not diffed.
        from ..api.types import _SESSION_LEVEL_FIELDS

        overrides = {
            name: value
            for name, value in vars(config).items()
            if name not in _SESSION_LEVEL_FIELDS
            and value != getattr(session.config, name)
        }
    timer = StepTimer()
    result = session.explain(
        workload.sql, workload.question, timer=timer, overrides=overrides
    )
    return result, timer.breakdown()


# ----------------------------------------------------------------------
# Figure 7: feature selection on/off × λF1-samp
# ----------------------------------------------------------------------
def feature_selection_experiment(
    db: Database,
    schema_graph: SchemaGraph,
    workload: WorkloadQuery,
    f1_rates: list[float],
    base_config: CajadeConfig,
) -> dict[str, dict[str, float]]:
    """Per-step runtime columns: one per λF1-samp plus 'w/o feature sel.'."""
    table: dict[str, dict[str, float]] = {}
    for rate in f1_rates:
        config = base_config.with_overrides(
            f1_sample_rate=rate, use_feature_selection=True
        )
        _, breakdown = explain_with_breakdown(
            db, schema_graph, workload, config
        )
        table[f"fs λF1={rate:g}"] = breakdown
    naive = base_config.with_overrides(use_feature_selection=False)
    _, breakdown = explain_with_breakdown(db, schema_graph, workload, naive)
    table["w/o feature sel."] = breakdown
    return table


# ----------------------------------------------------------------------
# Figure 8: λ#edges × λF1-samp runtime grid
# ----------------------------------------------------------------------
def join_graph_size_experiment(
    db: Database,
    schema_graph: SchemaGraph,
    workload: WorkloadQuery,
    edge_counts: list[int],
    f1_rates: list[float],
    base_config: CajadeConfig,
) -> dict[tuple[int, float], float]:
    """Total runtime for every (λ#edges, λF1-samp) combination."""
    grid: dict[tuple[int, float], float] = {}
    for edges in edge_counts:
        for rate in f1_rates:
            config = base_config.with_overrides(
                max_join_edges=edges, f1_sample_rate=rate
            )
            start = time.perf_counter()
            explain_with_breakdown(db, schema_graph, workload, config)
            grid[(edges, rate)] = time.perf_counter() - start
    return grid


# ----------------------------------------------------------------------
# Figure 9: scalability in database size
# ----------------------------------------------------------------------
def scalability_experiment(
    loader: Callable[[float], tuple[Database, SchemaGraph]],
    workload: WorkloadQuery,
    scales: list[float],
    f1_rate: float,
    base_config: CajadeConfig,
) -> dict[float, dict[str, float]]:
    """Scale factor → per-step breakdown (the paper's Figures 9c/9d)."""
    series: dict[float, dict[str, float]] = {}
    for scale in scales:
        db, schema_graph = loader(scale)
        config = base_config.with_overrides(f1_sample_rate=f1_rate)
        _, breakdown = explain_with_breakdown(
            db, schema_graph, workload, config
        )
        breakdown["total"] = sum(breakdown.values())
        series[scale] = breakdown
    return series


# ----------------------------------------------------------------------
# Figure 10 b-e: LCA sampling vs ground truth on fixed join graphs
# ----------------------------------------------------------------------
@dataclass
class LcaSamplingPoint:
    """One sample-rate measurement for a fixed join graph's APT."""

    sample_rate: float
    runtime_seconds: float
    matches_in_top10: int


def lca_sampling_experiment(
    db: Database,
    workload: WorkloadQuery,
    join_graph: JoinGraph,
    sample_rates: list[float],
    config: CajadeConfig,
) -> tuple[list[LcaSamplingPoint], int, int]:
    """Top-10 pattern agreement between sampled and full LCA generation.

    Returns (points, apt_rows, apt_attributes) — the latter two reproduce
    the paper's Figure 10a table.
    """
    from ..core.attribute_filter import SelectionMemo
    from ..core.mining import mine_apt

    resolved, apt = _question_apt(db, workload, join_graph)
    # One question, one §3.1 memo, as in a session: the untimed truth
    # run fits the forest and every timed rate reads it back alike.
    memo = SelectionMemo()

    def top10(rate: float, cap: int) -> tuple[list, float]:
        run_config = config.with_overrides(
            lca_sample_rate=rate,
            lca_sample_cap=cap,
            top_k=10,
            use_diversity=False,
        )
        rng = np.random.default_rng(config.seed)
        start = time.perf_counter()
        mining = mine_apt(apt, resolved, run_config, rng, memo=memo)
        elapsed = time.perf_counter() - start
        # Keys are (pattern, primary): the same pattern can legitimately
        # rank for both question tuples and must count as two entries.
        return [(m.pattern, m.primary) for m in mining.patterns], elapsed

    truth, _ = top10(1.0, 10**9)
    points = []
    for rate in sample_rates:
        sampled, elapsed = top10(rate, config.lca_sample_cap)
        points.append(
            LcaSamplingPoint(
                sample_rate=rate,
                runtime_seconds=elapsed,
                matches_in_top10=top_k_match(truth, sampled, 10),
            )
        )
    return points, apt.num_rows, len(apt.attributes)


# ----------------------------------------------------------------------
# Figure 10 f/g: F-score sampling quality (NDCG + recall)
# ----------------------------------------------------------------------
def f1_sampling_quality_experiment(
    db: Database,
    schema_graph: SchemaGraph,
    workload: WorkloadQuery,
    f1_rates: list[float],
    base_config: CajadeConfig,
) -> dict[float, dict[str, float]]:
    """NDCG and recall of sampled top-k against the unsampled run."""
    exact = base_config.with_overrides(f1_sample_rate=1.0)
    truth_result, _ = explain_with_breakdown(
        db, schema_graph, workload, exact
    )
    truth_keys = [
        (e.pattern, e.primary) for e in truth_result.explanations
    ]
    relevance = {
        key: float(len(truth_keys) - i)
        for i, key in enumerate(truth_keys)
    }
    out: dict[float, dict[str, float]] = {}
    for rate in f1_rates:
        config = base_config.with_overrides(f1_sample_rate=rate)
        result, _ = explain_with_breakdown(db, schema_graph, workload, config)
        keys = [(e.pattern, e.primary) for e in result.explanations]
        out[rate] = {
            "ndcg": ndcg(keys, relevance),
            "recall": recall_at_k(truth_keys, keys, len(truth_keys) or 1),
        }
    return out


# ----------------------------------------------------------------------
# Figure 11: comparison with Explanation Tables
# ----------------------------------------------------------------------
def et_comparison_experiment(
    db: Database,
    workload: WorkloadQuery,
    join_graph: JoinGraph,
    sample_sizes: list[int],
    config: CajadeConfig,
) -> dict[int, dict[str, float]]:
    """Runtime of CaJaDE vs ET on one APT at several sample sizes.

    Each size mines with its own §3.1 memo: a shared one would charge
    the forest fit to the first size and flatten the measured growth.
    """
    from ..core.mining import mine_apt

    resolved, apt = _question_apt(db, workload, join_graph)

    evaluator = QualityEvaluator(
        apt, resolved.row_ids1, resolved.row_ids2, sample_rate=1.0
    )
    columns = apt.minable_columns(evaluator.rows)
    outcome = (evaluator.side_labels() == 1).astype(np.float64)
    categorical = discretize_numeric_columns(columns)

    table: dict[int, dict[str, float]] = {}
    for size in sample_sizes:
        run_config = config.with_overrides(
            lca_sample_cap=size, lca_sample_rate=1.0, top_k=10
        )
        rng = np.random.default_rng(config.seed)
        start = time.perf_counter()
        mine_apt(apt, resolved, run_config, rng)
        cajade_time = time.perf_counter() - start

        et = ExplanationTables(
            max_patterns=20, sample_size=size, seed=config.seed
        )
        start = time.perf_counter()
        et.fit(categorical, outcome)
        et_time = time.perf_counter() - start
        table[size] = {"cajade": cajade_time, "et": et_time}
    return table


# ----------------------------------------------------------------------
# Figure 12: varying queries
# ----------------------------------------------------------------------
def varying_queries_experiment(
    nba: tuple[Database, SchemaGraph],
    mimic: tuple[Database, SchemaGraph],
    config: CajadeConfig,
    queries: list[WorkloadQuery] | None = None,
) -> dict[str, dict[str, float]]:
    """Runtime and join-graph count for every workload query."""
    queries = queries or datasets.all_queries()
    out: dict[str, dict[str, float]] = {}
    for workload in queries:
        db, schema_graph = nba if workload.dataset == "nba" else mimic
        start = time.perf_counter()
        result, _ = explain_with_breakdown(db, schema_graph, workload, config)
        out[workload.name] = {
            "runtime": time.perf_counter() - start,
            "join_graphs": float(result.enumeration.valid),
            "mined": float(result.join_graphs_mined),
        }
    return out
