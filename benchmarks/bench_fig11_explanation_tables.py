"""FIG11 + TAB10 — comparison with Explanation Tables (Figure 11,
Appendix A.1 Table 10).

Mines one fixed APT (PT – player_game_stats – player, as in the paper)
with both CaJaDE and ET at sample sizes {16, 64, 256, 512}.  The paper's
shape: ET is faster at tiny samples but its quadratic candidate
generation blows up with the sample size while CaJaDE stays flat
(~50× faster at 512).  Also prints ET's first patterns (Table 10).
"""

import numpy as np
import pytest

from repro.core import CajadeConfig, JoinConditionSpec, JoinGraph
from repro.baselines import ExplanationTables, discretize_numeric_columns
from repro.core.quality import QualityEvaluator
from repro.datasets import user_study_query
from repro.db import ProvenanceTable, parse_sql
from repro.engine import MaterializationEngine
from repro.experiments import et_comparison_experiment

from conftest import format_table

SAMPLE_SIZES = [16, 64, 256, 512]
BASE = dict(top_k=10, num_selected_attrs=3, seed=2)


def pgs_join_graph() -> JoinGraph:
    aliases = {"g": "game", "t": "team", "s": "season"}
    game_cond = JoinConditionSpec(
        (("game_date", "game_date"), ("home_id", "home_id"))
    )
    player_cond = JoinConditionSpec((("player_id", "player_id"),))
    return (
        JoinGraph.initial(aliases)
        .with_new_node(0, "player_game_stats", game_cond, "g")
        .with_new_node(1, "player", player_cond, None)
    )


@pytest.mark.benchmark(group="fig11")
def test_fig11_cajade_vs_et_runtime(benchmark, nba, report):
    db, _ = nba
    table = benchmark.pedantic(
        lambda: et_comparison_experiment(
            db, user_study_query(), pgs_join_graph(), SAMPLE_SIZES,
            CajadeConfig(**BASE),
        ),
        rounds=1,
        iterations=1,
    )
    report(
        "fig11_et_comparison",
        format_table(
            ["sample size", "CaJaDE", "ET"],
            [
                [s, f"{table[s]['cajade']:.2f}s", f"{table[s]['et']:.2f}s"]
                for s in SAMPLE_SIZES
            ],
        ),
    )
    # Paper shape: ET's runtime grows much faster with the sample size;
    # at the largest size CaJaDE wins.
    et_growth = table[512]["et"] / max(table[16]["et"], 1e-6)
    cajade_growth = table[512]["cajade"] / max(table[16]["cajade"], 1e-6)
    assert et_growth > cajade_growth
    assert table[512]["et"] > table[512]["cajade"]


@pytest.mark.benchmark(group="fig11")
def test_tab10_et_patterns(benchmark, nba, report):
    """Appendix A.1: the first 20 patterns ET returns on that APT."""
    db, _ = nba
    query = parse_sql(user_study_query().sql)
    pt = ProvenanceTable.compute(query, db)
    resolved = user_study_query().question.resolve(pt)
    restrict = np.concatenate([resolved.row_ids1, resolved.row_ids2])
    engine = MaterializationEngine(pt, db, cache_mb=0)
    [(_, apt)] = engine.materialize_iter([pgs_join_graph()], restrict)
    evaluator = QualityEvaluator(
        apt, resolved.row_ids1, resolved.row_ids2, sample_rate=1.0
    )
    columns = discretize_numeric_columns(
        apt.minable_columns(evaluator.rows)
    )
    outcome = (evaluator.side_labels() == 1).astype(np.float64)

    patterns = benchmark.pedantic(
        lambda: ExplanationTables(
            max_patterns=20, sample_size=64, seed=2
        ).fit(columns, outcome),
        rounds=1,
        iterations=1,
    )
    lines = [f"{i + 1:2d}. {p.describe()}" for i, p in enumerate(patterns)]
    report("tab10_et_patterns", "\n".join(lines))
    assert patterns
