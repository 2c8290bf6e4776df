"""TAB7/8/9 — user study with synthetic raters (paper §6.3).

Builds the study set of Table 7 (top-5 provenance-only + top-5 CaJaDE
explanations for UQ1), rates them with 20 seeded synthetic raters (5
"NBA fans"), and prints Table 8 (avg ratings per explanation by rater
group) and Table 9 (Kendall-tau / NDCG of the system's quality metrics
against the raters, with and without the most controversial
explanation).

Shapes to reproduce: most raters prefer CaJaDE (paper: 16/20); the
ranking quality NDCG reaches ~0.9 for CaJaDE's F-score ranking; dropping
the controversial explanation roughly halves the pairwise error.
"""

import pytest

from repro.api import CajadeSession
from repro.baselines import ProvenanceOnlyExplainer
from repro.core import CajadeConfig
from repro.datasets import user_study_query
from repro.experiments import build_study_explanations, run_user_study

from conftest import format_table

BASE = dict(
    max_join_edges=2, top_k=5, f1_sample_rate=0.5,
    num_selected_attrs=4, seed=3,
)


@pytest.mark.benchmark(group="table8")
def test_table8_table9_user_study(benchmark, nba, report):
    db, sg = nba
    wq = user_study_query()

    def run():
        config = CajadeConfig(**BASE)
        prov = ProvenanceOnlyExplainer(db, config).explain(wq.sql, wq.question)
        cajade = CajadeSession(db, sg, config).explain(wq.sql, wq.question)
        study = build_study_explanations(
            prov.explanations, cajade.explanations
        )
        return study, run_user_study(study, n_raters=20, n_experts=5, seed=99)

    study, study_report = benchmark.pedantic(run, rounds=1, iterations=1)

    # ---- Table 8 -------------------------------------------------------
    means_all = study_report.mean_ratings()
    means_fan = study_report.mean_ratings(experts_only=True)
    means_non = study_report.mean_ratings(experts_only=False)
    stds = study_report.rating_std()
    rows = []
    for group, values in (
        ("All users", means_all),
        ("Stdev", stds),
        ("NBA: Yes", means_fan),
        ("NBA: No", means_non),
    ):
        rows.append([group] + [f"{values[e.label]:.2f}" for e in study])
    for metric in ("f_score", "recall", "precision"):
        rows.append(
            [metric] + [f"{getattr(e, metric):.2f}" for e in study]
        )
    table8 = format_table(["", *(e.label for e in study)], rows)

    # ---- Table 9 -------------------------------------------------------
    rows9 = []
    for arm in ("provenance", "cajade"):
        for metric in ("f_score", "recall", "precision"):
            full = study_report.ranking_quality(arm, metric)
            dropped = study_report.ranking_quality(
                arm, metric, drop_most_controversial=True
            )
            rows9.append(
                [
                    arm,
                    metric,
                    f"{full['kendall_tau']:.2f} / {dropped['kendall_tau']:.2f}",
                    f"{full['ndcg']:.3f} / {dropped['ndcg']:.3f}",
                ]
            )
    table9 = format_table(
        ["arm", "metric", "Kendall tau (all / -1)", "NDCG (all / -1)"], rows9
    )

    preference = study_report.preference_fraction()
    report(
        "table8_table9_user_study",
        f"{table8}\n\npreference for CaJaDE: "
        f"{preference * 100:.0f}% of raters\n\n{table9}",
    )

    # ---- paper-shape assertions -----------------------------------------
    assert preference >= 0.6  # paper: 16/20 = 80%
    cajade_f = study_report.ranking_quality("cajade", "f_score")
    assert cajade_f["ndcg"] >= 0.8  # paper: ~0.9
    dropped = study_report.ranking_quality(
        "cajade", "f_score", drop_most_controversial=True
    )
    assert dropped["kendall_tau"] <= cajade_f["kendall_tau"]
