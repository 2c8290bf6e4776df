"""Tests for the synthetic user study (Tables 8/9 machinery)."""

import numpy as np
import pytest

from repro.experiments import (
    RaterModel,
    StudyExplanation,
    UserStudyReport,
    run_user_study,
)


def make_explanations() -> list[StudyExplanation]:
    out = []
    for i, (p, r) in enumerate(
        [(0.74, 0.38), (0.61, 1.0), (1.0, 0.23), (0.73, 0.87), (0.4, 0.4)],
        start=1,
    ):
        f = 2 * p * r / (p + r)
        out.append(
            StudyExplanation(f"Expl{i}", "provenance", f, p, r)
        )
    for j, (p, r) in enumerate(
        [(0.83, 0.81), (0.83, 1.0), (0.99, 0.99), (0.81, 0.53), (0.7, 0.07)],
        start=6,
    ):
        f = 2 * p * r / (p + r)
        out.append(
            StudyExplanation(
                f"Expl{j}", "cajade", f, p, r, controversial=(j == 8)
            )
        )
    return out


class TestRaterModel:
    def test_ratings_in_range(self):
        rater = RaterModel(expert=False, rng=np.random.default_rng(0))
        for e in make_explanations():
            assert 1.0 <= rater.rate(e) <= 5.0

    def test_better_explanations_rated_higher_on_average(self):
        good = StudyExplanation("g", "cajade", 0.95, 0.95, 0.95)
        bad = StudyExplanation("b", "cajade", 0.1, 0.1, 0.1)
        rng = np.random.default_rng(0)
        raters = [RaterModel(expert=False, rng=rng) for _ in range(30)]
        good_avg = np.mean([r.rate(good) for r in raters])
        bad_avg = np.mean([r.rate(bad) for r in raters])
        assert good_avg > bad_avg + 1.0


class TestRunUserStudy:
    @pytest.fixture()
    def report(self) -> UserStudyReport:
        return run_user_study(make_explanations(), seed=42)

    def test_shape(self, report):
        assert report.ratings.shape == (20, 10)
        assert report.expert_mask.sum() == 5

    def test_mean_ratings_keys(self, report):
        means = report.mean_ratings()
        assert set(means) == {f"Expl{i}" for i in range(1, 11)}
        assert all(1.0 <= v <= 5.0 for v in means.values())

    def test_majority_prefers_cajade(self, report):
        # Paper: 16/20 participants preferred CaJaDE.
        assert report.preference_fraction() >= 0.6

    def test_controversial_has_largest_std(self, report):
        stds = report.rating_std()
        assert max(stds, key=stds.get) == "Expl8"

    def test_ranking_quality_keys(self, report):
        out = report.ranking_quality("cajade", "f_score")
        assert set(out) == {"kendall_tau", "ndcg"}
        assert 0.0 <= out["ndcg"] <= 1.0
        assert out["kendall_tau"] >= 0.0

    def test_drop_controversial_reduces_error(self, report):
        full = report.ranking_quality("cajade", "f_score")
        dropped = report.ranking_quality(
            "cajade", "f_score", drop_most_controversial=True
        )
        assert dropped["kendall_tau"] <= full["kendall_tau"]

    def test_ndcg_high_for_fscore_ranking(self, report):
        # Paper Table 9: NDCG ≈ 0.9 for CaJaDE ranked by F-score.
        out = report.ranking_quality("cajade", "f_score")
        assert out["ndcg"] > 0.8

    def test_expert_filter(self, report):
        experts = report.mean_ratings(experts_only=True)
        non = report.mean_ratings(experts_only=False)
        # Experts rate CaJaDE explanations at least as high on average.
        cajade_keys = [f"Expl{i}" for i in range(6, 10)]
        assert np.mean([experts[k] for k in cajade_keys]) >= np.mean(
            [non[k] for k in cajade_keys]
        ) - 0.1

    def test_deterministic(self):
        a = run_user_study(make_explanations(), seed=7)
        b = run_user_study(make_explanations(), seed=7)
        assert np.allclose(a.ratings, b.ratings)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_user_study(make_explanations(), n_raters=3, n_experts=5)


class TestBuildStudyExplanations:
    def test_from_real_explanations(self, mini_db, mini_schema_graph):
        from repro import CajadeConfig, CajadeSession, ComparisonQuestion
        from repro.baselines import ProvenanceOnlyExplainer
        from repro.experiments import build_study_explanations
        from tests.conftest import GSW_WINS_SQL

        question = ComparisonQuestion(
            {"season": "2015-16"}, {"season": "2012-13"}
        )
        config = CajadeConfig(
            max_join_edges=2, top_k=5, f1_sample_rate=1.0,
            lca_sample_rate=1.0, num_selected_attrs=4,
        )
        prov = ProvenanceOnlyExplainer(mini_db, config).explain(
            GSW_WINS_SQL, question
        )
        caj = CajadeSession(mini_db, mini_schema_graph, config).explain(
            GSW_WINS_SQL, question
        )
        study = build_study_explanations(
            prov.explanations, caj.explanations
        )
        assert len(study) == len(prov.explanations[:5]) + len(
            caj.explanations[:5]
        )
        assert any(e.controversial for e in study if e.arm == "cajade")
        report = run_user_study(study, seed=1)
        assert report.ratings.shape[1] == len(study)
