"""End-to-end tests of ranked explanations through a fresh session."""

import pytest

from repro import (
    CajadeConfig,
    CajadeSession,
    ComparisonQuestion,
    OutlierQuestion,
)
from repro.core.timing import StepTimer
from tests.conftest import GSW_WINS_SQL


@pytest.fixture()
def explainer(mini_db, mini_schema_graph) -> CajadeSession:
    config = CajadeConfig(
        max_join_edges=2,
        top_k=5,
        f1_sample_rate=1.0,
        lca_sample_rate=1.0,
        num_selected_attrs=4,
        seed=1,
    )
    return CajadeSession(mini_db, mini_schema_graph, config)


QUESTION = ComparisonQuestion({"season": "2015-16"}, {"season": "2012-13"})


class TestExplain:
    def test_returns_ranked_explanations(self, explainer):
        result = explainer.explain(GSW_WINS_SQL, QUESTION)
        assert result.explanations
        assert len(result.explanations) <= 5
        top = result.explanations[0]
        assert 0.0 <= top.f_score <= 1.0

    def test_context_explanation_present(self, explainer):
        result = explainer.explain(GSW_WINS_SQL, QUESTION)
        contextual = [
            e for e in result.explanations if e.join_graph.num_edges > 0
        ]
        assert contextual
        # The star-player signal should dominate the mini db.
        used = set()
        for e in contextual:
            used |= e.pattern.attributes
        assert "player_game.pts" in used or "player.player_name" in used

    def test_supports_are_exact_counts(self, explainer):
        result = explainer.explain(GSW_WINS_SQL, QUESTION)
        for e in result.explanations:
            s = e.support
            assert 0 <= s.covered1 <= s.total1 == 6
            assert 0 <= s.covered2 <= s.total2 == 3

    def test_k_override(self, explainer):
        result = explainer.explain(GSW_WINS_SQL, QUESTION, top_k=2)
        assert len(result.explanations) <= 2

    def test_timer_populated(self, explainer):
        timer = StepTimer()
        explainer.explain(GSW_WINS_SQL, QUESTION, timer=timer)
        breakdown = timer.breakdown()
        assert "F-score Calc." in breakdown
        assert "Materialize APTs" in breakdown
        assert timer.total > 0

    def test_describe_renders(self, explainer):
        result = explainer.explain(GSW_WINS_SQL, QUESTION)
        text = result.describe(3)
        assert "question:" in text
        assert "F=" in text
        full = result.explanations[0].describe_full()
        assert "join graph" in full

    def test_outlier_question(self, explainer):
        result = explainer.explain(
            GSW_WINS_SQL, OutlierQuestion({"season": "2015-16"})
        )
        assert result.explanations
        for e in result.explanations:
            assert e.support.total2 == 3  # rest of provenance

    def test_query_object_accepted(self, explainer):
        from repro.db import parse_sql

        result = explainer.explain(parse_sql(GSW_WINS_SQL), QUESTION)
        assert result.explanations

    def test_same_question_tuples_rejected(self, explainer):
        with pytest.raises(ValueError):
            explainer.explain(
                GSW_WINS_SQL,
                ComparisonQuestion(
                    {"season": "2015-16"}, {"season": "2015-16"}
                ),
            )

    def test_deterministic_across_runs(self, explainer):
        r1 = explainer.explain(GSW_WINS_SQL, QUESTION)
        r2 = explainer.explain(GSW_WINS_SQL, QUESTION)
        assert [e.pattern for e in r1.explanations] == [
            e.pattern for e in r2.explanations
        ]

    def test_sampled_f1_supports_still_exact(
        self, mini_db, mini_schema_graph
    ):
        config = CajadeConfig(
            max_join_edges=1,
            top_k=3,
            f1_sample_rate=0.8,
            lca_sample_rate=1.0,
            num_selected_attrs=4,
        )
        explainer = CajadeSession(mini_db, mini_schema_graph, config)
        result = explainer.explain(GSW_WINS_SQL, QUESTION)
        for e in result.explanations:
            assert e.support.total1 == 6
            assert e.support.total2 == 3

    def test_diversity_avoids_duplicate_patterns(self, explainer):
        result = explainer.explain(GSW_WINS_SQL, QUESTION)
        keys = [(e.pattern, e.primary) for e in result.explanations]
        assert len(keys) == len(set(keys))


class TestDefaultSchemaGraph:
    def test_from_database_default(self, mini_db):
        explainer = CajadeSession(
            mini_db,
            config=CajadeConfig(
                max_join_edges=1, f1_sample_rate=1.0, num_selected_attrs=3
            ),
        )
        result = explainer.explain(GSW_WINS_SQL, QUESTION)
        assert result.explanations


class TestJsonExport:
    def test_to_json_roundtrips(self, explainer):
        import json

        result = explainer.explain(GSW_WINS_SQL, QUESTION)
        payload = json.loads(result.to_json(k=3))
        assert payload["explanations"]
        first = payload["explanations"][0]
        assert {"pattern", "f_score", "support", "join_graph", "sentence"} <= set(first)
        assert 0.0 <= first["f_score"] <= 1.0
        for predicate in first["pattern"]:
            assert predicate["op"] in ("=", "<=", ">=")

    def test_to_dict_values_serializable(self, explainer):
        import json

        result = explainer.explain(GSW_WINS_SQL, QUESTION)
        for explanation in result.explanations:
            json.dumps(explanation.to_dict(), default=str)
