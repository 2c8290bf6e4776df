"""Unit tests for the provenance-only explainer arm."""

import pytest

from repro import CajadeConfig, ComparisonQuestion
from repro.baselines import ProvenanceOnlyExplainer
from tests.conftest import GSW_WINS_SQL

QUESTION = ComparisonQuestion({"season": "2015-16"}, {"season": "2012-13"})


@pytest.fixture()
def explainer(mini_db) -> ProvenanceOnlyExplainer:
    config = CajadeConfig(
        top_k=5,
        f1_sample_rate=1.0,
        lca_sample_rate=1.0,
        num_selected_attrs=4,
    )
    return ProvenanceOnlyExplainer(mini_db, config)


class TestProvenanceOnly:
    def test_only_pt_join_graph(self, explainer):
        result = explainer.explain(GSW_WINS_SQL, QUESTION)
        assert result.explanations
        for e in result.explanations:
            assert e.join_graph.num_edges == 0
            assert e.join_graph.structure() == "PT"

    def test_patterns_use_only_pt_columns(self, explainer):
        result = explainer.explain(GSW_WINS_SQL, QUESTION)
        for e in result.explanations:
            for attr in e.pattern.attributes:
                assert attr.startswith("g.")

    def test_k_override(self, explainer):
        result = explainer.explain(GSW_WINS_SQL, QUESTION, k=2)
        assert len(result.explanations) <= 2

    def test_config_edges_forced_to_zero(self, mini_db):
        config = CajadeConfig(max_join_edges=3, f1_sample_rate=1.0)
        explainer = ProvenanceOnlyExplainer(mini_db, config)
        result = explainer.explain(GSW_WINS_SQL, QUESTION)
        assert all(e.join_graph.num_edges == 0 for e in result.explanations)

    def test_weaker_than_contextual_on_star_signal(
        self, mini_db, mini_schema_graph
    ):
        """The paper's motivating claim: context beats provenance alone
        when the distinguishing signal lives in another table."""
        from repro import CajadeSession

        config = CajadeConfig(
            max_join_edges=2,
            top_k=5,
            f1_sample_rate=1.0,
            lca_sample_rate=1.0,
            num_selected_attrs=4,
        )
        prov = ProvenanceOnlyExplainer(mini_db, config).explain(
            GSW_WINS_SQL, QUESTION
        )
        cajade = CajadeSession(mini_db, mini_schema_graph, config).explain(
            GSW_WINS_SQL, QUESTION
        )
        best_prov = max(e.f_score for e in prov.explanations)
        best_cajade = max(e.f_score for e in cajade.explanations)
        assert best_cajade >= best_prov
        # The perfect star-player pattern exists only with context.
        assert best_cajade == pytest.approx(1.0)
