"""Tests for natural-language explanation rendering."""

import pytest

from repro import CajadeConfig, CajadeSession, ComparisonQuestion
from repro.core import pattern_phrase, predicate_phrase
from repro.core.pattern import OP_EQ, OP_GE, OP_LE, PatternPredicate
from tests.conftest import GSW_WINS_SQL


class TestPredicatePhrase:
    def test_equality(self):
        pred = PatternPredicate("player.player_name", OP_EQ, "Curry")
        assert predicate_phrase(pred) == "player name is Curry"

    def test_at_least(self):
        pred = PatternPredicate("pg.pts", OP_GE, 23)
        assert predicate_phrase(pred) == "pts is at least 23"

    def test_at_most_with_float(self):
        pred = PatternPredicate("pg.minutes", OP_LE, 31.5)
        assert predicate_phrase(pred) == "minutes is at most 31.5"


class TestSentences:
    @pytest.fixture(scope="class")
    def result(self, mini_db, mini_schema_graph):
        config = CajadeConfig(
            max_join_edges=2,
            top_k=5,
            f1_sample_rate=1.0,
            lca_sample_rate=1.0,
            num_selected_attrs=4,
        )
        explainer = CajadeSession(mini_db, mini_schema_graph, config)
        return explainer.explain(
            GSW_WINS_SQL,
            ComparisonQuestion({"season": "2015-16"}, {"season": "2012-13"}),
        )

    def test_sentence_structure(self, result):
        sentence = result.explanations[0].to_sentence()
        assert sentence.endswith(".")
        assert "because" in sentence
        assert "out of" in sentence

    def test_sentence_mentions_primary_label(self, result):
        for explanation in result.explanations:
            assert explanation.primary_label in explanation.to_sentence()

    def test_context_tables_named(self, result):
        contextual = [
            e for e in result.explanations if e.join_graph.num_edges > 0
        ]
        assert contextual
        sentence = contextual[0].to_sentence()
        assert "context from" in sentence

    def test_pt_only_has_no_context_clause(self, result):
        plain = [
            e for e in result.explanations if e.join_graph.num_edges == 0
        ]
        if plain:
            assert "context from" not in plain[0].to_sentence()

    def test_multi_predicate_joined_with_and(self, result):
        multi = [e for e in result.explanations if e.pattern.size >= 2]
        if multi:
            assert " and " in pattern_phrase(multi[0])
