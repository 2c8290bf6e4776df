"""Unit tests for Definition 7 quality metrics."""

import numpy as np
import pytest

from repro.core import (
    ComparisonQuestion,
    JoinConditionSpec,
    JoinGraph,
    Pattern,
    QualityEvaluator,
    QualityStats,
)
from repro.core.pattern import OP_EQ, OP_GE
from repro.db import ProvenanceTable, parse_sql
from tests.conftest import GSW_WINS_SQL, engine_apt
from tests.test_core_apt import star_join_graph


@pytest.fixture()
def setup(mini_db):
    pt = ProvenanceTable.compute(parse_sql(GSW_WINS_SQL), mini_db)
    question = ComparisonQuestion(
        {"season": "2015-16"}, {"season": "2012-13"}
    )
    resolved = question.resolve(pt)
    apt = engine_apt(star_join_graph(), pt, mini_db)
    return apt, resolved


class TestQualityStats:
    def test_precision_recall_fscore(self):
        stats = QualityStats(tp=6, fp=2, fn=2)
        assert stats.precision == pytest.approx(0.75)
        assert stats.recall == pytest.approx(0.75)
        assert stats.f_score == pytest.approx(0.75)

    def test_zero_denominators(self):
        stats = QualityStats(tp=0, fp=0, fn=0)
        assert stats.precision == 0.0
        assert stats.recall == 0.0
        assert stats.f_score == 0.0

    def test_fscore_zero_iff_tp_zero(self):
        assert QualityStats(tp=0, fp=3, fn=2).f_score == 0.0
        assert QualityStats(tp=1, fp=100, fn=100).f_score > 0.0

    def test_bounds(self):
        stats = QualityStats(tp=3, fp=1, fn=4)
        for value in (stats.precision, stats.recall, stats.f_score):
            assert 0.0 <= value <= 1.0


class TestEvaluator:
    def test_star_player_pattern(self, setup):
        apt, resolved = setup
        evaluator = QualityEvaluator(
            apt, resolved.row_ids1, resolved.row_ids2
        )
        # Curry scores >= 30 in every 2015-16 win, <= 22 in 2012-13.
        pattern = Pattern.from_dict(
            {"player.player_name": (OP_EQ, "Curry"), "player_game.pts": (OP_GE, 30)}
        )
        stats = evaluator.evaluate(pattern, primary=1)
        assert stats.tp == 6
        assert stats.fp == 0
        assert stats.fn == 0
        assert stats.f_score == pytest.approx(1.0)

    def test_coverage_is_per_pt_row(self, setup):
        apt, resolved = setup
        evaluator = QualityEvaluator(
            apt, resolved.row_ids1, resolved.row_ids2
        )
        # Empty pattern matches every APT row, but coverage counts each
        # provenance row once despite the 3× player fanout.
        cov1, cov2 = evaluator.coverage_counts(Pattern())
        assert (cov1, cov2) == (6, 3)

    def test_primary_swap(self, setup):
        apt, resolved = setup
        evaluator = QualityEvaluator(
            apt, resolved.row_ids1, resolved.row_ids2
        )
        pattern = Pattern.from_dict({"player_game.pts": (OP_GE, 30)})
        s1 = evaluator.evaluate(pattern, primary=1)
        s2 = evaluator.evaluate(pattern, primary=2)
        assert s1.tp == s2.fp
        assert s1.fp == s2.tp

    def test_invalid_primary(self, setup):
        apt, resolved = setup
        evaluator = QualityEvaluator(
            apt, resolved.row_ids1, resolved.row_ids2
        )
        with pytest.raises(ValueError):
            evaluator.evaluate(Pattern(), primary=3)

    def test_dropped_pt_rows_count_as_fn(self, mini_db):
        # A join graph that keeps only Curry rows: pts for other players
        # vanish but the provenance rows still count in denominators.
        pt = ProvenanceTable.compute(parse_sql(GSW_WINS_SQL), mini_db)
        question = ComparisonQuestion(
            {"season": "2015-16"}, {"season": "2012-13"}
        )
        resolved = question.resolve(pt)
        apt = engine_apt(star_join_graph(), pt, mini_db)
        # Restrict via a pattern that matches nothing:
        evaluator = QualityEvaluator(apt, resolved.row_ids1, resolved.row_ids2)
        impossible = Pattern.from_dict({"player_game.pts": (OP_GE, 10_000)})
        stats = evaluator.evaluate(impossible, primary=1)
        assert stats.tp == 0
        assert stats.fn == 6

    def test_sampling_reduces_universe(self, setup, rng):
        apt, resolved = setup
        evaluator = QualityEvaluator(
            apt,
            resolved.row_ids1,
            resolved.row_ids2,
            sample_rate=0.5,
            rng=rng,
        )
        n1, n2 = evaluator.universe_sizes
        assert n1 == 3  # half of 6
        assert n2 == 2  # round(3*0.5) = 2

    def test_bad_sample_rate(self, setup):
        apt, resolved = setup
        with pytest.raises(ValueError):
            QualityEvaluator(
                apt, resolved.row_ids1, resolved.row_ids2, sample_rate=0.0
            )

    def test_side_labels_partition(self, setup):
        apt, resolved = setup
        evaluator = QualityEvaluator(
            apt, resolved.row_ids1, resolved.row_ids2
        )
        labels = evaluator.side_labels()
        assert set(labels.tolist()) <= {1, 2}
        assert len(labels) == evaluator.sampled_rows
