"""Unit tests for MineAPT (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import (
    CajadeConfig,
    ComparisonQuestion,
    mine_apt,
)
from repro.core.timing import F_SCORE_CALC, StepTimer
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


def run(apt, resolved, **overrides):
    defaults = dict(
        top_k=5,
        f1_sample_rate=1.0,
        lca_sample_rate=1.0,
        num_selected_attrs=4,
        seed=3,
    )
    defaults.update(overrides)
    config = CajadeConfig(**defaults)
    return mine_apt(apt, resolved, config, np.random.default_rng(3))


class TestMineApt:
    def test_finds_star_player_signal(self, setup):
        apt, resolved = setup
        result = run(apt, resolved)
        assert result.patterns
        best = result.patterns[0]
        assert best.f_score > 0.9
        used = set()
        for mp in result.patterns:
            used |= mp.pattern.attributes
        assert "player_game.pts" in used or "player.player_name" in used

    def test_respects_top_k(self, setup):
        apt, resolved = setup
        result = run(apt, resolved, top_k=2)
        assert len(result.patterns) <= 2

    def test_sorted_by_construction(self, setup):
        apt, resolved = setup
        result = run(apt, resolved, use_diversity=False)
        scores = [mp.f_score for mp in result.patterns]
        assert scores == sorted(scores, reverse=True)

    def test_recall_threshold_filters(self, setup):
        apt, resolved = setup
        result = run(apt, resolved, recall_threshold=0.5)
        for mp in result.patterns:
            assert mp.stats.recall > 0.5

    def test_pruning_off_examines_more(self, setup):
        apt, resolved = setup
        pruned = run(apt, resolved, recall_threshold=0.4)
        unpruned = run(apt, resolved, use_recall_pruning=False)
        assert unpruned.candidates_examined >= pruned.candidates_examined

    def test_numeric_cap_respected(self, setup):
        apt, resolved = setup
        result = run(apt, resolved, max_numeric_predicates=1)
        numeric = apt.numeric_attribute_names()
        for mp in result.patterns:
            assert mp.pattern.num_numeric_predicates(numeric) <= 1

    def test_deterministic(self, setup):
        apt, resolved = setup
        r1 = run(apt, resolved)
        r2 = run(apt, resolved)
        assert [
            (mp.pattern, mp.primary) for mp in r1.patterns
        ] == [(mp.pattern, mp.primary) for mp in r2.patterns]

    def test_timer_steps_recorded(self, setup):
        apt, resolved = setup
        timer = StepTimer()
        config = CajadeConfig(
            top_k=3, f1_sample_rate=1.0, lca_sample_rate=1.0,
            num_selected_attrs=4,
        )
        mine_apt(apt, resolved, config, np.random.default_rng(0), timer=timer)
        assert timer.seconds(F_SCORE_CALC) > 0
        assert timer.total > 0

    def test_patterns_avoid_group_by_attributes(self, setup):
        apt, resolved = setup
        result = run(apt, resolved)
        for mp in result.patterns:
            for attr in mp.pattern.attributes:
                assert not attr.endswith(".season")
                assert not attr.endswith(".winner")

    def test_primary_labels_valid(self, setup):
        apt, resolved = setup
        result = run(apt, resolved)
        assert all(mp.primary in (1, 2) for mp in result.patterns)

    def test_sampled_mining_still_finds_signal(self, setup):
        apt, resolved = setup
        result = run(apt, resolved, f1_sample_rate=0.9)
        assert result.patterns
        assert result.patterns[0].f_score > 0.5
