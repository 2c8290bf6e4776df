"""Unit tests for APT materialization (Definition 4), through the engine
with no trie."""

import numpy as np
import pytest

from repro.core import JoinConditionSpec, JoinGraph
from repro.db import ProvenanceTable, PT_ROW_ID, parse_sql
from tests.conftest import GSW_WINS_SQL, engine_apt

GAME_COND = JoinConditionSpec((("year", "year"), ("gameno", "gameno")))
PLAYER_COND = JoinConditionSpec((("player_id", "player_id"),))


@pytest.fixture()
def pt(mini_db) -> ProvenanceTable:
    return ProvenanceTable.compute(parse_sql(GSW_WINS_SQL), mini_db)


def star_join_graph() -> JoinGraph:
    graph = JoinGraph.initial({"g": "game"})
    graph = graph.with_new_node(0, "player_game", GAME_COND, "g")
    return graph.with_new_node(1, "player", PLAYER_COND, None)


class TestMaterialization:
    def test_zero_edge_apt_is_pt(self, pt, mini_db):
        apt = engine_apt(JoinGraph.initial({"g": "game"}), pt, mini_db)
        assert apt.num_rows == pt.relation.num_rows

    def test_join_fanout(self, pt, mini_db):
        apt = engine_apt(star_join_graph(), pt, mini_db)
        # 9 GSW wins × 3 players each = 27 rows.
        assert apt.num_rows == 27

    def test_lineage_column_preserved(self, pt, mini_db):
        apt = engine_apt(star_join_graph(), pt, mini_db)
        pt_ids = set(apt.pt_row_ids.tolist())
        assert pt_ids == set(pt.relation.column(PT_ROW_ID).tolist())

    def test_restrict_row_ids(self, pt, mini_db):
        key = pt.group_key_for({"season": "2015-16"})
        ids = pt.row_ids_of(key)
        apt = engine_apt(
            star_join_graph(), pt, mini_db, restrict_row_ids=ids
        )
        assert apt.num_rows == len(ids) * 3
        assert set(apt.pt_row_ids.tolist()) == set(ids.tolist())

    def test_context_columns_prefixed(self, pt, mini_db):
        apt = engine_apt(star_join_graph(), pt, mini_db)
        names = apt.relation.column_names
        assert "player_game.pts" in names
        assert "player.player_name" in names

    def test_cycle_edge_becomes_filter(self, pt, mini_db):
        # PT—player_game plus a second (parallel) PT—player_game edge on
        # year only: conjunction applied, same result as single edge here.
        graph = JoinGraph.initial({"g": "game"})
        graph = graph.with_new_node(0, "player_game", GAME_COND, "g")
        year_only = JoinConditionSpec((("year", "year"),))
        extended = graph.with_new_edge(0, 1, year_only, "g")
        assert extended is not None
        apt = engine_apt(extended, pt, mini_db)
        base = engine_apt(graph, pt, mini_db)
        assert apt.num_rows == base.num_rows


class TestAttributeMetadata:
    def test_group_by_columns_excluded(self, pt, mini_db):
        apt = engine_apt(star_join_graph(), pt, mini_db)
        minable = {a.name for a in apt.attributes}
        assert "g.winner" not in minable
        assert "g.season" not in minable
        assert "g.winner" in apt.excluded_attributes

    def test_key_columns_excluded(self, pt, mini_db):
        apt = engine_apt(star_join_graph(), pt, mini_db)
        minable = {a.name for a in apt.attributes}
        assert "player.player_id" not in minable
        assert "player_game.player_id" not in minable

    def test_value_columns_minable(self, pt, mini_db):
        apt = engine_apt(star_join_graph(), pt, mini_db)
        minable = {a.name for a in apt.attributes}
        assert "player_game.pts" in minable
        assert "player.player_name" in minable
        assert "g.home" in minable

    def test_numeric_vs_categorical_split(self, pt, mini_db):
        apt = engine_apt(star_join_graph(), pt, mini_db)
        assert "player_game.pts" in apt.numeric_attribute_names()
        assert "player.player_name" in apt.categorical_attribute_names()

    def test_attribute_lookup(self, pt, mini_db):
        apt = engine_apt(star_join_graph(), pt, mini_db)
        attr = apt.attribute("player_game.pts")
        assert attr.is_numeric
        assert not attr.from_provenance
        with pytest.raises(KeyError):
            apt.attribute("zzz")

    def test_minable_columns_aligned(self, pt, mini_db):
        apt = engine_apt(star_join_graph(), pt, mini_db)
        cols = apt.minable_columns()
        lengths = {len(v) for v in cols.values()}
        assert lengths == {apt.num_rows}
