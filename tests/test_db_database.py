"""Unit tests for the database catalog."""

import pytest

from repro.db import (
    CatalogError,
    ColumnType,
    Database,
    Relation,
    SchemaError,
    TableSchema,
)


@pytest.fixture()
def db() -> Database:
    d = Database("cat")
    d.create_table(
        TableSchema.build(
            "team", {"team_id": ColumnType.INT, "team": ColumnType.TEXT},
            primary_key=("team_id",),
        ),
        [(0, "GSW"), (1, "LAL")],
    )
    d.create_table(
        TableSchema.build(
            "game",
            {"gid": ColumnType.INT, "winner_id": ColumnType.INT},
            primary_key=("gid",),
        ),
        [(0, 0), (1, 1), (2, 0)],
    )
    return d


class TestCatalog:
    def test_table_lookup(self, db):
        assert db.table("team").num_rows == 2
        assert db.has_table("game")
        assert "team" in db
        assert db.table_names == ["game", "team"]

    def test_missing_table(self, db):
        with pytest.raises(CatalogError):
            db.table("nope")

    def test_duplicate_create_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_table(
                TableSchema.build("team", {"x": ColumnType.INT}), []
            )

    def test_add_relation_replace(self, db):
        replacement = Relation.from_rows(
            TableSchema.build("team", {"team_id": ColumnType.INT}),
            [(5,)],
        )
        with pytest.raises(SchemaError):
            db.add_relation(replacement)
        db.add_relation(replacement, replace=True)
        assert db.table("team").num_rows == 1

    def test_total_rows(self, db):
        assert db.total_rows() == 5

    def test_repr_mentions_tables(self, db):
        assert "team(2)" in repr(db)


class TestForeignKeys:
    def test_add_and_query(self, db):
        fk = db.add_foreign_key("game", ("winner_id",), "team", ("team_id",))
        assert fk.ref_table == "team"
        assert db.foreign_keys_of("game") == [fk]
        assert db.foreign_keys_of("team") == []

    def test_missing_column_rejected(self, db):
        with pytest.raises(SchemaError):
            db.add_foreign_key("game", ("nope",), "team", ("team_id",))
        with pytest.raises(SchemaError):
            db.add_foreign_key("game", ("winner_id",), "team", ("nope",))


class TestStatisticsCache:
    def test_cached(self, db):
        stats1 = db.statistics("team")
        stats2 = db.statistics("team")
        assert stats1 is stats2

    def test_replace_invalidates(self, db):
        stats1 = db.statistics("team")
        db.add_relation(db.table("team"), replace=True)
        assert db.statistics("team") is not stats1


class TestSqlShortcut:
    def test_sql(self, db):
        result = db.sql(
            "SELECT winner_id, COUNT(*) AS n FROM game GROUP BY winner_id"
        )
        assert {d["winner_id"]: d["n"] for d in result.to_dicts()} == {
            0: 2, 1: 1,
        }
