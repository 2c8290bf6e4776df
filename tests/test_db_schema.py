"""Unit tests for repro.db.schema."""

import pytest

from repro.db import Column, ColumnType, ForeignKey, SchemaError, TableSchema


class TestColumn:
    def test_valid_names(self):
        Column("points", ColumnType.INT)
        Column("g.home_id", ColumnType.INT)  # alias-qualified

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            Column("bad name", ColumnType.INT)
        with pytest.raises(SchemaError):
            Column("", ColumnType.INT)


class TestForeignKey:
    def test_count_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            ForeignKey("a", ("x", "y"), "b", ("z",))

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            ForeignKey("a", (), "b", ())


class TestTableSchema:
    def build(self) -> TableSchema:
        return TableSchema.build(
            "game",
            {"year": ColumnType.INT, "home": ColumnType.TEXT},
            primary_key=("year", "home"),
        )

    def test_column_names_ordered(self):
        assert self.build().column_names == ["year", "home"]

    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                name="t",
                columns=[Column("a", ColumnType.INT), Column("a", ColumnType.INT)],
            )

    def test_pk_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema.build("t", {"a": ColumnType.INT}, primary_key=("b",))

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(name="", columns=[])

    def test_column_lookup(self):
        schema = self.build()
        assert schema.column("home").ctype == ColumnType.TEXT
        assert schema.column_type("year") == ColumnType.INT
        assert schema.has_column("year")
        assert not schema.has_column("nope")

    def test_missing_column_raises(self):
        with pytest.raises(SchemaError):
            self.build().column("nope")

    def test_rename_keeps_columns(self):
        renamed = self.build().rename("match")
        assert renamed.name == "match"
        assert renamed.column_names == ["year", "home"]
        assert renamed.primary_key == ("year", "home")

    def test_project_subsets_pk(self):
        projected = self.build().project(["home"])
        assert projected.column_names == ["home"]
        assert projected.primary_key == ("home",)

    def test_project_preserves_order(self):
        projected = self.build().project(["home", "year"])
        assert projected.column_names == ["home", "year"]
