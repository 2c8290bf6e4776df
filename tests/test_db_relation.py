"""Unit tests for repro.db.relation."""

import numpy as np
import pytest

from repro.db import ColumnType, IntegrityError, Relation, SchemaError, TableSchema


def make_relation() -> Relation:
    schema = TableSchema.build(
        "t",
        {"id": ColumnType.INT, "name": ColumnType.TEXT, "score": ColumnType.FLOAT},
        primary_key=("id",),
    )
    rows = [(1, "a", 1.5), (2, "b", 2.5), (3, "a", None), (4, None, 4.0)]
    return Relation.from_rows(schema, rows)


class TestConstruction:
    def test_from_rows_shape(self):
        rel = make_relation()
        assert rel.num_rows == 4
        assert len(rel) == 4
        assert rel.column_names == ["id", "name", "score"]

    def test_row_width_checked(self):
        schema = TableSchema.build("t", {"a": ColumnType.INT})
        with pytest.raises(SchemaError):
            Relation.from_rows(schema, [(1, 2)])

    def test_pk_uniqueness_enforced(self):
        schema = TableSchema.build(
            "t", {"id": ColumnType.INT}, primary_key=("id",)
        )
        with pytest.raises(IntegrityError):
            Relation.from_rows(schema, [(1,), (1,)])

    def test_null_int_column_promoted_to_float(self):
        schema = TableSchema.build("t", {"a": ColumnType.INT})
        rel = Relation.from_rows(schema, [(1,), (None,)])
        assert rel.column("a").dtype == np.float64
        assert np.isnan(rel.column("a")[1])

    def test_ragged_columns_rejected(self):
        schema = TableSchema.build(
            "t", {"a": ColumnType.INT, "b": ColumnType.INT}
        )
        with pytest.raises(SchemaError):
            Relation(
                schema,
                {
                    "a": np.array([1, 2], dtype=np.int64),
                    "b": np.array([1], dtype=np.int64),
                },
            )


class TestAccess:
    def test_iter_rows_count(self):
        assert len(list(make_relation().iter_rows())) == 4

    def test_to_dicts(self):
        d = make_relation().to_dicts()[1]
        assert d == {"id": 2, "name": "b", "score": 2.5}

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            make_relation().column("nope")


class TestOperations:
    def test_take_preserves_order_and_duplicates(self):
        rel = make_relation()
        taken = rel.take(np.array([2, 0, 0]))
        assert [r[0] for r in taken.iter_rows()] == [3, 1, 1]

    def test_filter_mask(self):
        rel = make_relation()
        mask = rel.column("id").astype(np.int64) % 2 == 0
        assert [r[0] for r in rel.filter_mask(mask).iter_rows()] == [2, 4]

    def test_filter_mask_validates(self):
        rel = make_relation()
        with pytest.raises(SchemaError):
            rel.filter_mask(np.array([True]))

    def test_project(self):
        projected = make_relation().project(["name"])
        assert projected.column_names == ["name"]
        assert projected.num_rows == 4

    def test_rename_columns(self):
        renamed = make_relation().rename_columns({"id": "ident"})
        assert "ident" in renamed.column_names
        assert renamed.schema.primary_key == ("ident",)

    def test_prefix_columns(self):
        prefixed = make_relation().prefix_columns("g.")
        assert prefixed.column_names == ["g.id", "g.name", "g.score"]

    def test_with_column(self):
        rel = make_relation()
        extended = rel.with_column(
            "extra", ColumnType.INT, np.arange(4, dtype=np.int64)
        )
        assert extended.column("extra")[3] == 3
        assert rel.num_rows == extended.num_rows

    def test_with_column_length_checked(self):
        with pytest.raises(SchemaError):
            make_relation().with_column(
                "extra", ColumnType.INT, np.arange(2, dtype=np.int64)
            )

    def test_sort_by(self):
        schema = TableSchema.build(
            "t", {"a": ColumnType.INT, "b": ColumnType.TEXT}
        )
        rel = Relation.from_rows(schema, [(2, "x"), (1, "y"), (2, "a")])
        ordered = rel.sort_by(["a", "b"])
        assert list(ordered.iter_rows()) == [(1, "y"), (2, "a"), (2, "x")]
