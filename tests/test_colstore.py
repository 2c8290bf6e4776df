"""Out-of-core column store: memmap-backed relations ≡ in-memory.

Differential suite for :mod:`repro.db.colstore`: a database saved with
``Database.save`` and reopened with ``Database.open`` must be
indistinguishable from the in-memory original through every consumer —
column materialization, subset gathers, derived relations (``take``,
``filter_mask``, ``project``, ``prefix_columns``), frame joins
(``IndexFrame.join``, the one join core), the mining kernel's code
matrices, and a second save of the reopened store — over adversarial
inputs (NULL text, ``-1`` sentinel ints, float NaN, zero-row tables,
all-NULL columns).  Every TEXT column of a base table, the provenance
table and each APT relation is one type, ``TextColumn``, loaded or
reopened, and the provenance table's share their base dictionaries.
The lazy-dictionary contract is asserted directly: ``open`` reads zero
dictionary files, only tables whose object values are actually
gathered ever load one, and λqcost's distinct counts load none.  A
truncated or mis-pointed data file, or a manifest entry whose dtype or
byte range the column cannot hold, fails closed: ``open`` raises a
``SchemaError`` naming ``<table>.bin`` and the column instead of opening
a shorter or reinterpreted column; a malformed manifest, or one whose
file names point outside the store, is a ``SchemaError`` naming
``manifest.json`` and the table or column.

Also holds the vectorized-encoding and aggregate parity properties:
``encoding_from_distinct`` must reproduce ``encode_object_column``
exactly, and ``aggregate`` (every SELECT item for all groups at once)
must match ``tests/oracles/eager.py``'s per-group
``aggregate_by_definition`` byte for byte, or raise the same error.

CI runs this file under the deterministic raised-example profile
(``HYPOTHESIS_PROFILE=ci``), like the join differential harness.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import ColumnType, Relation, TableSchema, TextColumn
from repro.db.colstore import open_columnar, save_columnar
from repro.db.database import Database
from repro.db.frame import IndexFrame
from repro.db.errors import ExecutionError, SchemaError
from repro.db.relation import encode_object_column, encoding_from_distinct
from tests.oracles.eager import aggregate_by_definition
from tests.test_engine import assert_relations_identical

settings.register_profile(
    "ci", settings(max_examples=200, deadline=None, derandomize=True)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# NULL text, duplicate-heavy tiny domains, NaN floats, -1 sentinel ints:
# every encoder edge the eager load path handles.
TEXT_CELLS = st.one_of(st.none(), st.sampled_from(["a", "b", "c", ""]))
INT_CELLS = st.one_of(st.none(), st.integers(min_value=-1, max_value=4))
FLOAT_CELLS = st.one_of(
    st.none(), st.just(math.nan), st.sampled_from([-2.0, 0.0, 1.5])
)
ROWS = st.lists(st.tuples(INT_CELLS, FLOAT_CELLS, TEXT_CELLS), max_size=24)


def _table(name: str, rows) -> Relation:
    return Relation.from_rows(
        TableSchema.build(
            name,
            {
                f"{name}.k": ColumnType.INT,
                f"{name}.x": ColumnType.FLOAT,
                f"{name}.s": ColumnType.TEXT,
            },
        ),
        rows,
    )


def _database(tables: list[Relation]) -> Database:
    db = Database(name="colstore_test")
    for relation in tables:
        db.add_relation(relation)
    return db


def _reopened(db: Database, tmp_path) -> Database:
    directory = tmp_path / "store"
    save_columnar(db, directory)
    return open_columnar(directory)


def _assert_same_values(left: np.ndarray, right: np.ndarray) -> None:
    assert left.dtype == right.dtype
    if left.dtype.kind == "f":
        assert np.array_equal(left, right, equal_nan=True)
    else:
        assert list(left) == list(right)


# ----------------------------------------------------------------------
# O(dict) open
# ----------------------------------------------------------------------
class TestLazyDictionaries:
    def test_open_loads_zero_dicts(self, tmp_path):
        db = _database([_table("t", [(1, 1.0, "a"), (2, math.nan, None)])])
        reopened = _reopened(db, tmp_path)
        assert reopened.column_store.dicts_loaded == 0

    def test_gather_loads_only_touched_tables(self, tmp_path):
        db = _database(
            [
                _table("t", [(1, 1.0, "a")]),
                _table("u", [(2, 2.0, "b")]),
            ]
        )
        reopened = _reopened(db, tmp_path)
        # Numeric columns and numeric-key joins never need the
        # dictionaries.
        reopened.table("t").column("t.k")
        IndexFrame.from_relation(reopened.table("t")).join(
            reopened.table("u"), [("t.k", "u.k")]
        ).column("u.x")
        assert reopened.column_store.dicts_loaded == 0
        # An object-value gather loads exactly its own table's dictionaries.
        reopened.table("t").column("t.s")
        assert [
            name
            for name, store in reopened.column_store.stores.items()
            if store.loaded
        ] == ["t"]

    @pytest.mark.parametrize("dataset", ["nba", "mimic"])
    def test_statistics_read_no_dictionary(
        self, dataset, gate_databases, tmp_path
    ):
        """λqcost's distinct counts come from codes, never from values."""
        db, _ = gate_databases[dataset]
        reopened = _reopened(db, tmp_path)
        for table in db.table_names:
            for column in db.table(table).column_names:
                assert reopened.statistics(table).distinct(column) == (
                    db.statistics(table).distinct(column)
                ), f"{table}.{column}"
        assert reopened.column_store.dicts_loaded == 0

    def test_cold_question_reads_only_mined_dictionaries(
        self, gate_databases, tmp_path
    ):
        from repro.api import CajadeSession
        from repro.core import CajadeConfig
        from repro.datasets import query_by_name
        from repro.datasets.nba import nba_schema_graph

        reopened = _reopened(gate_databases["nba"][0], tmp_path)
        workload = query_by_name("Qnba5")
        CajadeSession(
            reopened, nba_schema_graph(reopened), CajadeConfig(max_join_edges=2)
        ).explain(workload.sql, workload.question)
        # 8 before the cost model stopped reading values.
        assert reopened.column_store.dicts_loaded <= 6

    def test_lazy_column_slot_is_identity_stable(self, tmp_path):
        db = _database([_table("t", [(1, 1.0, "a"), (2, 2.0, "b")])])
        relation = _reopened(db, tmp_path).table("t")
        slot = relation.encoding("t.s")
        assert isinstance(slot, TextColumn)
        first = relation.column("t.s")
        assert relation.column("t.s") is first
        assert relation.encoding("t.s") is slot


# ----------------------------------------------------------------------
# Memmap ≡ in-memory parity
# ----------------------------------------------------------------------
class TestRoundTripParity:
    @given(rows=ROWS)
    def test_columns_and_schema(self, rows, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("colstore")
        db = _database([_table("t", rows)])
        relation = _reopened(db, tmp).table("t")
        original = db.table("t")
        assert relation.schema.columns == original.schema.columns
        assert_relations_identical(original, relation)
        for name in original.column_names:
            assert relation.column_dtype(name) == original.column_dtype(name)

    @given(rows=ROWS, data=st.data())
    def test_subset_gathers(self, rows, data, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("colstore")
        db = _database([_table("t", rows)])
        relation = _reopened(db, tmp).table("t")
        original = db.table("t")
        n = original.num_rows
        subset = np.asarray(
            data.draw(
                st.lists(st.integers(min_value=0, max_value=max(0, n - 1)))
            )
            if n
            else [],
            dtype=np.int64,
        )
        for name in original.column_names:
            _assert_same_values(
                original.gather_column(name, subset),
                relation.gather_column(name, subset),
            )

    @given(rows=ROWS)
    def test_self_joins(self, rows, tmp_path_factory):
        """Each column joined to a prefixed alias of its own table (a
        self-join on a shared array) — memmap-backed ≡ in-memory."""
        tmp = tmp_path_factory.mktemp("colstore")
        db = _database([_table("t", rows)])
        relation = _reopened(db, tmp).table("t")
        original = db.table("t")
        for name in original.column_names:
            eager, lazy = (
                IndexFrame.from_relation(side).join(
                    side.prefix_columns("r_"), [(name, f"r_{name}")]
                )
                for side in (original, relation)
            )
            assert_relations_identical(eager.to_relation(), lazy.to_relation())

    @given(left_rows=ROWS, right_rows=ROWS)
    def test_joins(self, left_rows, right_rows, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("colstore")
        db = _database([_table("l", left_rows), _table("r", right_rows)])
        reopened = _reopened(db, tmp)
        for conditions in (
            [("l.k", "r.k"), ("l.s", "r.s")], [("l.k", "r.k")], [("l.s", "r.s")]
        ):
            eager, lazy = (
                IndexFrame.from_relation(source.table("l")).join(
                    source.table("r"), conditions
                )
                for source in (db, reopened)
            )
            assert_relations_identical(eager.to_relation(), lazy.to_relation())

    @given(rows=ROWS)
    def test_kernel_code_matrices(self, rows, tmp_path_factory):
        from repro.core.apt import APTAttribute, AugmentedProvenanceTable
        from repro.core.kernel import MiningKernel

        tmp = tmp_path_factory.mktemp("colstore")
        db = _database([_table("t", rows)])
        reopened = _reopened(db, tmp)

        def build(relation):
            apt = AugmentedProvenanceTable(
                None,
                relation=relation,
                attributes=[APTAttribute("t.s", False, False)],
            )
            return MiningKernel(
                apt, None, np.zeros(relation.num_rows, dtype=np.int64), m1=1
            )

        left = build(db.table("t"))
        right = build(reopened.table("t"))
        assert np.array_equal(
            left.code_matrix(["t.s"]), right.code_matrix(["t.s"])
        )
        assert np.array_equal(left.ml_codes("t.s"), right.ml_codes("t.s"))

    @given(left_rows=ROWS, right_rows=ROWS)
    def test_resave_round_trip(self, left_rows, right_rows, tmp_path_factory):
        """``save(open(save(db)))`` reopens identical to ``db`` — what a
        worker pool does with a database ``serve --db-cache-dir`` opened."""
        tmp = tmp_path_factory.mktemp("colstore")
        db = _database([_table("l", left_rows), _table("r", right_rows)])
        db.add_foreign_key("l", ["l.k"], "r", ["r.k"])
        resaved = _reopened(_reopened(db, tmp / "first"), tmp / "second")
        assert resaved.table_names == db.table_names
        assert resaved.foreign_keys == db.foreign_keys
        for name in db.table_names:
            assert_relations_identical(db.table(name), resaved.table(name))
            for column in db.table(name).column_names:
                left = db.table(name).encoding(column)
                right = resaved.table(name).encoding(column)
                if left is not None:
                    assert right.codes.tolist() == left.codes.tolist()
                    assert dict(right.code_of) == dict(left.code_of)
                    assert right.none_code == left.none_code

    @given(rows=ROWS, data=st.data())
    def test_derived_relations(self, rows, data, tmp_path_factory):
        """take / filter_mask / project / prefix_columns of a reopened
        table ≡ of the in-memory one: values, subset gathers, codes and
        NULL code — and each derived TEXT column keeps its base
        column's dictionary object."""
        tmp = tmp_path_factory.mktemp("colstore")
        db = _database([_table("t", rows)])
        bases = (db.table("t"), _reopened(db, tmp).table("t"))
        n = bases[0].num_rows
        indices = np.asarray(
            data.draw(st.lists(st.integers(min_value=0, max_value=n - 1)))
            if n
            else [],
            dtype=np.int64,
        )
        mask = np.asarray(
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            dtype=bool,
        )
        derivations = {
            "take": lambda r: r.take(indices),
            "filter_mask": lambda r: r.filter_mask(mask),
            "project": lambda r: r.project(["t.s", "t.k"]),
            "prefix_columns": lambda r: r.prefix_columns("p."),
        }
        for label, derive in derivations.items():
            left, right = (derive(base) for base in bases)
            assert_relations_identical(left, right)
            backwards = np.arange(left.num_rows)[::-1]
            for name in left.column_names:
                _assert_same_values(
                    left.gather_column(name, backwards),
                    right.gather_column(name, backwards),
                )
                texts = (left.encoding(name), right.encoding(name))
                if left.column_type(name) is not ColumnType.TEXT:
                    assert texts == (None, None), (label, name)
                    continue
                assert texts[0].codes.tolist() == texts[1].codes.tolist()
                assert texts[0].none_code == texts[1].none_code
                base_name = name.removeprefix("p.")
                for text, base in zip(texts, bases):
                    assert text.dictionary is base.encoding(base_name).dictionary

    def test_zero_row_table(self, tmp_path):
        db = _database([_table("t", [])])
        relation = _reopened(db, tmp_path).table("t")
        assert relation.num_rows == 0
        assert_relations_identical(db.table("t"), relation)

    def test_all_null_text_column(self, tmp_path):
        db = _database([_table("t", [(1, 1.0, None), (2, 2.0, None)])])
        relation = _reopened(db, tmp_path).table("t")
        assert_relations_identical(db.table("t"), relation)
        encoding = relation.encoding("t.s")
        assert encoding is not None
        assert list(encoding.match_codes) == [-1, -1]

    def test_foreign_keys_survive(self, tmp_path):
        db = _database(
            [_table("l", [(1, 1.0, "a")]), _table("r", [(1, 2.0, "b")])]
        )
        db.add_foreign_key("l", ["l.k"], "r", ["r.k"])
        reopened = _reopened(db, tmp_path)
        fks = reopened.foreign_keys
        assert len(fks) == 1
        assert (fks[0].table, fks[0].ref_table) == ("l", "r")


# ----------------------------------------------------------------------
# One TEXT representation, however a table was made
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", ["csv", "reopened"])
@pytest.mark.parametrize("name", ["Qnba5", "Qmimic5"])
def test_every_text_slot_is_a_text_column(
    name, store, gate_databases, tmp_path
):
    """Every TEXT column of every base table, the provenance table and
    each λ#edges-1 APT relation is a TextColumn (numeric ones have
    none), and each provenance TEXT column shares its base column's
    dictionary object: nothing downstream of the load re-encodes."""
    from repro.core import CajadeConfig
    from repro.core.enumeration import enumerate_join_graphs
    from repro.datasets import query_by_name
    from repro.db.csvio import load_database, save_database
    from repro.db.parser import parse_sql
    from repro.db.provenance import ProvenanceTable
    from repro.engine import MaterializationEngine
    from tests.conftest import engine_apts

    workload = query_by_name(name)
    generated, schema_graph = gate_databases[workload.dataset]
    save_database(generated, tmp_path / "csv")
    db = load_database(tmp_path / "csv")
    if store == "reopened":
        db = _reopened(db, tmp_path)
    query = parse_sql(workload.sql)
    pt = ProvenanceTable.compute(query, db)
    graphs = list(
        enumerate_join_graphs(
            schema_graph, query, pt, db, CajadeConfig(max_join_edges=1)
        )
    )
    apts = engine_apts(MaterializationEngine(pt, db), graphs)
    assert len(apts) > 1
    relations = [db.table(table) for table in db.table_names]
    relations += [pt.relation] + [apt.relation for apt in apts]
    for relation in relations:
        for column in relation.column_names:
            text = relation.column_type(column) is ColumnType.TEXT
            assert type(relation.encoding(column)) is (
                TextColumn if text else type(None)
            ), (relation.name, column)
    tables = {ref.alias: ref.table for ref in query.tables}
    shared = 0
    for column in pt.data_columns:
        text = pt.relation.encoding(column)
        if text is not None:
            alias, _, attr = column.partition(".")
            base = db.table(tables[alias]).encoding(attr)
            assert text.dictionary is base.dictionary, column
            shared += 1
    assert shared >= 3


# ----------------------------------------------------------------------
# A damaged data file fails closed
# ----------------------------------------------------------------------
TEN_ROWS = [(i, i / 2, "abcdefghij"[i]) for i in range(10)]


def _saved(tmp_path, relation: Relation):
    directory = tmp_path / "store"
    save_columnar(_database([relation]), directory)
    return directory


def _truncate(path, nbytes: int) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - nbytes])


class TestDamagedDataFile:
    @pytest.mark.parametrize("cut", ["1", "8", "half"])
    def test_truncated_file(self, tmp_path, cut):
        directory = _saved(tmp_path, _table("t", TEN_ROWS))
        size = (directory / "t.bin").stat().st_size
        _truncate(directory / "t.bin", size // 2 if cut == "half" else int(cut))
        with pytest.raises(SchemaError, match=r"t\.bin column 't\.[kxs]'"):
            open_columnar(directory)

    def test_offset_past_eof(self, tmp_path):
        directory = _saved(tmp_path, _table("t", TEN_ROWS))
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        column = manifest["tables"]["t"]["columns"][0]
        column["offset"] = (directory / "t.bin").stat().st_size + 8
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match=r"t\.bin column 't\.k'"):
            open_columnar(directory)

    @pytest.mark.parametrize(
        "ctype,cells",
        [
            (ColumnType.INT, list(range(10))),
            (ColumnType.FLOAT, [i / 4 for i in range(10)]),
            (ColumnType.TEXT, list("abcdefghij")),
        ],
        ids=["int", "float", "text"],
    )
    def test_one_column_table_truncated(self, tmp_path, ctype, cells):
        """One column, so no ragged-column check can catch a short view:
        the 10-row table must not open with fewer rows."""
        relation = Relation.from_rows(
            TableSchema.build("t", {"t.v": ctype}), [(c,) for c in cells]
        )
        directory = _saved(tmp_path, relation)
        assert open_columnar(directory).table("t").num_rows == 10
        _truncate(directory / "t.bin", 8)
        with pytest.raises(SchemaError, match=r"t\.bin column 't\.v'"):
            open_columnar(directory)

    # (column, manifest field, tampered value; None deletes the field).
    # t.k is int64, t.x float64 and t.s int32 codes.
    @pytest.mark.parametrize(
        "column,field,value",
        [
            ("t.k", "dtype", "|O"),
            ("t.k", "dtype", ">i8"),
            ("t.k", "dtype", "<M8[s]"),
            ("t.k", "dtype", "not-a-dtype"),
            ("t.k", "dtype", None),
            ("t.x", "dtype", "<i8"),
            ("t.s", "dtype", "<u4"),
            ("t.s", "dtype", "<f4"),
            ("t.k", "offset", None),
            ("t.x", "nbytes", 80.0),
            ("t.s", "rows", "10"),
        ],
    )
    def test_tampered_manifest_entry(self, tmp_path, column, field, value):
        """A manifest dtype or byte range the column cannot hold is
        refused at open, never reinterpreted or left to numpy."""
        directory = _saved(tmp_path, _table("t", TEN_ROWS))
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        (meta,) = (
            c for c in manifest["tables"]["t"]["columns"]
            if c["name"] == column
        )
        if value is None:
            del meta[field]
        else:
            meta[field] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(
            SchemaError, match=rf"t\.bin column '{re.escape(column)}'"
        ):
            open_columnar(directory)


def _edit_tables(edit):
    """A manifest edit applied to the parsed manifest's ``tables``."""
    def apply(manifest):
        edit(manifest["tables"])
        return json.dumps(manifest)
    return apply


def _column_entry(tables, name):
    (meta,) = (c for c in tables["t"]["columns"] if c["name"] == name)
    return meta


# (edit of the manifest text, what the error must name besides the file).
MALFORMED_MANIFESTS = {
    "not_json": (lambda m: "{not json", None),
    "truncated": (lambda m: json.dumps(m)[:40], None),
    "json_list": (lambda m: "[]", None),
    "no_tables": (lambda m: json.dumps({**m, "tables": None}), "tables"),
    "no_columns": (_edit_tables(lambda t: t["t"].pop("columns")), "'t'"),
    "column_without_name": (
        _edit_tables(lambda t: _column_entry(t, "t.k").pop("name")), "'t'"
    ),
    "blob_type": (
        _edit_tables(lambda t: _column_entry(t, "t.k").update(type="blob")),
        "'t.k'",
    ),
    "none_code_not_int": (
        _edit_tables(lambda t: _column_entry(t, "t.s").update(none_code="x")),
        "'t.s'",
    ),
    "dicts_file_absolute": (
        _edit_tables(lambda t: t["t"].update(dicts_file="/t.dicts.npz")),
        "'t'",
    ),
    "dicts_file_outside": (
        _edit_tables(
            lambda t: t["t"].update(dicts_file="../store/t.dicts.npz")
        ),
        "'t'",
    ),
    "table_name_outside": (
        _edit_tables(lambda t: t.update({"../store/t": t.pop("t")})),
        "'../store/t'",
    ),
}


@pytest.mark.parametrize(
    "edit,named",
    MALFORMED_MANIFESTS.values(),
    ids=MALFORMED_MANIFESTS.keys(),
)
def test_malformed_manifest(tmp_path, edit, named):
    """A manifest that is not JSON, not shaped like one this module
    writes, or that points a file name outside the store is refused at
    open with a SchemaError naming manifest.json and the table or
    column — never a JSONDecodeError, KeyError or a silent open."""
    rows = [(1, 1.0, "a"), (2, 2.0, None)]
    directory = _saved(tmp_path, _table("t", rows))
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(edit(json.loads(manifest_path.read_text())))
    with pytest.raises(SchemaError, match=r"manifest\.json") as info:
        open_columnar(directory)
    if named is not None:
        assert named in str(info.value)


# ----------------------------------------------------------------------
# Vectorized load-path encoding (satellite: np.unique fold-in)
# ----------------------------------------------------------------------
class TestEncodingFromDistinct:
    @given(
        cells=st.lists(
            st.one_of(st.none(), st.sampled_from(["a", "b", "c", "", "-1"])),
        )
    )
    def test_matches_reference_encoder(self, cells):
        arr = np.empty(len(cells), dtype=object)
        arr[:] = cells
        reference = encode_object_column(arr)
        # Raw distincts in first-occurrence order, as the CSV reader
        # numbers them; two raw spellings ("" and "NULL") coerce to None.
        raw = [
            f"v{c}" if c is not None else ("NULL" if i % 2 else "")
            for i, c in enumerate(cells)
        ]
        index: dict[str, int] = {}
        inverse = np.array(
            [index.setdefault(r, len(index)) for r in raw], dtype=np.intp
        )
        table = np.empty(len(index), dtype=object)
        for j, r in enumerate(index):
            table[j] = None if r in ("", "NULL") else r[1:]
        vectorized = encoding_from_distinct(table, inverse)
        assert np.array_equal(vectorized.codes, reference.codes)
        assert dict(vectorized.code_of) == dict(reference.code_of)
        assert vectorized.none_code == reference.none_code


# ----------------------------------------------------------------------
# The aggregate against its per-group definition
# ----------------------------------------------------------------------
AGGREGATE_ITEMS = st.sampled_from([
    "COUNT(*)", "COUNT(k)", "COUNT(x)", "COUNT(s)",
    "SUM(k)", "SUM(x)", "SUM(s)", "AVG(k)", "AVG(x)", "AVG(s)",
    "MIN(k)", "MIN(x)", "MIN(s)", "MAX(k)", "MAX(x)", "MAX(s)",
    "SUM(x) / COUNT(x)", "MAX(k) - MIN(x)", "2 * COUNT(*) + 1",
    "1.0 * SUM(k) / COUNT(s)", "7", "'lit'",
])


class TestVectorizedAggregate:
    def _run(self, sql: str, db: Database) -> Relation | None:
        """``aggregate`` ≡ the per-group definition (the same relation, or
        the same ``ExecutionError``); returns the definition's relation,
        or None when it raised."""
        from repro.db import executor
        from repro.db.parser import parse_sql

        query = parse_sql(sql)
        work = executor.working_table(query, db)
        groups = executor.group_indices(
            work, executor.group_columns_in_working(query, work)
        )
        try:
            expected = aggregate_by_definition(query, work, groups)
        except ExecutionError as exc:
            with pytest.raises(ExecutionError, match=re.escape(str(exc))):
                executor.aggregate(query, work, groups)
            return None
        assert_relations_identical(
            executor.aggregate(query, work, groups), expected
        )
        return expected

    def _db(self, rows) -> Database:
        return _database([_table("t", rows)])

    GOLDEN_ROWS = [
        (1, 10.0, "a"),
        (1, math.nan, "a"),
        (2, 3.5, "b"),
        (2, -1.0, "b"),
        (None, 7.0, None),
        (3, math.nan, "c"),
    ]

    def test_golden_all_aggregates(self):
        db = self._db(self.GOLDEN_ROWS)
        ref = self._run(
            "SELECT s, COUNT(*) AS n, COUNT(x) AS nx, SUM(x) AS sx, "
            "AVG(x) AS ax, MIN(x) AS mn, MAX(x) AS mx "
            "FROM t GROUP BY s",
            db,
        )
        by_s = {
            row[0]: row[1:]
            for row in zip(*(ref.column(c) for c in ref.column_names))
        }
        assert by_s["a"] == (2, 1, 10.0, 10.0, 10.0, 10.0)
        assert by_s["b"] == (2, 2, 2.5, 1.25, -1.0, 3.5)
        # All-NaN group: COUNT(x) is 0 and every value aggregate is None
        # (stored as NaN once the FLOAT result column materializes).
        assert by_s["c"][:2] == (1, 0)
        assert all(math.isnan(v) for v in by_s["c"][2:])

    def test_golden_arithmetic_and_literal(self):
        db = self._db(self.GOLDEN_ROWS)
        assert self._run(
            "SELECT s, SUM(x) / COUNT(x) AS manual_avg, 7 AS lucky "
            "FROM t GROUP BY s",
            db,
        ) is not None

    def test_ungrouped_aggregate(self):
        db = self._db(self.GOLDEN_ROWS)
        assert self._run(
            "SELECT COUNT(*) AS n, AVG(x) AS ax FROM t", db
        ) is not None

    def test_text_count_min_max(self):
        db = self._db(self.GOLDEN_ROWS)
        ref = self._run(
            "SELECT k, MIN(s) AS mn, MAX(s) AS mx, COUNT(s) AS n "
            "FROM t GROUP BY k",
            db,
        )
        assert ref.column("mn").tolist()[:3] == ["a", "b", "c"]
        assert ref.column("n").tolist()[:3] == [2, 2, 1]

    def test_text_sum_is_an_error(self):
        db = self._db(self.GOLDEN_ROWS)
        assert self._run("SELECT k, SUM(s) AS n FROM t GROUP BY k", db) is None
        # An all-NULL argument has nothing to add: NULL, as by definition.
        db = self._db([(1, 1.0, None), (2, 2.0, None)])
        ref = self._run("SELECT k, AVG(s) AS n FROM t GROUP BY k", db)
        assert ref.column("n").tolist() == [None, None]

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.one_of(
                    st.none(),
                    st.just(math.nan),
                    st.floats(
                        min_value=-1e6,
                        max_value=1e6,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                ),
                st.one_of(st.none(), st.sampled_from(["a", "b"])),
            ),
            max_size=40,
        )
    )
    def test_property_parity(self, rows):
        db = self._db(rows)
        assert self._run(
            "SELECT k, COUNT(*) AS n, SUM(x) AS sx, AVG(x) AS ax, "
            "MIN(x) AS mn, MAX(x) AS mx FROM t GROUP BY k",
            db,
        ) is not None

    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(min_value=-2, max_value=3)),
                st.one_of(
                    st.none(),
                    st.just(math.nan),
                    st.sampled_from([-1.5, 0.0, 2.0, 1e6]),
                ),
                st.one_of(
                    st.none(), st.sampled_from(["a", "b", "", "a\x00", "é"])
                ),
            ),
            max_size=30,
        ),
        items=st.lists(AGGREGATE_ITEMS, min_size=1, max_size=4),
        group_by=st.sampled_from([(), ("k",), ("s",), ("k", "s")]),
    )
    def test_property_matches_definition(self, rows, items, group_by):
        """Every aggregate over INT, FLOAT and TEXT arguments (NULL and
        NaN cells, all-NULL groups, empty tables), arithmetic and
        literals, grouped and ungrouped."""
        select = list(group_by) + [
            f"{item} AS a{i}" for i, item in enumerate(items)
        ]
        sql = f"SELECT {', '.join(select)} FROM t"
        if group_by:
            sql += f" GROUP BY {', '.join(group_by)}"
        self._run(sql, self._db(rows))
