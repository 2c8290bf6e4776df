"""A TEXT cell is ``str`` or ``None`` — checked once, where a table enters.

Building a relation encodes every object column, and fails closed on an
``int``, a float NaN or a ``list``, with a :class:`SchemaError` naming
table and column: no relation holding such a cell exists.
Nothing past the boundary keeps a path for such cells
(``docs/ARCHITECTURE.md``, "Values and NULLs").  A saved column store's
dictionary is UTF-8 bytes plus offsets, so it can only decode to text;
every way a tampered one disagrees with itself or its codes is a
:class:`SchemaError` at the first gather, and an object array in it is
refused rather than loaded.

CI runs this file under the fixed deterministic hypothesis profile
(``HYPOTHESIS_PROFILE=ci``), beside the join differential harness.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import ColumnType, Database, Relation, TableSchema
from repro.db.errors import SchemaError
from repro.db.relation import encode_object_column

settings.register_profile(
    "ci", settings(max_examples=200, deadline=None, derandomize=True)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

BAD_CELLS = {"int": 5, "nan": float("nan"), "list": ["x"]}
TEXT = st.one_of(st.none(), st.text(max_size=3))


def object_column(cells: list) -> np.ndarray:
    column = np.empty(len(cells), dtype=object)
    for i, cell in enumerate(cells):
        column[i] = cell  # element-wise: a list cell stays one cell
    return column


def relation_with(cells: list) -> Relation:
    """Table ``t`` with a TEXT column ``s`` holding ``cells`` as given
    (``from_rows`` would coerce them; arrays are taken as they are)."""
    schema = TableSchema.build(
        "t", {"k": ColumnType.INT, "s": ColumnType.TEXT}
    )
    columns = {
        "k": np.arange(len(cells), dtype=np.int64),
        "s": object_column(cells),
    }
    return Relation(schema, columns)


@pytest.mark.parametrize("cell", BAD_CELLS.values(), ids=BAD_CELLS.keys())
class TestNonTextCellIsRejected:
    def test_relation_encoding(self, cell):
        """The constructor encodes, so the relation is never built."""
        with pytest.raises(SchemaError, match=r"t\.s"):
            relation_with(["a", None, cell])

    def test_with_column(self, cell):
        relation = relation_with(["a", "b", None])
        with pytest.raises(SchemaError, match=r"t\.u"):
            relation.with_column(
                "u", ColumnType.TEXT, object_column([cell, "a", None])
            )

    def test_add_relation(self, cell):
        db = Database("d")
        with pytest.raises(SchemaError, match=r"t\.s"):
            db.add_relation(relation_with([cell, "a"]))
        assert not db.has_table("t")

    def test_primary_key_check(self, cell):
        schema = TableSchema.build(
            "t", {"s": ColumnType.TEXT}, primary_key=("s",)
        )
        with pytest.raises(SchemaError, match=r"t\.s"):
            Relation(schema, {"s": object_column(["a", cell])})


def test_ingest_coerces_before_the_check():
    """``create_table`` / ``from_rows`` are ingest: they map NaN to NULL
    and ``str()`` the rest, so what they hand the encoder is text."""
    db = Database("d")
    db.create_table(
        TableSchema.build("t", {"s": ColumnType.TEXT}),
        [(5,), (float("nan"),), ("a",), (None,)],
    )
    assert db.table("t").column("s").tolist() == ["5", None, "a", None]
    assert db.table("t").encoding("s").none_code == 1


def test_old_format_store_is_refused(tmp_path):
    db = Database("d")
    db.add_relation(relation_with(["a"]))
    db.save(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["format"] == 3
    assert "null_codes" not in json.dumps(manifest)
    for old in (1, 2):  # 2 stored its dictionaries in an executable file
        manifest["format"] = old
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="unsupported column-store"):
            Database.open(tmp_path)


# A saved ``t.s`` = ["a", None, "b"] is codes [0, 1, 2] over the UTF-8
# buffer b"ab" with offsets [0, 1, 1, 2] (slot 1, the NULL, is empty).
# Each case rewrites the dictionary file; the store still opens, and the
# first gather fails naming the column.
TAMPERED_DICTIONARIES = {
    "offsets_not_from_zero": (b"ab", [1, 1, 1, 2]),
    "offsets_decrease": (b"ab", [0, 2, 1, 2]),
    "offsets_end_short": (b"abc", [0, 1, 1, 2]),
    "offsets_end_past": (b"ab", [0, 1, 1, 3]),
    "invalid_utf8": (b"\xffb", [0, 1, 1, 2]),
    "split_utf8_char": ("é".encode() + b"b", [0, 1, 1, 3]),
    "null_slot_not_empty": (b"axb", [0, 1, 2, 3]),
    "duplicate_value": (b"aa", [0, 1, 1, 2]),
    "code_past_end": (b"a", [0, 1, 1]),
    "wrong_dtype": (b"ab", np.array([0, 1, 1, 2], dtype=np.int32)),
}


@pytest.mark.parametrize(
    "utf8,offsets",
    TAMPERED_DICTIONARIES.values(),
    ids=TAMPERED_DICTIONARIES.keys(),
)
def test_tampered_dictionary(tmp_path, utf8, offsets):
    db = Database("d")
    db.add_relation(relation_with(["a", None, "b"]))
    db.save(tmp_path)
    path = tmp_path / "t.dicts.npz"
    with np.load(path) as saved:
        assert saved["s.utf8"].tobytes() == b"ab"
        assert saved["s.offsets"].tolist() == [0, 1, 1, 2]
    np.savez(
        path,
        **{
            "s.utf8": np.frombuffer(utf8, dtype=np.uint8),
            "s.offsets": np.asarray(offsets),  # a list is int64
        },
    )

    reopened = Database.open(tmp_path)  # nothing is read at open
    assert reopened.column_store.dicts_loaded == 0
    table = reopened.table("t")
    assert table.encoding("s").codes.tolist() == [0, 1, 2]
    with pytest.raises(SchemaError, match=r"t\.s"):
        table.column("s")
    with pytest.raises(SchemaError, match=r"t\.s"):
        table.encoding("s").code_of.get("a")
    assert reopened.column_store.dicts_loaded == 0


def test_dictionary_file_executes_nothing(tmp_path):
    """An object array in the dictionary file is refused, not loaded."""
    db = Database("d")
    db.add_relation(relation_with(["a", None, "b"]))
    db.save(tmp_path)
    values = np.array(["a", None, "b"], dtype=object)
    np.savez(
        tmp_path / "t.dicts.npz", **{"s.utf8": values, "s.offsets": values}
    )
    with pytest.raises(SchemaError, match=r"t\.dicts\.npz"):
        Database.open(tmp_path).table("t").column("s")


class TestTextColumnsAlwaysEncode:
    @given(cells=st.lists(TEXT, max_size=30))
    def test_codes_round_trip_and_null_is_minus_one(self, cells):
        encoding = encode_object_column(object_column(cells))
        decode = encoding.dictionary.decode.tolist()
        assert list(encoding.code_of) == decode
        assert [decode[code] for code in encoding.codes] == cells
        assert encoding.none_code == (
            decode.index(None) if None in cells else None
        )
        assert encoding.match_codes.tolist() == [
            -1 if cell is None else code
            for cell, code in zip(cells, encoding.codes.tolist())
        ]
        rows = np.arange(len(cells))[::2]
        assert np.array_equal(
            encoding.gather_match(rows), encoding.match_codes[rows]
        )

    @given(
        cells=st.lists(TEXT, max_size=12),
        bad=st.sampled_from(list(BAD_CELLS.values())),
        position=st.integers(min_value=0, max_value=12),
    )
    def test_one_bad_cell_anywhere_is_found(self, cells, bad, position):
        cells.insert(min(position, len(cells)), bad)
        with pytest.raises(SchemaError, match=r"t\.s"):
            relation_with(cells).encoding("s")
