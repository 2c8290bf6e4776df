"""Persistent, memory-mappable column store for encoded databases.

Layout of a saved database directory:

- ``manifest.json`` — format version, catalog (table schemas, primary
  and foreign keys), and per-column storage records: kind (``numeric`` /
  ``encoded``), dtype, byte offset/length into the table's data file,
  and the code of the NULL cell (``none_code``, absent without one).
- ``<table>.bin`` — every numeric column's raw array and every encoded
  object column's int32 first-occurrence code array, concatenated with
  8-byte alignment.
- ``<table>.dicts.npz`` — the decode table (code → value) of each
  encoded column as two plain arrays: ``<column>.utf8`` (uint8, every
  value's UTF-8 bytes back to back) and ``<column>.offsets`` (int64,
  one more than there are codes; value ``i`` is bytes
  ``offsets[i]:offsets[i + 1]``).  The NULL slot — the manifest's
  ``none_code`` — is empty.  Nothing in the file executes: ``np.load``
  refuses object arrays.

A table's dictionaries are read and checked once, on the first gather
that needs values, never at open.  Offsets that do not rise from 0 to
the byte length, bytes that are not UTF-8, a non-empty NULL slot, a
value listed twice, or a code past the end of its dictionary is a
:class:`SchemaError` naming ``<table>.<column>``.

:func:`open_columnar` costs O(manifest + dicts touched): every data file
is mapped read-only with ``np.memmap`` (no pages are read), numeric
columns become zero-copy dtype views into the map, and each TEXT column
is the one :class:`~repro.db.relation.TextColumn` type, its codes a view
into the map and its :class:`~repro.db.relation.TextDictionary` loaded
through the table's :class:`_DictStore` on first touch.  The mining
kernel's code matrices and λqcost's distinct counts read codes and
never load a dictionary; gathers (a TEXT join key included) copy at
the edge exactly like the in-memory path.
"""

from __future__ import annotations

import json
import threading
import zipfile
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from .database import Database
from .errors import SchemaError
from .relation import Relation, TextColumn, TextDictionary
from .schema import Column, TableSchema, is_path_component
from .types import ColumnType

FORMAT_VERSION = 3  # 3: dictionaries as UTF-8 + offsets (2: executable)
MANIFEST_NAME = "manifest.json"

_ALIGN = 8

KIND_NUMERIC = "numeric"
KIND_ENCODED = "encoded"
_TYPES = {ctype.value for ctype in ColumnType}

_Dictionary = tuple[np.ndarray, dict[Any, int]]  # (decode table, code_of)


# ----------------------------------------------------------------------
# Value dictionaries: UTF-8 bytes + offsets, checked on first load
# ----------------------------------------------------------------------
def _dictionary_arrays(decode: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(utf8, offsets)`` for one decode table; ``None`` is empty."""
    encoded = [b"" if value is None else value.encode() for value in decode]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(raw) for raw in encoded], out=offsets[1:])
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), offsets


def _decode_dictionary(
    utf8: np.ndarray,
    offsets: np.ndarray,
    codes: np.ndarray,
    none_code: int | None,
    where: str,
) -> _Dictionary:
    """Decode one column's dictionary; any disagreement with itself or
    with the column's codes is a :class:`SchemaError` naming ``where``."""
    if (utf8.dtype, utf8.ndim, offsets.dtype, offsets.ndim) != (
        np.uint8, 1, np.int64, 1
    ):
        raise SchemaError(f"{where}: dictionary arrays have the wrong type")
    bounds = offsets.tolist()
    if (
        not bounds
        or bounds[0] != 0
        or bounds[-1] != len(utf8)
        or np.any(np.diff(offsets) < 0)
    ):
        raise SchemaError(
            f"{where}: dictionary offsets must rise from 0 to the "
            f"{len(utf8)}-byte value buffer"
        )
    raw = utf8.tobytes()
    try:
        values: list[Any] = [
            raw[start:end].decode() for start, end in zip(bounds, bounds[1:])
        ]
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{where}: dictionary value is not UTF-8 ({exc.reason})"
        ) from None
    if none_code is not None:
        if not 0 <= none_code < len(values) or values[none_code]:
            raise SchemaError(
                f"{where}: NULL slot {none_code} is not an empty entry"
            )
        values[none_code] = None
    code_of: dict[Any, int] = {}
    for code, value in enumerate(values):
        if code_of.setdefault(value, code) != code:
            raise SchemaError(f"{where}: dictionary lists {value!r} twice")
    if len(codes) and not 0 <= codes.min() <= codes.max() < len(values):
        raise SchemaError(
            f"{where}: codes fall outside the {len(values)}-entry dictionary"
        )
    decode = np.empty(len(values), dtype=object)
    decode[:] = values
    return decode, code_of


# ----------------------------------------------------------------------
# The per-table dictionary file, loaded on first touch
# ----------------------------------------------------------------------
class _DictStore:
    """One table's value dictionaries, read and checked at most once.

    Thread-safe: a library user may share one database across threads
    (the serving tests' in-process backend answers shards from executor
    threads), and two of them may race the first gather of different
    columns of the same table.
    ``loaded`` is the observable the O(dict) open test keys on —
    opening a database must not flip it; only a value gather may.
    ``columns`` holds each encoded column's ``(codes, none_code)``,
    registered at open, which the first load checks the file against.
    """

    __slots__ = ("path", "table", "columns", "_lock", "_dicts")

    def __init__(self, path: Path, table: str):
        self.path = path
        self.table = table
        self.columns: dict[str, tuple[np.ndarray, int | None]] = {}
        self._lock = threading.Lock()
        self._dicts: dict[str, _Dictionary] | None = None

    @property
    def loaded(self) -> bool:
        return self._dicts is not None

    def _load(self) -> dict[str, _Dictionary]:
        if self._dicts is None:
            with self._lock:
                if self._dicts is None:
                    self._dicts = self._read()
        return self._dicts

    def _read(self) -> dict[str, _Dictionary]:
        name = self.path.name
        try:
            with np.load(self.path) as npz:  # refuses object arrays
                arrays = {key: npz[key] for key in npz.files}
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise SchemaError(f"{name}: unreadable dictionary file ({exc})")
        dicts = {}
        for column, (codes, none_code) in self.columns.items():
            where = f"{self.table}.{column}"
            utf8 = arrays.get(f"{column}.utf8")
            offsets = arrays.get(f"{column}.offsets")
            if utf8 is None or offsets is None:
                raise SchemaError(f"{where}: no dictionary in {name}")
            dicts[column] = _decode_dictionary(
                utf8, offsets, codes, none_code, where
            )
        return dicts

    def dictionary(self, column: str) -> _Dictionary:
        """One column's ``(decode table, code_of)``."""
        return self._load()[column]


@dataclass
class ColumnStoreInfo:
    """Handle on an opened store, exposed as ``Database.column_store``.

    ``dicts_loaded`` counts tables whose dictionary file has been read
    so far — zero right after :func:`open_columnar`, growing
    only as gathers touch tables.
    """

    directory: Path
    stores: dict[str, _DictStore] = field(default_factory=dict)

    @property
    def dicts_loaded(self) -> int:
        return sum(1 for store in self.stores.values() if store.loaded)



# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def _write_aligned(handle, arr: np.ndarray, offset: int) -> tuple[int, int]:
    """Append ``arr``'s raw bytes at 8-byte alignment; (new_offset, start)."""
    pad = (-offset) % _ALIGN
    if pad:
        handle.write(b"\0" * pad)
        offset += pad
    arr = np.ascontiguousarray(arr)
    arr.tofile(handle)  # streams from memmaps: no whole-array temporary
    return offset + arr.nbytes, offset


def save_columnar(db: Database, directory: str | Path) -> None:
    """Write ``db`` to ``directory`` in the column-store format.

    Numeric arrays and code arrays go to ``<table>.bin`` verbatim;
    each TEXT column's decode table goes to the per-table dictionary
    file.  Saving an already disk-backed database round-trips (its
    dictionaries load as the decode tables are written).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "name": db.name,
        "tables": {},
        "foreign_keys": [
            {
                "table": fk.table,
                "columns": list(fk.columns),
                "ref_table": fk.ref_table,
                "ref_columns": list(fk.ref_columns),
            }
            for fk in db.foreign_keys
        ],
    }
    for table_name in db.table_names:
        relation = db.table(table_name)
        columns_meta: list[dict[str, Any]] = []
        dicts: dict[str, np.ndarray] = {}
        offset = 0
        with open(directory / f"{table_name}.bin", "wb") as handle:
            for col in relation.schema.columns:
                meta: dict[str, Any] = {
                    "name": col.name,
                    "type": col.ctype.value,
                    "rows": relation.num_rows,
                }
                dtype = relation.column_dtype(col.name)
                if dtype != object:
                    arr = relation.column(col.name)
                    offset, start = _write_aligned(handle, arr, offset)
                    meta.update(
                        kind=KIND_NUMERIC,
                        dtype=arr.dtype.str,
                        offset=start,
                        nbytes=int(arr.nbytes),
                    )
                else:
                    text = relation.encoding(col.name)
                    codes = np.ascontiguousarray(text.codes, dtype=np.int32)
                    offset, start = _write_aligned(handle, codes, offset)
                    utf8, offsets = _dictionary_arrays(text.dictionary.decode)
                    dicts[f"{col.name}.utf8"] = utf8
                    dicts[f"{col.name}.offsets"] = offsets
                    meta.update(
                        kind=KIND_ENCODED,
                        dtype=codes.dtype.str,
                        offset=start,
                        nbytes=int(codes.nbytes),
                        none_code=text.none_code,
                    )
                columns_meta.append(meta)
        table_meta: dict[str, Any] = {
            "rows": relation.num_rows,
            "primary_key": list(relation.schema.primary_key),
            "columns": columns_meta,
        }
        if dicts:
            table_meta["dicts_file"] = f"{table_name}.dicts.npz"
            np.savez(directory / table_meta["dicts_file"], **dicts)
        manifest["tables"][table_name] = table_meta
    # Manifest last: a torn save is unopenable rather than wrong.
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))


# ----------------------------------------------------------------------
# Open
# ----------------------------------------------------------------------
def _manifest_dtype(meta: dict[str, Any], where: str) -> np.dtype:
    """The dtype a column's manifest entry may declare: native int32
    codes for an encoded column; a native integer or floating dtype for a
    numeric one (floating when its type is ``float``).  Anything else is
    a :class:`SchemaError` — the bytes are never reinterpreted."""
    declared = meta.get("dtype")
    try:
        dtype = np.dtype(declared) if isinstance(declared, str) else None
    except (TypeError, ValueError):
        dtype = None
    if meta.get("kind") == KIND_ENCODED:
        allowed = dtype == np.dtype(np.int32)
    else:
        kinds = "f" if meta.get("type") == ColumnType.FLOAT.value else "iuf"
        allowed = dtype is not None and dtype.isnative and dtype.kind in kinds
    if not allowed:
        raise SchemaError(
            f"{where}: dtype {declared!r} is not allowed for a "
            f"{meta.get('kind')} {meta.get('type')} column"
        )
    return dtype


def _column_view(
    buf: np.ndarray | None, meta: dict[str, Any], data_file: str
) -> np.ndarray:
    """A zero-copy read-only dtype view into a table's mapped data file.

    Fails closed: the manifest's dtype must fit the column's kind and
    type, its ``offset``, ``nbytes`` and ``rows`` must be integers,
    ``offset + nbytes`` must lie inside the file and the view must hold
    exactly ``rows`` values, or this raises :class:`SchemaError` naming
    the file and the column — a tampered, truncated or mis-pointed file
    never opens as another column.
    """
    where = f"{data_file} column {meta['name']!r}"
    dtype = _manifest_dtype(meta, where)
    fields = [meta.get(key) for key in ("offset", "nbytes", "rows")]
    if not all(type(value) is int for value in fields):
        raise SchemaError(
            f"{where}: offset, nbytes and rows must be integers, not "
            f"{fields}"
        )
    start, nbytes, rows = fields
    size = 0 if buf is None else len(buf)
    if start < 0 or nbytes < 0 or start + nbytes > size:
        raise SchemaError(
            f"{where}: bytes [{start}, {start + nbytes}) lie outside the "
            f"{size}-byte data file (truncated or mis-pointed store)"
        )
    if nbytes != rows * dtype.itemsize:
        raise SchemaError(
            f"{where}: {nbytes} bytes do not hold the manifest's {rows} "
            f"{dtype} values"
        )
    if nbytes == 0:
        return np.empty(0, dtype=dtype)
    return buf[start:start + nbytes].view(dtype)


def _read_manifest(directory: Path) -> dict[str, Any]:
    """The manifest: a JSON object of the current format with a
    ``tables`` object, or a :class:`SchemaError` naming the file."""
    path = directory / MANIFEST_NAME
    if not path.exists():
        raise SchemaError(f"no column store at {directory} (missing manifest)")
    try:
        manifest = json.loads(path.read_bytes())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise SchemaError(f"{MANIFEST_NAME}: not JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise SchemaError(f"{MANIFEST_NAME}: not a JSON object")
    if manifest.get("format") != FORMAT_VERSION:
        raise SchemaError(
            f"{MANIFEST_NAME}: unsupported column-store format "
            f"{manifest.get('format')!r}"
        )
    if not isinstance(manifest.get("tables"), dict):
        raise SchemaError(f"{MANIFEST_NAME}: no 'tables' object")
    return manifest


def _check_table_entry(table: str, meta: Any) -> None:
    """Refuse a table entry that is malformed or would read a file
    outside the store: the name must be one path component and
    ``dicts_file`` (when present) ``<table>.dicts.npz``."""
    where = f"{MANIFEST_NAME}: table {table!r}"
    if not is_path_component(table):
        raise SchemaError(f"{where}: not a single path component")
    if not isinstance(meta, dict) or not isinstance(meta.get("columns"), list):
        raise SchemaError(f"{where}: no 'columns' list")
    dicts_file = meta.get("dicts_file", f"{table}.dicts.npz")
    if dicts_file != f"{table}.dicts.npz":
        raise SchemaError(
            f"{where}: dicts_file {dicts_file!r} is not {table}.dicts.npz"
        )
    for column in meta["columns"]:
        if not isinstance(column, dict) or not isinstance(
            column.get("name"), str
        ):
            raise SchemaError(f"{where}: a column entry has no name")
        column_where = f"{where} column {column['name']!r}"
        if column.get("type") not in _TYPES:
            raise SchemaError(
                f"{column_where}: unknown type {column.get('type')!r}"
            )
        if column.get("kind") not in (KIND_NUMERIC, KIND_ENCODED):
            raise SchemaError(
                f"{column_where}: unknown kind {column.get('kind')!r}"
            )
        none_code = column.get("none_code")
        if none_code is not None and type(none_code) is not int:
            raise SchemaError(
                f"{column_where}: none_code {none_code!r} is not an integer"
            )


def open_columnar(directory: str | Path) -> Database:
    """Open a database saved by :func:`save_columnar`.

    Cost is O(manifest + dicts touched): data files are memory-mapped,
    not read, and value dictionaries load on first gather.  Primary
    keys were validated at ingest and are not re-checked here.  A
    malformed manifest is a :class:`SchemaError` naming
    ``manifest.json`` and the table or column.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    db = Database(name=manifest.get("name", directory.name))
    info = ColumnStoreInfo(directory=directory)
    for table_name, table_meta in manifest["tables"].items():
        _check_table_entry(table_name, table_meta)
        data_path = directory / f"{table_name}.bin"
        buf: np.ndarray | None = None
        if data_path.exists() and data_path.stat().st_size:
            buf = np.memmap(data_path, dtype=np.uint8, mode="r")
        store = _DictStore(directory / f"{table_name}.dicts.npz", table_name)
        columns: dict[str, np.ndarray | TextColumn] = {}
        schema_columns: list[Column] = []
        for meta in table_meta["columns"]:
            cname = meta["name"]
            schema_columns.append(Column(cname, ColumnType(meta["type"])))
            view = _column_view(buf, meta, data_path.name)
            if meta["kind"] == KIND_NUMERIC:
                columns[cname] = view
            else:
                none_code = meta.get("none_code")
                store.columns[cname] = (view, none_code)
                columns[cname] = TextColumn(
                    view,
                    TextDictionary(none_code, partial(store.dictionary, cname)),
                )
        if store.columns:
            info.stores[table_name] = store
        schema = TableSchema(
            name=table_name,
            columns=schema_columns,
            primary_key=tuple(table_meta.get("primary_key", [])),
        )
        db.add_relation(Relation(schema, columns))
    for fk in manifest.get("foreign_keys", []):
        try:
            db.add_foreign_key(
                fk["table"], fk["columns"], fk["ref_table"], fk["ref_columns"]
            )
        except (KeyError, TypeError):
            raise SchemaError(
                f"{MANIFEST_NAME}: malformed foreign key {fk!r}"
            ) from None
    db.column_store = info
    return db
