"""Persistent, memory-mappable column store for encoded databases.

Layout of a saved database directory:

- ``manifest.json`` — format version, catalog (table schemas, primary
  and foreign keys), and per-column storage records: kind (``numeric`` /
  ``encoded``), dtype, byte offset/length into the table's data file,
  and the code of the NULL cell (``none_code``, absent without one).
- ``<table>.bin`` — every numeric column's raw array and every encoded
  object column's int32 first-occurrence code array, concatenated with
  8-byte alignment.
- ``<table>.dicts.pkl`` — one pickle per table holding the decode table
  (code → value list) of each encoded column.  Every value is ``str``
  or ``None``; anything else in the file is a :class:`SchemaError` when
  the table's dictionaries first load (never at open).

:func:`open_columnar` costs O(manifest + dicts touched): every data file
is mapped read-only with ``np.memmap`` (no pages are read), numeric
columns and code arrays become zero-copy dtype views into the map, and
object columns become lazy proxies (see :mod:`repro.db.relation`'s
lazy-column protocol) whose decode tables unpickle only on the first
gather that actually needs values.  ``ColumnEncoding`` entries are
pre-installed with memmap-backed codes and a lazily-filled ``code_of``
dict, so the mining kernel's code matrices run against disk-backed
codes without ever materializing value arrays; gathers (a TEXT join
key included) copy at the edge exactly like the in-memory path.
"""

from __future__ import annotations

import json
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .database import Database
from .errors import SchemaError
from .relation import ColumnEncoding, Relation, check_text_values
from .schema import Column, TableSchema
from .types import ColumnType

FORMAT_VERSION = 2  # 2: one ``none_code`` per column, a list of NULL codes before
MANIFEST_NAME = "manifest.json"

_ALIGN = 8
# Default bound on per-chunk bytes for whole-column copies (save path,
# shared-memory export): large enough to amortize loop overhead, small
# enough that copying a disk-backed column never doubles peak RSS.
DEFAULT_COPY_CHUNK_BYTES = 16 * 2**20

KIND_NUMERIC = "numeric"
KIND_ENCODED = "encoded"


def copy_chunked(
    dst: np.ndarray,
    src: np.ndarray,
    chunk_bytes: int = DEFAULT_COPY_CHUNK_BYTES,
) -> None:
    """Copy ``src`` into ``dst`` in bounded slices.

    Peak temporary footprint is one chunk, so filling a file buffer or a
    shared-memory segment from a memmap-backed column streams through
    the page cache instead of materializing the whole array.
    """
    n = len(src)
    if len(dst) != n:
        raise ValueError(f"length mismatch: {len(dst)} vs {n}")
    itemsize = src.dtype.itemsize if src.dtype != object else 8
    step = max(1, int(chunk_bytes) // max(1, itemsize))
    for start in range(0, n, step):
        dst[start:start + step] = src[start:start + step]


# ----------------------------------------------------------------------
# Lazy open-path pieces
# ----------------------------------------------------------------------
class _DictStore:
    """One table's pickled value dictionaries, unpickled at most once.

    Thread-safe: the serving front-end answers shards from executor
    threads, which under ``InlineBackend`` share one database and may
    race the first gather of different columns of the same table.
    ``loaded`` is the observable the O(dict) open test keys on —
    opening a database must not flip it; only a value gather may.
    """

    __slots__ = ("path", "table", "_lock", "_raw", "_decode_arrays")

    def __init__(self, path: Path, table: str):
        self.path = path
        self.table = table
        self._lock = threading.Lock()
        self._raw: dict[str, list[Any]] | None = None
        self._decode_arrays: dict[str, np.ndarray] = {}

    @property
    def loaded(self) -> bool:
        return self._raw is not None

    def _load(self) -> dict[str, list[Any]]:
        if self._raw is None:
            with self._lock:
                if self._raw is None:
                    with open(self.path, "rb") as handle:
                        raw = pickle.load(handle)
                    for column, values in raw.items():
                        check_text_values(values, f"{self.table}.{column}")
                    self._raw = raw
        return self._raw

    def values(self, column: str) -> list[Any]:
        return self._load()[column]

    def decode_array(self, column: str) -> np.ndarray:
        """The code → value decode table as an object array (cached)."""
        arr = self._decode_arrays.get(column)
        if arr is None:
            values = self.values(column)
            arr = np.empty(len(values), dtype=object)
            for i, value in enumerate(values):
                arr[i] = value
            self._decode_arrays[column] = arr
        return arr


class _LazyCodeDict(dict):
    """A ``value -> code`` dict filled from the decode table on first read.

    ``ColumnEncoding.code_of`` consumers only ever read (``get``,
    ``items``, ``len``, containment), so overriding the read entry
    points is enough; the fill is idempotent, making concurrent first
    reads from the front-end's executor threads safe.
    """

    __slots__ = ("_loader",)

    def __init__(self, loader: Callable[[], list[Any]]):
        super().__init__()
        self._loader = loader

    def _ensure(self) -> None:
        if self._loader is not None:
            values = self._loader()
            for code, value in enumerate(values):
                dict.__setitem__(self, value, code)
            self._loader = None

    def __getitem__(self, key):
        self._ensure()
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self._ensure()
        return dict.get(self, key, default)

    def __contains__(self, key):
        self._ensure()
        return dict.__contains__(self, key)

    def __len__(self):
        self._ensure()
        return dict.__len__(self)

    def __iter__(self):
        self._ensure()
        return dict.__iter__(self)

    def keys(self):
        self._ensure()
        return dict.keys(self)

    def values(self):
        self._ensure()
        return dict.values(self)

    def items(self):
        self._ensure()
        return dict.items(self)

    def __eq__(self, other):
        self._ensure()
        return dict.__eq__(self, other)

    __hash__ = None  # type: ignore[assignment]  # dicts are unhashable

    def __repr__(self):
        if self._loader is not None:
            return "_LazyCodeDict(<unloaded>)"
        return dict.__repr__(self)


class LazyObjectColumn:
    """Disk-backed encoded object column (lazy-column protocol).

    ``materialize()`` applies the decode table to the full memmap code
    array once and caches the result (identity-stable: every caller
    sees the same ndarray); ``gather(rows)`` decodes only the gathered
    slice, so subset gathers over huge columns stay bounded by the
    subset size.
    """

    __slots__ = ("_codes", "_store", "_name", "_cached")

    dtype = np.dtype(object)

    def __init__(self, codes: np.ndarray, store: _DictStore, name: str):
        self._codes = codes
        self._store = store
        self._name = name
        self._cached: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._codes)

    @property
    def nbytes(self) -> int:
        # Pointer-array cost, matching the in-memory accounting: boxed
        # values live in the (shared) decode table.
        return len(self._codes) * 8

    def materialize(self) -> np.ndarray:
        if self._cached is None:
            decode = self._store.decode_array(self._name)
            if len(self._codes):
                self._cached = decode[np.asarray(self._codes)]
            else:
                self._cached = np.empty(0, dtype=object)
        return self._cached

    def gather(self, rows: np.ndarray) -> np.ndarray:
        if self._cached is not None:
            return self._cached[rows]
        codes = np.asarray(self._codes)[rows]
        return self._store.decode_array(self._name)[codes]


@dataclass
class ColumnStoreInfo:
    """Handle on an opened store, exposed as ``Database.column_store``.

    ``dicts_loaded`` counts tables whose value-dictionary pickle has
    been read so far — zero right after :func:`open_columnar`, growing
    only as gathers touch tables.
    """

    directory: Path
    stores: dict[str, _DictStore] = field(default_factory=dict)

    @property
    def dicts_loaded(self) -> int:
        return sum(1 for store in self.stores.values() if store.loaded)

    def loaded_tables(self) -> list[str]:
        return sorted(
            name for name, store in self.stores.items() if store.loaded
        )


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
    each TEXT column's decode table goes to the per-table dict pickle.
    Saving an already disk-backed database round-trips (lazy columns
    load what they must).
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
        dicts: dict[str, list[Any]] = {}
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
                    encoding = relation.encoding(col.name)
                    codes = np.ascontiguousarray(
                        encoding.codes, dtype=np.int32
                    )
                    offset, start = _write_aligned(handle, codes, offset)
                    decode: list[Any] = [None] * encoding.num_codes
                    for value, code in encoding.code_of.items():
                        decode[code] = value
                    dicts[col.name] = decode
                    meta.update(
                        kind=KIND_ENCODED,
                        dtype=codes.dtype.str,
                        offset=start,
                        nbytes=int(codes.nbytes),
                        none_code=encoding.none_code,
                    )
                columns_meta.append(meta)
        table_meta: dict[str, Any] = {
            "rows": relation.num_rows,
            "primary_key": list(relation.schema.primary_key),
            "columns": columns_meta,
        }
        if dicts:
            with open(directory / f"{table_name}.dicts.pkl", "wb") as handle:
                pickle.dump(dicts, handle, protocol=pickle.HIGHEST_PROTOCOL)
            table_meta["dicts_file"] = f"{table_name}.dicts.pkl"
        manifest["tables"][table_name] = table_meta
    # Manifest last: a torn save is unopenable rather than wrong.
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))


# ----------------------------------------------------------------------
# Open
# ----------------------------------------------------------------------
def _column_view(
    buf: np.ndarray | None, meta: dict[str, Any], data_file: str
) -> np.ndarray:
    """A zero-copy read-only dtype view into a table's mapped data file.

    Fails closed: the manifest's ``offset + nbytes`` must lie inside the
    file and the view must hold exactly the manifest's ``rows`` values,
    or this raises :class:`SchemaError` naming the file and the column —
    a truncated or mis-pointed file never opens as a shorter column.
    """
    dtype = np.dtype(meta["dtype"])
    start, nbytes, rows = (
        int(meta["offset"]), int(meta["nbytes"]), int(meta["rows"])
    )
    size = 0 if buf is None else len(buf)
    where = f"{data_file} column {meta['name']!r}"
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


def open_columnar(directory: str | Path) -> Database:
    """Open a database saved by :func:`save_columnar`.

    Cost is O(manifest + dicts touched): data files are memory-mapped,
    not read, and value dictionaries unpickle on first gather.  Primary
    keys were validated at ingest and are not re-checked here.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise SchemaError(f"no column store at {directory} (missing manifest)")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported column-store format {manifest.get('format')!r}"
        )
    db = Database(name=manifest.get("name", directory.name))
    info = ColumnStoreInfo(directory=directory)
    for table_name, table_meta in manifest["tables"].items():
        data_path = directory / f"{table_name}.bin"
        buf: np.ndarray | None = None
        if data_path.exists() and data_path.stat().st_size:
            buf = np.memmap(data_path, dtype=np.uint8, mode="r")
        store = _DictStore(
            directory / table_meta.get("dicts_file", ""), table_name
        )
        if table_meta.get("dicts_file"):
            info.stores[table_name] = store
        columns: dict[str, Any] = {}
        encodings: dict[str, ColumnEncoding | None] = {}
        schema_columns: list[Column] = []
        for meta in table_meta["columns"]:
            cname = meta["name"]
            schema_columns.append(Column(cname, ColumnType(meta["type"])))
            kind = meta["kind"]
            if kind == KIND_NUMERIC:
                columns[cname] = _column_view(buf, meta, data_path.name)
            elif kind == KIND_ENCODED:
                codes = _column_view(buf, meta, data_path.name)
                columns[cname] = LazyObjectColumn(codes, store, cname)
                loader = _decode_loader(store, cname)
                encodings[cname] = ColumnEncoding(
                    codes=codes,
                    code_of=_LazyCodeDict(loader),
                    none_code=meta.get("none_code"),
                )
            else:
                raise SchemaError(f"unknown column kind {kind!r}")
        schema = TableSchema(
            name=table_name,
            columns=schema_columns,
            primary_key=tuple(table_meta.get("primary_key", [])),
        )
        relation = Relation(schema, columns)
        relation._encodings.update(encodings)
        db.add_relation(relation)
    for fk in manifest.get("foreign_keys", []):
        db.add_foreign_key(
            fk["table"], fk["columns"], fk["ref_table"], fk["ref_columns"]
        )
    db.column_store = info
    return db


def _decode_loader(store: _DictStore, column: str) -> Callable[[], list[Any]]:
    return lambda: store.values(column)
