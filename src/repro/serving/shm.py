"""Shared-memory publication of encoded relations for worker processes.

The serving layer's worker pool must read the same database from many
processes.  Copying it into each worker (pickling through the spawn
machinery) would multiply resident memory by the pool size and slow
cold start; instead the front-end process **exports** every relation's
big arrays into POSIX shared memory once (`multiprocessing
.shared_memory`), and each worker **attaches** zero-copy views:

- numeric columns (``int64``/``float64``) map straight onto the shared
  segment;
- object (TEXT) columns ship as their table-level
  :class:`~repro.db.relation.ColumnEncoding` — the int32 first-occurrence
  *code array* lives in shared memory, only the small code → value
  decode table travels by pickle.  The attached relation rebuilds its
  object column by one pointer gather (``decode[codes]``) and installs a
  :class:`ColumnEncoding` whose ``codes`` **are** the shared segment, so
  the late-materialized kernel path (which consumes codes, not values)
  gathers without copying.

Ownership is asymmetric, mirroring the pool's lifecycle: the exporting
process owns every segment and unlinks them all on
:meth:`RelationExport.close` / :meth:`DatabaseExport.close` (worker
death never leaks segments — the parent still holds them).  Attachments
are **refcounted per process**: attaching the same segment twice maps it
once, and the mapping is closed when the last attachment releases it.
Attached segments are explicitly *unregistered* from Python's
``resource_tracker``, which (on 3.11/3.12) would otherwise unlink a
still-shared segment when any attaching process exits — exactly the
worker-death case the parent-side ownership protects against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from ..db.database import Database
from ..db.relation import ColumnEncoding, Relation
from ..db.schema import ForeignKey, TableSchema

# ---------------------------------------------------------------------------
# Per-process refcounted attachment registry
# ---------------------------------------------------------------------------

_registry_lock = threading.Lock()
# shm name -> [SharedMemory, refcount]
_attached: dict[str, list[Any]] = {}
# Names this process exported (owns).  An attach of a locally-exported
# segment must NOT unregister it from the resource tracker: register
# is set-semantics per name, so the attach's redundant register was a
# no-op and an unregister would strip the exporter's own registration.
_exported_names: set[str] = set()


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Remove an *attached* segment from the resource tracker.

    ``SharedMemory.__init__`` registers the segment with the tracker
    even when merely attaching; a tracked attachment is unlinked when
    the attaching process's tracker shuts down, destroying a segment
    the exporter (and its other workers) still use.  The exporter
    remains registered and keeps sole unlink responsibility.

    Only applies when this process runs its *own* tracker.  Children
    spawned by the exporter inherit the exporter's tracker fd, so the
    whole tree shares one name-keyed cache: there the attach-time
    register was a duplicate no-op, and an unregister would strip the
    exporter's own registration (losing crash-leak protection and
    making the exporter's eventual unlink double-unregister).
    """
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is None:
        return  # inherited (shared) tracker — registration isn't ours
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Map the named segment, refcounted within this process."""
    with _registry_lock:
        entry = _attached.get(name)
        if entry is not None:
            entry[1] += 1
            return entry[0]
        shm = shared_memory.SharedMemory(name=name)
        if name not in _exported_names:
            _untrack(shm)
        _attached[name] = [shm, 1]
        return shm


def release_segment(name: str) -> None:
    """Drop one reference; the mapping closes when the last one goes."""
    with _registry_lock:
        entry = _attached.get(name)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] <= 0:
            del _attached[name]
            entry[0].close()


def attached_segment_count() -> int:
    """How many distinct segments this process currently maps."""
    with _registry_lock:
        return len(_attached)


# ---------------------------------------------------------------------------
# Handles (small, picklable descriptions of what lives where)
# ---------------------------------------------------------------------------

NUMERIC = "numeric"
ENCODED = "encoded"


@dataclass
class ColumnSpec:
    """Where one column's data lives and how to rebuild it."""

    name: str
    kind: str  # NUMERIC | ENCODED
    shm_name: str = ""
    dtype: str = ""
    length: int = 0
    # ENCODED: the code -> value decode table.
    values: list[Any] = field(default_factory=list)


@dataclass
class RelationHandle:
    """A picklable recipe for attaching one exported relation."""

    schema: TableSchema
    num_rows: int
    columns: list[ColumnSpec]

    @property
    def segment_names(self) -> list[str]:
        return [c.shm_name for c in self.columns if c.shm_name]


@dataclass
class DatabaseHandle:
    """A picklable recipe for attaching one exported database."""

    name: str
    relations: list[RelationHandle]
    foreign_keys: list[ForeignKey]

    @property
    def segment_names(self) -> list[str]:
        return [n for rel in self.relations for n in rel.segment_names]


# ---------------------------------------------------------------------------
# Export (owning side)
# ---------------------------------------------------------------------------


def _new_segment(arr: np.ndarray) -> shared_memory.SharedMemory:
    from ..db.colstore import copy_chunked

    shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
    if arr.nbytes:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        # Chunked fill: exporting a memmap-backed column streams pages
        # into the segment instead of materializing the whole array.
        copy_chunked(view, arr)
    with _registry_lock:
        _exported_names.add(shm.name)
    return shm


def _decode_table(encoding: ColumnEncoding) -> list[Any]:
    """``values[code] = value`` — the inverse of ``code_of``."""
    values: list[Any] = [None] * encoding.num_codes
    for value, code in encoding.code_of.items():
        values[code] = value
    return values


class RelationExport:
    """One exported relation: its handle plus the owned segments."""

    def __init__(self, relation: Relation):
        self._segments: list[shared_memory.SharedMemory] = []
        specs: list[ColumnSpec] = []
        try:
            for column in relation.schema.columns:
                # Dtype dispatch before any value materialization: a
                # disk-backed relation exports numeric arrays and code
                # arrays straight from its memmaps.
                if relation.column_dtype(column.name) != object:
                    arr = relation.column(column.name)
                    shm = _new_segment(arr)
                    self._segments.append(shm)
                    specs.append(
                        ColumnSpec(
                            name=column.name,
                            kind=NUMERIC,
                            shm_name=shm.name,
                            dtype=arr.dtype.str,
                            length=len(arr),
                        )
                    )
                    continue
                encoding = relation.encoding(column.name)
                shm = _new_segment(encoding.codes)
                self._segments.append(shm)
                specs.append(
                    ColumnSpec(
                        name=column.name,
                        kind=ENCODED,
                        shm_name=shm.name,
                        dtype=encoding.codes.dtype.str,
                        length=len(encoding.codes),
                        values=_decode_table(encoding),
                    )
                )
        except Exception:
            self.close()
            raise
        self.handle = RelationHandle(
            schema=relation.schema,
            num_rows=relation.num_rows,
            columns=specs,
        )
        self._closed = False

    @property
    def shared_bytes(self) -> int:
        return sum(shm.size for shm in self._segments)

    @property
    def closed(self) -> bool:
        """True once the segments are unlinked; attaches must stop."""
        return self._closed

    def close(self) -> None:
        """Unmap and unlink every owned segment (idempotent)."""
        for shm in self._segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover
                pass
            try:
                # unlink() sends one unregister; re-register first so
                # the tracker's set-semantics cache is balanced even if
                # an attacher elsewhere in the tree already consumed
                # our registration.
                resource_tracker.register(shm._name, "shared_memory")
                shm.unlink()
            except FileNotFoundError:
                pass
            with _registry_lock:
                _exported_names.discard(shm.name)
        self._segments = []
        self._closed = True


class DatabaseExport:
    """A whole database exported table by table; owns all segments."""

    def __init__(self, db: Database):
        self._exports: list[RelationExport] = []
        self._closed = False
        try:
            relations = [
                RelationExport(db.table(name)) for name in db.table_names
            ]
        except Exception:
            self.close()
            raise
        self._exports = relations
        self.handle = DatabaseHandle(
            name=db.name,
            relations=[e.handle for e in self._exports],
            foreign_keys=db.foreign_keys,
        )

    @property
    def shared_bytes(self) -> int:
        return sum(e.shared_bytes for e in self._exports)

    @property
    def closed(self) -> bool:
        """True once the segments are unlinked; spawns must stop."""
        return self._closed

    def close(self) -> None:
        for export in self._exports:
            export.close()
        self._closed = True

    def __enter__(self) -> "DatabaseExport":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def export_relation(relation: Relation) -> RelationExport:
    """Publish one relation's arrays into shared memory."""
    return RelationExport(relation)


def export_database(db: Database) -> DatabaseExport:
    """Publish every relation of ``db`` into shared memory."""
    return DatabaseExport(db)


# ---------------------------------------------------------------------------
# Attach (borrowing side)
# ---------------------------------------------------------------------------


def _shared_array(spec: ColumnSpec) -> np.ndarray:
    """A read-only array view over the named shared segment."""
    shm = attach_segment(spec.shm_name)
    arr: np.ndarray = np.ndarray(
        (spec.length,), dtype=np.dtype(spec.dtype), buffer=shm.buf
    )
    arr.flags.writeable = False
    return arr


class AttachedRelation:
    """A relation whose big arrays are views into shared memory.

    Numeric columns and every :class:`ColumnEncoding` code array alias
    the exporter's segments (zero copy); object columns are one pointer
    gather over the shared codes.  Hold this object (or keep its
    ``relation`` reachable from one) for as long as the relation is in
    use, and :meth:`close` when done so the segment refcounts drop.
    """

    def __init__(self, handle: RelationHandle):
        self._segment_names = list(handle.segment_names)
        columns: dict[str, np.ndarray] = {}
        encodings: dict[str, ColumnEncoding | None] = {}
        try:
            for spec in handle.columns:
                if spec.kind == NUMERIC:
                    columns[spec.name] = _shared_array(spec)
                elif spec.kind == ENCODED:
                    codes = _shared_array(spec)
                    decode = np.empty(len(spec.values), dtype=object)
                    if spec.values:
                        decode[:] = spec.values
                        values = decode[codes]
                    else:
                        values = np.empty(0, dtype=object)
                    columns[spec.name] = values
                    code_of = {v: i for i, v in enumerate(spec.values)}
                    encodings[spec.name] = ColumnEncoding(
                        codes=codes,
                        code_of=code_of,
                        none_code=code_of.get(None),
                    )
                else:  # pragma: no cover - handle corruption
                    raise ValueError(f"unknown column kind {spec.kind!r}")
        except Exception:
            self.close()
            raise
        relation = Relation(handle.schema, columns)
        relation._encodings.update(encodings)
        self.relation = relation
        self._closed = False

    def close(self) -> None:
        for name in self._segment_names:
            release_segment(name)
        self._segment_names = []
        self._closed = True


class AttachedDatabase:
    """A database rebuilt from shared memory; ``close`` releases it."""

    def __init__(self, handle: DatabaseHandle):
        self._attachments: list[AttachedRelation] = []
        db = Database(name=handle.name)
        try:
            for rel_handle in handle.relations:
                attached = AttachedRelation(rel_handle)
                self._attachments.append(attached)
                db.add_relation(attached.relation)
            for fk in handle.foreign_keys:
                db.add_foreign_key(
                    fk.table, fk.columns, fk.ref_table, fk.ref_columns
                )
        except Exception:
            self.close()
            raise
        self.database = db

    def close(self) -> None:
        for attached in self._attachments:
            attached.close()
        self._attachments = []

    def __enter__(self) -> "AttachedDatabase":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def attach_relation(handle: RelationHandle) -> AttachedRelation:
    """Rebuild a relation from an export handle (zero-copy arrays)."""
    return AttachedRelation(handle)


def attach_database(handle: DatabaseHandle) -> AttachedDatabase:
    """Rebuild a database from an export handle (zero-copy arrays)."""
    return AttachedDatabase(handle)
