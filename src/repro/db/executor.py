"""Query evaluation: scan → filter → hash join → group-aggregate.

The executor materializes the *working table* of a single-block query (the
pre-aggregation join of its FROM tables, filtered by WHERE, with columns
qualified as ``alias.attr``) and then aggregates it.  The working table is
exactly the paper's provenance table PT(Q, D) for why-provenance, which is
why :mod:`repro.db.provenance` reuses it.

Join planning is a greedy left-deep pipeline: single-table predicates are
pushed down, equi-join conjuncts drive hash joins, the smallest filtered
table starts the pipeline, and any residual (non-equi or multi-table)
predicates are applied on the joined result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .database import Database
from .errors import ExecutionError
from .expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    Predicate,
    conjunction,
)
from .query import AggregateCall, Query, SelectItem, contains_aggregate
from .relation import Relation
from .schema import Column, TableSchema
from .types import ColumnType


# ----------------------------------------------------------------------
# Hash join
# ----------------------------------------------------------------------
def join_row_indices(
    left_arrays: list[np.ndarray],
    right_arrays: list[np.ndarray],
    left_n: int,
    right_n: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-index pairs of an equi-join.

    ``left_arrays``/``right_arrays`` are the gathered key columns of the
    two sides; the result ``(left_idx, right_idx)`` lists matching row
    pairs.  This is the join core behind
    :meth:`repro.db.frame.IndexFrame.join`: the hash table is built on
    the smaller side, keys encode to dense integer codes, and a stable
    sort keeps equal-key build rows in insertion order.  NULL keys never
    match (SQL semantics).
    """
    swap = right_n < left_n
    if swap:
        build_arrays, probe_arrays = right_arrays, left_arrays
        probe_n = left_n
    else:
        build_arrays, probe_arrays = left_arrays, right_arrays
        probe_n = right_n

    build_codes, probe_codes, build_valid, probe_valid = _encode_join_keys(
        build_arrays, probe_arrays
    )

    # Group build rows by key code: a stable sort keeps rows of equal
    # keys in build order, matching the insertion order of the classic
    # dict-of-lists build phase.
    build_rows = np.nonzero(build_valid)[0]
    order = build_rows[np.argsort(build_codes[build_rows], kind="stable")]
    sorted_codes = build_codes[order]

    lo = np.searchsorted(sorted_codes, probe_codes, side="left")
    hi = np.searchsorted(sorted_codes, probe_codes, side="right")
    counts = np.where(probe_valid, hi - lo, 0)

    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(probe_n, dtype=np.int64), counts)
    starts = np.repeat(lo, counts)
    segment_starts = np.repeat(np.cumsum(counts) - counts, counts)
    offsets = np.arange(total, dtype=np.int64) - segment_starts
    build_idx = (
        order[starts + offsets] if total else np.empty(0, dtype=np.int64)
    )
    return (probe_idx, build_idx) if swap else (build_idx, probe_idx)


def _encode_join_keys(
    build_arrays: list[np.ndarray],
    probe_arrays: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encode multi-column join keys as dense int64 codes.

    Build and probe columns are factorized jointly so equal values get
    equal codes on both sides; multi-column keys combine per-column codes
    mixed-radix with re-compression between columns to avoid overflow.
    Returns ``(build_codes, probe_codes, build_valid, probe_valid)``
    where the valid masks are False on NULL keys (which never match).
    """
    n_build = len(build_arrays[0]) if build_arrays else 0
    combined: np.ndarray | None = None
    valid: np.ndarray | None = None
    for position, (barr, parr) in enumerate(zip(build_arrays, probe_arrays)):
        codes, col_valid = _encode_key_column(barr, parr)
        if combined is None:
            combined, valid = codes, col_valid
        else:
            assert valid is not None
            # Mixed-radix combine, then re-compress to [0, n) so chained
            # combines cannot overflow int64.
            radix = int(codes.max()) + 2 if len(codes) else 1
            combined = combined * radix + codes
            valid &= col_valid
            if position < len(build_arrays) - 1:
                _, combined = np.unique(combined, return_inverse=True)
    assert combined is not None and valid is not None
    return combined[:n_build], combined[n_build:], valid[:n_build], valid[n_build:]


def _encode_key_column(
    build_arr: np.ndarray, probe_arr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Factorize one build/probe column pair into shared int64 codes."""
    if build_arr.dtype == object or probe_arr.dtype == object:
        return _encode_object_pair(build_arr, probe_arr)
    if build_arr.dtype == probe_arr.dtype:
        merged = np.concatenate([build_arr, probe_arr])
    else:
        # Mixed numeric dtypes (e.g. int64 vs NULL-promoted float64)
        # compare under float semantics — exact for every int below
        # 2^53.  Larger integers would collide when cast, so fall back
        # to the exact-value object path for them.
        if _unsafe_float_cast(build_arr) or _unsafe_float_cast(probe_arr):
            return _encode_object_pair(build_arr, probe_arr)
        merged = np.concatenate(
            [build_arr.astype(np.float64), probe_arr.astype(np.float64)]
        )
    if merged.dtype.kind == "f":
        valid = ~np.isnan(merged)
    else:
        valid = np.ones(len(merged), dtype=bool)
    _, codes = np.unique(merged, return_inverse=True)
    return codes.astype(np.int64, copy=False), valid


def _unsafe_float_cast(arr: np.ndarray) -> bool:
    """True when casting an integer array to float64 could lose bits."""
    if arr.dtype.kind not in "iu" or len(arr) == 0:
        return False
    return int(np.abs(arr).max()) > 2**53


def _encode_object_pair(
    build_arr: np.ndarray, probe_arr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dict-based factorization under exact Python value equality.

    ``astype(object)`` boxes numeric values as native Python ints and
    floats, whose cross-type ``==``/``hash`` compare exact mathematical
    values — the semantics the replaced per-row tuple join had.
    """
    merged = np.concatenate(
        [build_arr.astype(object, copy=False),
         probe_arr.astype(object, copy=False)]
    )
    codes = np.empty(len(merged), dtype=np.int64)
    valid = np.ones(len(merged), dtype=bool)
    mapping: dict[Any, int] = {}
    for i, value in enumerate(merged):
        if _is_null_key(value):
            valid[i] = False
            codes[i] = -1
            continue
        code = mapping.get(value)
        if code is None:
            code = len(mapping)
            mapping[value] = code
        codes[i] = code
    return codes, valid


def _is_null_key(value: Any) -> bool:
    if value is None:
        return True
    if isinstance(value, (float, np.floating)):
        return math.isnan(value)
    return False


# ----------------------------------------------------------------------
# Predicate classification for join planning
# ----------------------------------------------------------------------
@dataclass
class _PlannedPredicates:
    per_alias: dict[str, list[Predicate]]
    joins: list[tuple[str, str, str, str]]  # alias_a, col_a, alias_b, col_b
    residual: list[Predicate]


def _flatten_conjuncts(predicate: Predicate | None) -> list[Predicate]:
    if predicate is None:
        return []
    if isinstance(predicate, And):
        parts: list[Predicate] = []
        for part in predicate.parts:
            parts.extend(_flatten_conjuncts(part))
        return parts
    return [predicate]


def _alias_of_column(name: str, query: Query, db: Database) -> str | None:
    """Determine which FROM alias a column reference belongs to."""
    if "." in name:
        qualifier = name.split(".")[0]
        for ref in query.tables:
            if ref.alias == qualifier:
                return qualifier
        # Qualifier may be the table name rather than the alias.
        for ref in query.tables:
            if ref.table == qualifier:
                return ref.alias
        return None
    hits = []
    for ref in query.tables:
        schema = db.table(ref.table).schema
        if schema.has_column(name):
            hits.append(ref.alias)
    if len(hits) == 1:
        return hits[0]
    if len(hits) > 1:
        raise ExecutionError(
            f"ambiguous column {name!r}: present in aliases {hits}"
        )
    return None


def _classify_predicates(query: Query, db: Database) -> _PlannedPredicates:
    per_alias: dict[str, list[Predicate]] = {t.alias: [] for t in query.tables}
    joins: list[tuple[str, str, str, str]] = []
    residual: list[Predicate] = []
    for conjunct in _flatten_conjuncts(query.where):
        aliases = set()
        unresolved = False
        for col in conjunct.referenced_columns():
            alias = _alias_of_column(col, query, db)
            if alias is None:
                unresolved = True
                break
            aliases.add(alias)
        if unresolved:
            residual.append(conjunct)
            continue
        if len(aliases) == 1:
            per_alias[next(iter(aliases))].append(conjunct)
        elif (
            len(aliases) == 2
            and isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            left_alias = _alias_of_column(conjunct.left.name, query, db)
            right_alias = _alias_of_column(conjunct.right.name, query, db)
            assert left_alias is not None and right_alias is not None
            joins.append(
                (
                    left_alias,
                    conjunct.left.name.split(".")[-1],
                    right_alias,
                    conjunct.right.name.split(".")[-1],
                )
            )
        else:
            residual.append(conjunct)
    return _PlannedPredicates(per_alias=per_alias, joins=joins, residual=residual)


# ----------------------------------------------------------------------
# Working table (pre-aggregation join)
# ----------------------------------------------------------------------
def working_table(query: Query, db: Database) -> Relation:
    """Materialize the filtered join of the query's FROM tables.

    Columns are qualified as ``alias.attr``.  This relation *is* the
    why-provenance table PT(Q, D) of the query.

    The join pipeline runs on :class:`~repro.db.frame.IndexFrame` index
    vectors — per-alias selections become row-index arrays, each join
    gathers only its key columns, and the full column gather happens
    once at the end.
    """
    from .frame import IndexFrame

    planned = _classify_predicates(query, db)

    filtered: dict[str, IndexFrame] = {}
    sizes: dict[str, int] = {}
    for ref in query.tables:
        rel = db.table(ref.table)
        prefixed = rel.prefix_columns(f"{ref.alias}.")
        preds = planned.per_alias.get(ref.alias, [])
        frame = IndexFrame.from_relation(prefixed)
        if preds:
            frame = frame.filter_mask(conjunction(preds).mask(prefixed))
        filtered[ref.alias] = frame
        sizes[ref.alias] = frame.num_rows

    remaining = set(filtered)
    start = min(remaining, key=lambda a: sizes[a])
    current = filtered[start]
    joined = {start}
    remaining.discard(start)

    pending_joins = list(planned.joins)
    while remaining:
        progress = False
        for alias in sorted(remaining, key=lambda a: sizes[a]):
            conditions = []
            for la, lc, ra, rc in pending_joins:
                if la in joined and ra == alias:
                    conditions.append((f"{la}.{lc}", f"{alias}.{rc}"))
                elif ra in joined and la == alias:
                    conditions.append((f"{ra}.{rc}", f"{alias}.{lc}"))
            if conditions:
                current = current.join(filtered[alias], conditions)
                pending_joins = [
                    j
                    for j in pending_joins
                    if not (
                        (j[0] in joined and j[2] == alias)
                        or (j[2] in joined and j[0] == alias)
                    )
                ]
                joined.add(alias)
                remaining.discard(alias)
                progress = True
                break
        if not progress:
            # No join condition connects: fall back to a cross product
            # with the smallest remaining table.
            alias = min(remaining, key=lambda a: sizes[a])
            current = current.cross(filtered[alias])
            joined.add(alias)
            remaining.discard(alias)

    # Joins between two already-joined aliases (cycles) and residual
    # predicates become post-join filters.
    post: list[Predicate] = []
    for la, lc, ra, rc in pending_joins:
        post.append(
            Comparison("=", ColumnRef(f"{la}.{lc}"), ColumnRef(f"{ra}.{rc}"))
        )
    post.extend(planned.residual)
    if post:
        current = current.filter_mask(conjunction(post).mask(current))
    return current.to_relation().rename("working")


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def group_indices(
    relation: Relation, group_columns: list[str]
) -> dict[tuple[Any, ...], np.ndarray]:
    """Partition row indices by the values of ``group_columns``.

    Grouping runs on the relation's dictionary/factorized codes (one
    ``np.unique`` over an int64 code matrix) rather than a per-row
    Python tuple loop; groups keep first-occurrence order and the
    historical tuple-equality semantics (``Relation._row_codes``).
    """
    if not group_columns:
        return {(): np.arange(relation.num_rows)}
    if relation.num_rows == 0:
        return {}
    codes = relation._row_codes(group_columns)
    _, first_idx, inverse = np.unique(
        codes, axis=0, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    # Rank unique keys by first occurrence so the dict iterates in the
    # order the setdefault loop produced.
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    row_order = np.argsort(rank[inverse], kind="stable")
    boundaries = np.nonzero(np.diff(rank[inverse][row_order]))[0] + 1
    buckets = np.split(row_order, boundaries)
    # Each key is its first row, gathered (TEXT decodes only those rows).
    firsts = first_idx[order]
    keys = zip(*(relation.gather_column(c, firsts) for c in group_columns))
    return dict(zip(keys, buckets))


def _vectorized_select_column(
    expression: Expression,
    relation: Relation,
    group_list: list[np.ndarray],
) -> list[Any]:
    """Evaluate a SELECT expression for every group at once.

    An aggregate reduces each group's rows, a column reference takes the
    group's first row, a literal repeats, and arithmetic combines the
    per-group scalars (NULL operands and division by zero give NULL).
    """
    if isinstance(expression, AggregateCall):
        return _vectorized_aggregate(expression, relation, group_list)
    if isinstance(expression, Literal):
        return [expression.value] * len(group_list)
    if isinstance(expression, ColumnRef):
        if not group_list:
            return []
        values = expression.values(relation)
        firsts = np.fromiter(
            (indices[0] for indices in group_list),
            dtype=np.int64,
            count=len(group_list),
        )
        return list(values[firsts])
    if isinstance(expression, Arithmetic):
        left = _vectorized_select_column(expression.left, relation, group_list)
        right = _vectorized_select_column(
            expression.right, relation, group_list
        )
        ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
               "*": lambda a, b: a * b, "/": lambda a, b: a / b}
        op = ops[expression.op]
        combined: list[Any] = []
        for a, b in zip(left, right):
            if a is None or b is None:
                combined.append(None)
                continue
            try:
                combined.append(op(a, b))
            except ZeroDivisionError:
                combined.append(None)
        return combined
    raise ExecutionError(f"cannot evaluate SELECT expression {expression}")


def _vectorized_aggregate(
    call: AggregateCall,
    relation: Relation,
    group_list: list[np.ndarray],
) -> list[Any]:
    """One aggregate for all groups: column pass + bincount reductions.

    The argument expression evaluates once over the whole working table,
    rows concatenate in group-major order, and groups with equal valid
    counts reduce as the rows of one ``(k, L)`` matrix: each matrix row
    holds exactly one group's non-NaN values in row order, and numpy's
    row-wise ``sum``/``mean``/``min``/``max`` reduce a contiguous row
    exactly like the 1-D call (same pairwise blocking).  A group with no
    valid value aggregates to NULL.  A TEXT (object) argument counts its
    non-NULL cells, and MIN/MAX reduce the ranks of its sorted distinct
    non-NULL values; SUM/AVG of a TEXT value is an error.
    """
    if call.func == "count" and call.argument is None:
        return [int(len(indices)) for indices in group_list]
    assert call.argument is not None
    values = call.argument.values(relation)
    n_groups = len(group_list)
    if n_groups == 0:
        return []
    order = np.concatenate(group_list)
    lengths = np.fromiter(
        (len(indices) for indices in group_list),
        dtype=np.int64,
        count=n_groups,
    )
    gid = np.repeat(np.arange(n_groups), lengths)
    if values.dtype == object:
        return _text_aggregate(call.func, values[order], gid, n_groups)
    numeric = values.astype(np.float64, copy=False)[order]
    nan_mask = np.isnan(numeric)
    counts = np.bincount(gid[~nan_mask], minlength=n_groups)
    if call.func == "count":
        return [int(c) for c in counts]
    out: list[Any] = [None] * n_groups  # all-NaN groups aggregate to None
    valid = numeric[~nan_mask]  # group-major, within-group row order
    starts = np.zeros(n_groups, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    for length in np.unique(counts):
        width = int(length)
        if width == 0:
            continue
        g_ids = np.nonzero(counts == length)[0]
        mat = valid[starts[g_ids][:, None] + np.arange(width)]
        if call.func == "sum":
            reduced = mat.sum(axis=1)
        elif call.func == "avg":
            reduced = mat.mean(axis=1)
        elif call.func == "min":
            reduced = mat.min(axis=1)
        else:
            reduced = mat.max(axis=1)
        for g, value in zip(g_ids.tolist(), reduced.tolist()):
            out[g] = value
    return out


def _text_aggregate(
    func: str, values: np.ndarray, gid: np.ndarray, n_groups: int
) -> list[Any]:
    """COUNT/MIN/MAX of group-major ``str | None`` cells (group ``gid``)."""
    present = np.not_equal(values, None)
    counts = np.bincount(gid[present], minlength=n_groups)
    if func == "count":
        return counts.tolist()
    if func not in ("min", "max"):
        if present.any():
            raise ExecutionError(
                f"{func.upper()} is not defined on categorical values"
            )
        return [None] * n_groups
    distinct, rank = np.unique(values[present], return_inverse=True)
    reduce_at = np.minimum.at if func == "min" else np.maximum.at
    best = np.full(n_groups, len(distinct) if func == "min" else -1)
    reduce_at(best, gid[present], rank)
    return [
        distinct[r] if c else None
        for r, c in zip(best.tolist(), counts.tolist())
    ]


def group_columns_in_working(query: Query, work: Relation) -> list[str]:
    """Resolve the query's GROUP BY references to working-table columns."""
    from .expressions import resolve_column

    return [resolve_column(work, ref.name) for ref in query.group_by]


def aggregate(
    query: Query, work: Relation, groups: dict[tuple[Any, ...], np.ndarray]
) -> Relation:
    """Apply aggregate evaluation to a working table partitioned into
    ``groups`` (:func:`group_indices` over the query's GROUP BY columns).

    Each SELECT item is evaluated for all groups at once
    (:func:`_vectorized_select_column`); ``tests/oracles/eager.py``'s
    ``aggregate_by_definition`` is the per-group definition the tests
    hold it to.
    """
    group_list = list(groups.values())
    out_columns = [
        _vectorized_select_column(item.expression, work, group_list)
        for item in query.select
    ]
    rows: list[list[Any]] = [
        [col[g] for col in out_columns] for g in range(len(group_list))
    ]

    columns: list[Column] = []
    for pos, item in enumerate(query.select):
        sample = [row[pos] for row in rows]
        columns.append(Column(item.alias, _result_type(sample)))
    schema = TableSchema(name="result", columns=columns)
    result = Relation.from_rows(schema, rows)
    if query.group_by:
        return result.sort_by([c.name for c in columns if _sortable(result, c)])
    return result


def _sortable(relation: Relation, column: Column) -> bool:
    return not any(v is None for v in relation.column(column.name))


def _result_type(values: list[Any]) -> ColumnType:
    from .types import infer_column_type

    return infer_column_type(values)


def execute(query: Query, db: Database) -> Relation:
    """Evaluate a single-block SPJA query and return its result relation."""
    work = working_table(query, db)
    if query.group_by or any(
        contains_aggregate(i.expression) for i in query.select
    ):
        groups = group_indices(work, group_columns_in_working(query, work))
        return aggregate(query, work, groups)
    # Pure SPJ query: project the SELECT expressions row-wise.
    columns: dict[str, np.ndarray] = {}
    schema_cols: list[Column] = []
    for item in query.select:
        values = item.expression.values(work)
        columns[item.alias] = values
        ctype = (
            ColumnType.TEXT
            if values.dtype == object
            else (ColumnType.INT if values.dtype.kind == "i" else ColumnType.FLOAT)
        )
        schema_cols.append(Column(item.alias, ctype))
    return Relation(TableSchema(name="result", columns=schema_cols), columns)
