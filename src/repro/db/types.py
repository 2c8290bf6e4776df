"""Value types for the in-memory relational engine.

The engine distinguishes three logical column types which is exactly the
granularity CaJaDE needs (Definition 5 treats attributes as either
*categorical* or *numeric/ordinal*):

- ``INT`` and ``FLOAT`` are numeric — patterns may use ``<=``, ``>=``, ``=``.
- ``TEXT`` is categorical — patterns may only use ``=``.

NULLs are represented by ``None`` in object columns and ``numpy.nan`` in
float columns.  Integer columns with NULLs are promoted to float storage,
mirroring what a pragmatic columnar store does.
"""

from __future__ import annotations

import enum
import math
from typing import Any

import numpy as np


class ColumnType(enum.Enum):
    """Logical type of a relation column."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"

    @property
    def is_numeric(self) -> bool:
        """Whether pattern predicates on this type may use inequalities."""
        return self in (ColumnType.INT, ColumnType.FLOAT)

    @property
    def is_categorical(self) -> bool:
        """Whether pattern predicates on this type are equality-only."""
        return self is ColumnType.TEXT

    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used for columnar storage of this type."""
        if self is ColumnType.INT:
            return np.dtype(np.int64)
        if self is ColumnType.FLOAT:
            return np.dtype(np.float64)
        return np.dtype(object)


def infer_column_type(values: list[Any]) -> ColumnType:
    """Infer a :class:`ColumnType` from a list of Python values.

    ``None`` values are ignored for inference.  Booleans are treated as
    integers.  A mix of ints and floats infers FLOAT; any string forces TEXT.
    An all-NULL column defaults to TEXT.
    """
    saw_int = saw_float = False
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            saw_int = True
        elif isinstance(value, (int, np.integer)):
            saw_int = True
        elif isinstance(value, (float, np.floating)):
            if isinstance(value, float) and math.isnan(value):
                continue
            saw_float = True
        else:
            return ColumnType.TEXT
    if saw_float:
        return ColumnType.FLOAT
    if saw_int:
        return ColumnType.INT
    return ColumnType.TEXT


def is_null(value: Any) -> bool:
    """SQL-style NULL test covering both ``None`` and NaN."""
    if value is None:
        return True
    if isinstance(value, (float, np.floating)):
        return math.isnan(value)
    return False


def coerce_value(value: Any, ctype: ColumnType) -> Any:
    """Coerce a raw Python value to the canonical form for ``ctype``.

    Raises ``ValueError`` when the value cannot represent the type, which
    surfaces bad CSV rows early instead of corrupting a column.
    """
    if is_null(value):
        return None
    if ctype is ColumnType.INT:
        return int(value)
    if ctype is ColumnType.FLOAT:
        return float(value)
    return str(value)


def is_null_literal(text: str) -> bool:
    """Whether a CSV/SQL literal is NULL: blank, or ``NULL`` in any case."""
    stripped = text.strip()
    return stripped == "" or stripped.upper() == "NULL"


def parse_literal(text: str) -> Any:
    """Parse a CSV/SQL literal into ``int``, ``float`` or ``str``.

    Empty strings and the token ``NULL`` map to ``None``.
    """
    if is_null_literal(text):
        return None
    stripped = text.strip()
    try:
        return int(stripped)
    except ValueError:
        pass
    try:
        return float(stripped)
    except ValueError:
        pass
    return stripped
