"""Table schemas, key constraints and the foreign-key registry.

A :class:`TableSchema` is the static description of a relation: ordered,
typed columns plus an optional primary key.  :class:`ForeignKey` links a
list of referencing columns to a referenced table's columns; the CaJaDE
schema graph is seeded from these (paper §2.2: "our system can extract join
conditions from the foreign key constraints").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SchemaError
from .types import ColumnType


def is_path_component(name: str) -> bool:
    """Whether a table name is one path component, so the files named
    after it (``<name>.csv``, ``<name>.bin``) stay in their directory."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


@dataclass(frozen=True)
class Column:
    """A single typed column of a relation."""

    name: str
    ctype: ColumnType

    def __post_init__(self) -> None:
        # Dots are allowed so joined/augmented relations can carry
        # alias-qualified column names like ``game.winner_id``.
        cleaned = self.name.replace("_", "").replace(".", "")
        if not self.name or not cleaned.isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint: ``table.columns -> ref_table.ref_columns``."""

    table: str
    columns: tuple[str, ...]
    ref_table: str
    ref_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.ref_columns):
            raise SchemaError(
                f"foreign key column count mismatch: {self.columns} vs "
                f"{self.ref_columns}"
            )
        if not self.columns:
            raise SchemaError("foreign key must reference at least one column")


@dataclass
class TableSchema:
    """Ordered, typed columns of a relation plus its primary key."""

    name: str
    columns: list[Column] = field(default_factory=list)
    primary_key: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        seen: set[str] = set()
        for col in self.columns:
            if col.name in seen:
                raise SchemaError(
                    f"duplicate column {col.name!r} in table {self.name!r}"
                )
            seen.add(col.name)
        for key_col in self.primary_key:
            if key_col not in seen:
                raise SchemaError(
                    f"primary key column {key_col!r} not in table {self.name!r}"
                )

    @classmethod
    def build(
        cls,
        name: str,
        columns: dict[str, ColumnType] | list[tuple[str, ColumnType]],
        primary_key: tuple[str, ...] | list[str] = (),
    ) -> "TableSchema":
        """Convenience constructor from a name→type mapping."""
        if isinstance(columns, dict):
            pairs = list(columns.items())
        else:
            pairs = list(columns)
        return cls(
            name=name,
            columns=[Column(cname, ctype) for cname, ctype in pairs],
            primary_key=tuple(primary_key),
        )

    @property
    def column_names(self) -> list[str]:
        return [col.name for col in self.columns]

    def has_column(self, name: str) -> bool:
        return any(col.name == name for col in self.columns)

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"no column {name!r} in table {self.name!r}")

    def column_type(self, name: str) -> ColumnType:
        return self.column(name).ctype

    def rename(self, new_name: str) -> "TableSchema":
        """A copy of this schema under a different table name."""
        return TableSchema(
            name=new_name,
            columns=list(self.columns),
            primary_key=self.primary_key,
        )

    def project(self, names: list[str]) -> "TableSchema":
        """A schema containing only ``names``, in the given order."""
        cols = [self.column(name) for name in names]
        pk = tuple(col for col in self.primary_key if col in names)
        return TableSchema(name=self.name, columns=cols, primary_key=pk)
