"""In-memory relational engine substrate for the CaJaDE reproduction.

Provides columnar relations with load-time dictionary encoding, a
catalog with key constraints, a single-block SQL parser, a hash-join
executor with a late-materialized index-vector pipeline
(:class:`~repro.db.frame.IndexFrame`), why-provenance capture, catalog
statistics for cost estimation, and CSV persistence.
"""

from .database import Database
from .errors import (
    CatalogError,
    DatabaseError,
    ExecutionError,
    IntegrityError,
    ParseError,
    SchemaError,
)
from .executor import execute, join_row_indices, working_table
from .expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Literal,
    Not,
    Or,
    Predicate,
    conjunction,
)
from .parser import parse_sql
from .provenance import PT_ROW_ID, ProvenanceTable
from .query import AggregateCall, Query, SelectItem, TableRef
from .frame import IndexFrame
from .relation import Relation, TextColumn
from .schema import Column, ForeignKey, TableSchema
from .statistics import TableStatistics, estimate_join_cardinality
from .types import ColumnType, infer_column_type, is_null

__all__ = [
    "AggregateCall",
    "And",
    "Arithmetic",
    "CatalogError",
    "Column",
    "ColumnRef",
    "ColumnType",
    "Comparison",
    "conjunction",
    "Database",
    "DatabaseError",
    "execute",
    "ExecutionError",
    "ForeignKey",
    "infer_column_type",
    "IntegrityError",
    "is_null",
    "Literal",
    "Not",
    "Or",
    "parse_sql",
    "ParseError",
    "Predicate",
    "ProvenanceTable",
    "PT_ROW_ID",
    "Query",
    "Relation",
    "TextColumn",
    "IndexFrame",
    "join_row_indices",
    "SchemaError",
    "SelectItem",
    "TableRef",
    "TableSchema",
    "TableStatistics",
    "working_table",
    "estimate_join_cardinality",
]
