"""Exception hierarchy for the in-memory relational engine.

All engine errors derive from :class:`DatabaseError` so callers can catch a
single base class.  Each subclass corresponds to a distinct failure category
(schema violations, SQL syntax, execution problems) which keeps error
handling in the CaJaDE layers explicit.
"""


class DatabaseError(Exception):
    """Base class for all errors raised by :mod:`repro.db`."""


class SchemaError(DatabaseError):
    """Raised when a schema definition or constraint is invalid."""


class CatalogError(DatabaseError):
    """Raised when a referenced table or column does not exist."""


class IntegrityError(DatabaseError):
    """Raised when a data modification violates a key constraint."""


class ParseError(DatabaseError):
    """Raised when SQL text cannot be parsed.

    The parser only supports the paper's query class (single-block
    SELECT/FROM/WHERE/GROUP BY with aggregates); anything beyond that
    raises ParseError with a message naming the unsupported feature.
    """


class ExecutionError(DatabaseError):
    """Raised when a logically valid query fails during evaluation."""
