"""repro — a reproduction of CaJaDE (SIGMOD 2021).

"Putting Things into Context: Rich Explanations for Query Answers using
Join Graphs" — Li, Miao, Zeng, Glavic, Roy.

The canonical entry point is the session API: register a database once,
then ask many questions while parsed queries, provenance tables and the
materialization trie stay warm:

>>> from repro import CajadeSession
>>> from repro.datasets import load_nba
>>> db, schema_graph = load_nba(scale=0.25)
>>> session = CajadeSession(db, schema_graph)
>>> response = session.ask(sql).why_higher(t1, t2).top_k(3).run()
>>> print(response.describe())
"""

from .api import (
    CajadeSession,
    ExplanationRequest,
    ExplanationResponse,
    QuestionBuilder,
    SessionStats,
    query_fingerprint,
)
from .core import (
    CajadeConfig,
    ComparisonQuestion,
    Explanation,
    ExplanationResult,
    JoinGraph,
    OutlierQuestion,
    Pattern,
    SchemaGraph,
    StepTimer,
)
from .db import Database, ProvenanceTable, Relation, TableSchema, parse_sql

__version__ = "1.1.0"

__all__ = [
    "CajadeConfig",
    "CajadeSession",
    "ComparisonQuestion",
    "Database",
    "Explanation",
    "ExplanationRequest",
    "ExplanationResponse",
    "ExplanationResult",
    "JoinGraph",
    "OutlierQuestion",
    "parse_sql",
    "Pattern",
    "ProvenanceTable",
    "query_fingerprint",
    "QuestionBuilder",
    "Relation",
    "SchemaGraph",
    "SessionStats",
    "StepTimer",
    "TableSchema",
    "__version__",
]
