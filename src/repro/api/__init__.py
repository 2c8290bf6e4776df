"""The session-oriented public API (the canonical way to drive CaJaDE).

Layering: db → core → engine → **api** → cli.  This package owns the
long-lived :class:`CajadeSession` — schema graph computed once, parsed
queries/provenance cached by SQL fingerprint, one warm
:class:`~repro.engine.MaterializationEngine` per registered query — and
the typed :class:`ExplanationRequest` / :class:`ExplanationResponse`
objects individual questions travel in.
"""

from .session import (
    CajadeSession,
    QuestionBuilder,
    SessionStats,
    mining_config_key,
)
from .types import (
    ExplanationRequest,
    ExplanationResponse,
    query_fingerprint,
)

__all__ = [
    "CajadeSession",
    "ExplanationRequest",
    "ExplanationResponse",
    "QuestionBuilder",
    "SessionStats",
    "mining_config_key",
    "query_fingerprint",
]
