"""Typed request/response objects of the session API.

:class:`ExplanationRequest` is the unit of work a
:class:`~repro.api.session.CajadeSession` accepts: the SQL (or an
already-parsed :class:`~repro.db.query.Query`), the user question, and
per-request budget knobs that override the session's base
:class:`~repro.core.config.CajadeConfig` for this request only.
:class:`ExplanationResponse` extends
:class:`~repro.core.explainer.ExplanationResult` (the ``describe`` /
``to_json`` / ``top`` surface) with the request that produced it, the
query fingerprint, whether the session was already warm for that query,
and a wall-clock/timing breakdown.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Any, Mapping

from ..core.config import CajadeConfig
from ..core.explainer import ExplanationResult
from ..core.question import ComparisonQuestion, OutlierQuestion
from ..db.query import Query

_CONFIG_FIELDS = {f.name for f in fields(CajadeConfig)}
_DEFAULT_CONFIG = CajadeConfig()

# Baked into a session's per-query engine at registration time; a
# per-request override would silently not apply, so it is rejected.
_SESSION_LEVEL_FIELDS = frozenset({"apt_cache_mb"})


def query_fingerprint(sql: str | Query) -> str:
    """A stable identity for one aggregate query within a session.

    SQL text is normalized by whitespace collapse only — the parser is
    the authority on deeper equivalence, and two spellings of the same
    query merely warm two session slots (correctness is unaffected).
    Parsed :class:`Query` objects fall back to their original ``text``
    when the parser recorded it, else to the dataclass repr.
    """
    if isinstance(sql, Query):
        text = sql.text or repr(sql)
    else:
        text = sql
    normalized = " ".join(text.split())
    return hashlib.blake2b(
        normalized.encode("utf-8"), digest_size=16
    ).hexdigest()


@dataclass(frozen=True)
class ExplanationRequest:
    """One user question against one registered aggregate query.

    Knobs (``top_k``, ``max_join_edges``, ``f1_sample_rate``) are the
    common per-request overrides; any other
    :class:`CajadeConfig` field can be overridden through ``overrides``
    (a mapping at construction time, stored as a sorted tuple so
    requests stay frozen and comparable by value — note the question's
    tuple dicts keep the request itself unhashable).  ``None`` means
    "inherit from the session config".
    """

    sql: str | Query
    question: ComparisonQuestion | OutlierQuestion
    top_k: int | None = None
    max_join_edges: int | None = None
    f1_sample_rate: float | None = None
    overrides: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.overrides, Mapping):
            object.__setattr__(
                self, "overrides", tuple(sorted(self.overrides.items()))
            )
        for name, _value in self.overrides:
            if name not in _CONFIG_FIELDS:
                raise ValueError(
                    f"unknown CajadeConfig override {name!r}"
                )
            if name in _SESSION_LEVEL_FIELDS:
                raise ValueError(
                    f"{name!r} is a session-level knob (it shapes the "
                    "long-lived engine); set it on the CajadeConfig "
                    "passed to CajadeSession instead"
                )
        if not isinstance(
            self.question, (ComparisonQuestion, OutlierQuestion)
        ):
            raise TypeError(
                "question must be a ComparisonQuestion or OutlierQuestion, "
                f"got {type(self.question).__name__}"
            )
        if not isinstance(self.sql, (str, Query)):
            raise TypeError(
                f"sql must be a str or a Query, got {type(self.sql).__name__}"
            )
        # Knob and override values fail here, where the request is
        # built, not in whichever layer first reads the config: every
        # CajadeConfig check is per field, so the defaults stand in for
        # any base.
        self.config_for(_DEFAULT_CONFIG)

    @property
    def fingerprint(self) -> str:
        """The query fingerprint this request resolves against."""
        return query_fingerprint(self.sql)

    def config_for(self, base: CajadeConfig) -> CajadeConfig:
        """The effective config: session base + this request's knobs."""
        changes: dict[str, Any] = dict(self.overrides)
        if self.top_k is not None:
            changes["top_k"] = self.top_k
        if self.max_join_edges is not None:
            changes["max_join_edges"] = self.max_join_edges
        if self.f1_sample_rate is not None:
            changes["f1_sample_rate"] = self.f1_sample_rate
        if not changes:
            return base
        return base.with_overrides(**changes)

    def describe(self) -> str:
        knobs = dict(self.overrides)
        for name in ("top_k", "max_join_edges", "f1_sample_rate"):
            value = getattr(self, name)
            if value is not None:
                knobs[name] = value
        suffix = (
            " [" + ", ".join(f"{k}={v}" for k, v in sorted(knobs.items())) + "]"
            if knobs
            else ""
        )
        return f"{self.question.describe()}{suffix}"


@dataclass
class ExplanationResponse(ExplanationResult):
    """An :class:`ExplanationResult` plus session-level provenance.

    ``engine`` (inherited) holds the *per-request* engine counters — the
    delta this request produced on the session's long-lived engine — so
    a warm repeat shows ``steps_reused`` growth and zero
    ``steps_computed``.  ``session_engine`` is the engine's cumulative
    lifetime view.  ``warm_query`` reports whether the session already
    held the query's parsed/provenance state when the request arrived.
    """

    request: ExplanationRequest | None = None
    fingerprint: str = ""
    warm_query: bool = False
    total_seconds: float = 0.0
    session_engine: Any = None
    mined_graphs_reused: int = 0

    @property
    def breakdown(self) -> dict[str, float]:
        """Step → seconds timing breakdown of this request."""
        return self.timer.breakdown()

    def describe_timing(self) -> str:
        return self.timer.format_table()
