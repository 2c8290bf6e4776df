"""Long-lived explanation sessions: the canonical way to drive CaJaDE.

The paper's system is interactive — an analyst registers a database
once, then asks many user questions against the same aggregate query.
:class:`CajadeSession` matches that shape: it owns the schema graph, a
parsed-query/provenance cache keyed by SQL fingerprint, and **one**
:class:`~repro.engine.MaterializationEngine` per registered query whose
prefix trie persists across questions.  Question N+1 on a registered
query therefore hits the warm trie instead of re-parsing SQL,
recomputing provenance, re-enumerating join graphs and rematerializing
every APT from scratch.  On top of the trie, the session memoizes
per-graph mining finalists keyed by the question's ordered row-id-set
fingerprints and the mining-relevant config, so *repeating* a question
skips mining too and reduces to reranking.

Results are *byte-identical* to a fresh session's at any warmth: cached
state only changes where intermediate relations and finalists come from
(the same canonical plans execute, the same per-graph generators drive
mining), never what they contain.

Two entry points::

    session = CajadeSession(db, schema_graph, config)

    # typed request/response
    response = session.explain(ExplanationRequest(sql, question))

    # fluent builder
    response = session.ask(sql).why_higher(t1, t2).top_k(5).run()
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from ..core.attribute_filter import SelectionMemo
from ..core.config import CajadeConfig
from ..core.diversity import (
    EncodedPool,
    RerankInterner,
    encode,
    select_diverse_top_k,
)
from ..core.enumeration import EnumerationStats, enumerate_join_graphs
from ..core.explainer import Explanation
from ..core.join_graph import JoinGraph
from ..core.mining import MiningResult, mine_apt
from ..core.pattern import Pattern
from ..core.quality import PatternSupport
from ..core.question import (
    ComparisonQuestion,
    OutlierQuestion,
    ResolvedQuestion,
)
from ..core.schema_graph import SchemaGraph
from ..core.timing import (
    APT_CACHE_ENTRIES,
    APT_CACHE_EVICTIONS,
    APT_CACHE_HITS,
    APT_CACHE_MEDIAN_ENTRY_BYTES,
    APT_CACHE_MISSES,
    JG_ENUMERATION,
    MATERIALIZE_APTS,
    StepTimer,
)
from ..db.database import Database
from ..db.parser import parse_sql
from ..db.provenance import ProvenanceTable
from ..db.query import Query
from ..engine import (
    EngineStats,
    MaterializationEngine,
    graph_rng,
    restriction_fingerprint,
)
from .types import (
    ExplanationRequest,
    ExplanationResponse,
    query_fingerprint,
)

# Config fields that do not change mining output — the one budget: the
# APT cache size only moves bytes around.  Everything else keys the
# session's per-graph mining memo.
_MINING_NEUTRAL_FIELDS = frozenset({"apt_cache_mb"})


def mining_config_key(config: CajadeConfig) -> tuple:
    """The output-relevant projection of a config, as a hashable key.

    Two configs with equal keys produce byte-identical ranked
    explanations for the same question: the excluded field is exactly
    the budget (the APT cache size).  This key namespaces the session's
    per-graph mining memo and the serving layer's cross-request
    response cache.
    """
    return tuple(
        (name, value)
        for name, value in sorted(vars(config).items())
        if name not in _MINING_NEUTRAL_FIELDS
    )


@dataclass
class SessionStats:
    """Cross-request bookkeeping of one session's lifetime."""

    requests: int = 0
    queries_registered: int = 0
    query_state_hits: int = 0
    enumeration_hits: int = 0
    queries_evicted: int = 0
    mined_graphs_computed: int = 0
    mined_graphs_reused: int = 0

    def describe(self) -> str:
        return (
            f"session: {self.requests} requests, "
            f"{self.queries_registered} queries registered, "
            f"{self.query_state_hits} query-state hits, "
            f"{self.enumeration_hits} enumeration hits, "
            f"{self.mined_graphs_reused} mined graphs reused / "
            f"{self.mined_graphs_computed} computed, "
            f"{self.queries_evicted} evicted"
        )


class _QueryState:
    """Everything the session keeps per registered aggregate query."""

    def __init__(
        self,
        fingerprint: str,
        query: Query,
        pt: ProvenanceTable,
        engine: MaterializationEngine,
    ):
        self.fingerprint = fingerprint
        self.query = query
        self.pt = pt
        self.engine = engine
        # (λ#edges, λqcost, pk-connectivity) -> (join graphs, stats);
        # the only config fields enumeration reads.
        self.enumerations: dict[
            tuple, tuple[list[JoinGraph], EnumerationStats]
        ] = {}
        # Per-graph mining memo: (enumeration key, ordered row-id-set
        # fingerprints of the question sides, mining config) -> a slot
        # mapping graph index -> the graph's exact finalists, already
        # encoded for the §3.5 rerank with the slot's interner, or None
        # when the graph's APT is empty.  Mining is fully deterministic
        # given those inputs (each graph mines with graph_rng(seed,
        # index)), so reuse is byte-identical by construction, and a
        # re-ask concatenates the stored codes instead of encoding the
        # finalists again.  LRU over keys.
        self.mining_memo: "OrderedDict[tuple, _MiningSlot]" = OrderedDict()


class _MiningSlot(dict):
    """One (question split, mining config) slot of the mining memo.

    Graph index -> that graph's finalists as an :class:`EncodedPool`, or
    None for an empty APT.  Every pool of the slot is encoded with the
    slot's one interner, so any subset of them concatenates as it is.
    """

    __slots__ = ("interner",)

    def __init__(self) -> None:
        super().__init__()
        self.interner = RerankInterner()


class CajadeSession:
    """A persistent CaJaDE service bound to one database.

    Args:
        db: the database all session queries run against.
        schema_graph: permissible joins; defaults to the FK-derived
            graph, computed once for the session's lifetime.
        config: base λ parameters; per-request knobs override copies of
            it, never the session's own.
        max_cached_queries: how many registered queries (parsed query +
            provenance table + warm engine) the session keeps, LRU.
        max_cached_minings: how many (question, mining-config) slots of
            per-graph mining finalists each query keeps, LRU; repeats of
            a question skip materialization and mining, rerank the
            finalists' stored codes, and stay byte-identical (mining is
            deterministic per graph).
    """

    def __init__(
        self,
        db: Database,
        schema_graph: SchemaGraph | None = None,
        config: CajadeConfig | None = None,
        max_cached_queries: int = 8,
        max_cached_minings: int = 32,
    ):
        if max_cached_queries < 1:
            raise ValueError("max_cached_queries must be >= 1")
        if max_cached_minings < 0:
            raise ValueError("max_cached_minings must be >= 0")
        self._max_cached_minings = max_cached_minings
        self.db = db
        self.schema_graph = schema_graph or SchemaGraph.from_database(db)
        self.config = config or CajadeConfig()
        self._max_cached_queries = max_cached_queries
        self._queries: "OrderedDict[str, _QueryState]" = OrderedDict()
        self._stats = SessionStats()

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "CajadeSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Drop all cached query state (the session stays usable)."""
        self._queries.clear()

    # -- query registration ---------------------------------------------
    def register(
        self, sql: str | Query, timer: StepTimer | None = None
    ) -> str:
        """Parse ``sql`` and compute its provenance now; return its
        fingerprint.  Idempotent — re-registering refreshes LRU recency
        only."""
        return self._state(sql, timer)[0].fingerprint

    def _state(
        self, sql: str | Query, timer: StepTimer | None = None
    ) -> tuple[_QueryState, bool]:
        """The (possibly cached) query state, and whether it was warm."""
        fingerprint = query_fingerprint(sql)
        state = self._queries.get(fingerprint)
        if state is not None:
            self._queries.move_to_end(fingerprint)
            self._stats.query_state_hits += 1
            return state, True

        query = sql if isinstance(sql, Query) else parse_sql(sql)
        timer = timer or StepTimer()
        with timer.step(MATERIALIZE_APTS):
            pt = ProvenanceTable.compute(query, self.db)
        engine = MaterializationEngine(
            pt, self.db, cache_mb=self.config.apt_cache_mb
        )
        state = _QueryState(fingerprint, query, pt, engine)
        self._queries[fingerprint] = state
        self._stats.queries_registered += 1
        while len(self._queries) > self._max_cached_queries:
            self._queries.popitem(last=False)
            self._stats.queries_evicted += 1
        return state, False

    def _join_graphs(
        self, state: _QueryState, config: CajadeConfig, timer: StepTimer
    ) -> tuple[list[JoinGraph], EnumerationStats]:
        key = (
            config.max_join_edges,
            config.qcost_threshold,
            config.check_pk_connectivity,
        )
        cached = state.enumerations.get(key)
        if cached is not None:
            self._stats.enumeration_hits += 1
            return cached
        stats = EnumerationStats()
        with timer.step(JG_ENUMERATION):
            join_graphs = list(
                enumerate_join_graphs(
                    self.schema_graph,
                    state.query,
                    state.pt,
                    self.db,
                    config,
                    stats=stats,
                )
            )
        state.enumerations[key] = (join_graphs, stats)
        return join_graphs, stats

    # -- asking questions -----------------------------------------------
    def ask(self, sql: str | Query) -> "QuestionBuilder":
        """Start a fluent question against ``sql``."""
        return QuestionBuilder(self, sql)

    def explain(
        self,
        request: ExplanationRequest | str | Query,
        question: ComparisonQuestion | OutlierQuestion | None = None,
        *,
        timer: StepTimer | None = None,
        top_k: int | None = None,
        max_join_edges: int | None = None,
        f1_sample_rate: float | None = None,
        overrides: dict[str, Any] | None = None,
    ) -> ExplanationResponse:
        """Answer one request (or ``sql, question`` plus knobs)."""
        if not isinstance(request, ExplanationRequest):
            if question is None:
                raise TypeError(
                    "explain(sql, question) needs a question when not "
                    "given an ExplanationRequest"
                )
            request = ExplanationRequest(
                sql=request,
                question=question,
                top_k=top_k,
                max_join_edges=max_join_edges,
                f1_sample_rate=f1_sample_rate,
                overrides=tuple(sorted((overrides or {}).items())),
            )
        elif question is not None:
            raise TypeError(
                "pass either an ExplanationRequest or (sql, question), "
                "not both"
            )
        return self._execute(request, timer=timer)

    # -- the pipeline ----------------------------------------------------
    def _execute(
        self,
        request: ExplanationRequest,
        timer: StepTimer | None = None,
    ) -> ExplanationResponse:
        """Run the CaJaDE pipeline (paper Algorithms 1+2) for one request.

        The session only changes where parsed queries, provenance tables,
        join-graph enumerations and APT intermediates come *from* (warm
        caches instead of recomputation), never their contents.
        """
        started = time.perf_counter()
        self._stats.requests += 1
        config = request.config_for(self.config)
        timer = timer or StepTimer()

        state, warm = self._state(request.sql, timer)
        engine = state.engine
        resolved = request.question.resolve(state.pt)
        restrict = np.concatenate([resolved.row_ids1, resolved.row_ids2])

        join_graphs, enumeration_stats = self._join_graphs(
            state, config, timer
        )

        # Per-graph mining memo slot for this exact (question split,
        # mining config).  Keyed by the *ordered* (t1, t2) row-id-set
        # fingerprints — two questions sharing a union but swapping
        # sides must not alias.
        enum_key = (
            config.max_join_edges,
            config.qcost_threshold,
            config.check_pk_connectivity,
        )
        mining_key = (
            enum_key,
            restriction_fingerprint(resolved.row_ids1),
            restriction_fingerprint(resolved.row_ids2),
            mining_config_key(config),
        )
        memo = state.mining_memo.get(mining_key)
        if memo is None:
            memo = _MiningSlot()
            if self._max_cached_minings > 0:
                state.mining_memo[mining_key] = memo
                while len(state.mining_memo) > self._max_cached_minings:
                    state.mining_memo.popitem(last=False)
        else:
            state.mining_memo.move_to_end(mining_key)

        # Graphs the memo already answers — with finalists, or with None
        # for an APT that came out empty — are neither materialized nor
        # mined: a fully memoized ask goes straight to the rerank.  (With
        # memoization off, ``memo`` is this request's own empty slot.)
        pending = [i for i in range(len(join_graphs)) if i not in memo]
        mined_reused = sum(f is not None for f in memo.values())

        # Stream the rest out of the shared-prefix engine (trie order, so
        # graphs extending the same prefix reuse its cached
        # intermediate) straight into mining, one APT alive at a time.
        # Results are keyed by enumeration index and each graph draws
        # from its own generator, so trie order never shows in the
        # outcome.
        engine_before = engine.stats.copy()
        apts = engine.materialize_iter(
            [join_graphs[i] for i in pending], restrict_row_ids=restrict
        )
        # §3.1 once per distinct input: this question's graphs share one
        # memo, garbage when it returns.
        selection = SelectionMemo()
        mined_now = 0
        while True:
            with timer.step(MATERIALIZE_APTS):
                item = next(apts, None)
            if item is None:
                break
            index, apt = pending[item[0]], item[1]
            if apt.num_rows == 0:
                memo[index] = None
                continue
            mining = mine_apt(
                apt,
                resolved,
                config,
                graph_rng(config.seed, index),
                timer=timer,
                memo=selection,
            )
            memo[index] = encode(
                _exact_stats(resolved, join_graphs[index], mining),
                memo.interner,
            )
            mined_now += 1
        mined_graphs = mined_reused + mined_now
        pool = EncodedPool.concat(
            [memo[index] for index in sorted(memo) if memo[index] is not None],
            memo.interner,
        )

        self._stats.mined_graphs_reused += mined_reused
        self._stats.mined_graphs_computed += mined_now

        engine_delta = engine.stats.delta(engine_before)
        timer.count(APT_CACHE_HITS, engine_delta.steps_reused)
        timer.count(APT_CACHE_MISSES, engine_delta.steps_computed)
        if engine_delta.cache is not None:
            timer.count(APT_CACHE_EVICTIONS, engine_delta.cache.evictions)
            # End-of-request gauges over the trie's live population —
            # snapshots, not increments, so a timer shared across
            # requests reports the latest state instead of a sum.
            timer.set_gauge(APT_CACHE_ENTRIES, engine_delta.cache.entries)
            timer.set_gauge(
                APT_CACHE_MEDIAN_ENTRY_BYTES,
                engine_delta.cache.median_entry_bytes,
            )

        if config.use_diversity:
            chosen = select_diverse_top_k(pool, config.top_k)
        else:
            ranked = pool.ranked()[: config.top_k]
            chosen = [pool[i] for i in ranked.tolist()]

        explanations = []
        for _pattern, _score, payload in chosen:
            join_graph, mined, stats, support = payload
            explanations.append(
                Explanation(
                    join_graph=join_graph,
                    pattern=mined.pattern,
                    primary=mined.primary,
                    primary_label=resolved.label_for_key(mined.primary == 1),
                    stats=stats,
                    support=support,
                )
            )
        return ExplanationResponse(
            explanations=explanations,
            question=resolved,
            timer=timer,
            enumeration=enumeration_stats,
            join_graphs_mined=mined_graphs,
            engine=engine_delta,
            request=request,
            fingerprint=state.fingerprint,
            warm_query=warm,
            total_seconds=time.perf_counter() - started,
            session_engine=engine.stats.copy(),
            mined_graphs_reused=mined_reused,
        )

    # -- introspection ---------------------------------------------------
    @property
    def stats(self) -> SessionStats:
        """A snapshot of the session's cross-request counters."""
        return replace(self._stats)

    def engine_stats(self, sql: str | Query) -> EngineStats | None:
        """Cumulative engine counters for a registered query, if any."""
        state = self._queries.get(query_fingerprint(sql))
        return state.engine.stats.copy() if state is not None else None

    @property
    def registered_queries(self) -> list[str]:
        """Fingerprints of currently cached queries, oldest first."""
        return list(self._queries)


class QuestionBuilder:
    """Fluent construction of one :class:`ExplanationRequest`.

    Every method returns the builder, so a question reads as one chain::

        session.ask(sql).why_higher(t1, t2).top_k(5).edges(2).run()
    """

    def __init__(self, session: CajadeSession, sql: str | Query):
        self._session = session
        self._sql = sql
        self._question: ComparisonQuestion | OutlierQuestion | None = None
        self._knobs: dict[str, Any] = {}
        self._overrides: dict[str, Any] = {}

    # -- question forms --------------------------------------------------
    def compare(
        self, primary: dict[str, Any], secondary: dict[str, Any]
    ) -> "QuestionBuilder":
        """Why does output tuple ``primary`` differ from ``secondary``?"""
        self._question = ComparisonQuestion(primary, secondary)
        return self

    def why_higher(
        self, t1: dict[str, Any], t2: dict[str, Any]
    ) -> "QuestionBuilder":
        """Why is t1's aggregate higher than t2's?  (CaJaDE comparison
        questions are symmetric in mining — both sides get primaries —
        so this and :meth:`why_lower` differ only in how the analyst
        reads the answer.)"""
        return self.compare(t1, t2)

    def why_lower(
        self, t1: dict[str, Any], t2: dict[str, Any]
    ) -> "QuestionBuilder":
        """Why is t1's aggregate lower than t2's?"""
        return self.compare(t1, t2)

    def outlier(self, target: dict[str, Any]) -> "QuestionBuilder":
        """Why is ``target`` surprising versus the rest of the output?"""
        self._question = OutlierQuestion(target)
        return self

    why_outlier = outlier

    # -- per-request knobs -------------------------------------------------
    def top_k(self, k: int) -> "QuestionBuilder":
        self._knobs["top_k"] = k
        return self

    def edges(self, max_join_edges: int) -> "QuestionBuilder":
        self._knobs["max_join_edges"] = max_join_edges
        return self

    def f1_sample(self, rate: float) -> "QuestionBuilder":
        self._knobs["f1_sample_rate"] = rate
        return self

    def override(self, **fields: Any) -> "QuestionBuilder":
        """Override any other :class:`CajadeConfig` field by name."""
        self._overrides.update(fields)
        return self

    # -- terminals ---------------------------------------------------------
    def build(self) -> ExplanationRequest:
        if self._question is None:
            raise ValueError(
                "no question yet: call compare/why_higher/why_lower/"
                "outlier before build() or run()"
            )
        return ExplanationRequest(
            sql=self._sql,
            question=self._question,
            overrides=tuple(sorted(self._overrides.items())),
            **self._knobs,
        )

    def run(self, timer: StepTimer | None = None) -> ExplanationResponse:
        """Build the request and answer it on the owning session."""
        return self._session.explain(self.build(), timer=timer)

    explain = run


def _exact_stats(
    resolved: ResolvedQuestion, join_graph: JoinGraph, mining: MiningResult
) -> list[tuple[Pattern, float, tuple]]:
    """Re-evaluate a join graph's finalists exactly (no sampling).

    Mining may run on a λF1-samp sample; the reported supports
    (c1, a1), (c2, a2) and scores of returned explanations are exact —
    read off the exact evaluator mining built for candidate generation.
    Each finalist comes out as the rerank's (pattern, exact F-score,
    payload) triple, the payload being ``(join_graph, mined, stats,
    support)``.
    """
    evaluator = mining.full_evaluator
    covered1, covered2 = evaluator.coverage_batch(
        [entry.pattern for entry in mining.patterns]
    )
    results = []
    for entry, cov1, cov2 in zip(
        mining.patterns, covered1.tolist(), covered2.tolist()
    ):
        stats = evaluator.stats_from_counts(cov1, cov2, primary=entry.primary)
        support = PatternSupport(
            covered1=cov1,
            total1=len(resolved.row_ids1),
            covered2=cov2,
            total2=len(resolved.row_ids2),
        )
        results.append(
            (entry.pattern, stats.f_score, (join_graph, entry, stats, support))
        )
    return results
