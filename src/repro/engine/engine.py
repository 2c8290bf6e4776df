"""Shared-prefix APT materialization engine.

:class:`MaterializationEngine` is the one way an APT is built.  It is
bound to one provenance table; for each join graph it builds the canonical
:class:`~repro.core.apt.MaterializationPlan`, finds the longest plan
prefix already materialized in its trie, and executes only the missing
suffix steps.  Because BFS-enumerated join graphs overwhelmingly extend
already-enumerated graphs by one edge (the paper's Algorithm 2), most
graphs cost one join step instead of rebuilding the whole
PT ⋈ S₁ ⋈ … ⋈ Sⱼ pipeline from scratch.

The ordering invariant this relies on: the canonical edge (step) order of
``build_plan`` must match the enumeration extension order — node ids are
assigned in extension order and the plan walks the lowest-id frontier
node first, so a graph extending Ω' yields Ω''s steps as an exact plan
prefix.  See :mod:`repro.core.apt` for the full statement.

The pipeline is *late-materialized*: intermediates are
:class:`~repro.db.frame.IndexFrame` row-index vectors over the
provenance relation and the prefixed context tables, and each join step
is :meth:`~repro.db.frame.IndexFrame.join` (the ``join_row_indices``
hash core).  The trie caches each step's frame int32-compacted
(:meth:`~repro.db.frame.IndexFrame.compact`), so entries are roughly
the joined width times smaller than the joined relation and more
prefixes fit per byte.
:meth:`~MaterializationEngine.materialize_iter` yields gather-on-demand
APTs whose mining kernel reads load-time dictionary codes straight off
the base tables.  ``cache_mb=0`` is "no sharing": every graph runs its
whole plan from the base.

An engine can outlive a single question: the question restriction is a
per-call argument (``restrict_row_ids`` of ``materialize_iter``) and
every trie key is namespaced by a fingerprint of the restriction's
row-id *set*, so APTs of different questions coexist in one trie without
ever aliasing, and re-asking a question hits the prefixes its first run
left behind.  :class:`repro.api.CajadeSession` relies on this to keep
one warm engine per registered query across many user questions.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from ..core.apt import (
    AugmentedProvenanceTable,
    JoinStep,
    _wrap_apt,
    apply_filter_step,
    build_plan,
    restrict_base_frame,
)
from ..core.join_graph import JoinGraph
from ..db.database import Database
from ..db.frame import IndexFrame
from ..db.provenance import ProvenanceTable
from ..db.relation import Relation
from .trie import CacheStats, PrefixCache

_MB = 1024 * 1024

# Restricted PT-side bases kept per engine (LRU).  Bases are small
# (one row-index vector each) but an unbounded memo would leak across the
# lifetime of a serving session answering many distinct questions.
_MAX_MEMOIZED_BASES = 16


def restriction_fingerprint(
    restrict_row_ids: np.ndarray | None,
) -> tuple | None:
    """A hashable key identifying a question restriction's row-id *set*.

    :func:`repro.core.apt.restrict_base_frame` applies restrictions with
    set semantics (``np.isin``), so order and duplicates are canonicalized
    away before hashing; equal sets always collide and unequal sets get
    distinct digests.  ``None`` (no restriction) maps to ``None``.
    """
    if restrict_row_ids is None:
        return None
    ids = np.unique(np.asarray(restrict_row_ids, dtype=np.int64))
    digest = hashlib.blake2b(ids.tobytes(), digest_size=16).hexdigest()
    return (int(ids.size), digest)


def graph_rng(seed: int, index: int) -> np.random.Generator:
    """An independent, deterministic generator for one join graph.

    Seeding with the ``(seed, index)`` entropy pair makes a graph's
    draws a function of its enumeration index alone, never of which
    other graphs were mined before it — the property that lets a
    memoized, a fresh and a reopened-in-another-process mining of the
    same question agree byte for byte.
    """
    return np.random.default_rng([seed, index])


def _plan_order_key(plan) -> tuple:
    """A sortable key grouping plans by shared step prefixes (trie order)."""
    return tuple(
        (0, step.table, step.alias, step.conditions)
        if isinstance(step, JoinStep)
        else (1, step.pairs)
        for step in plan.steps
    )


@dataclass
class EngineStats:
    """Work-sharing counters for one engine lifetime.

    ``steps_reused``/``steps_computed`` count plan steps served from the
    trie versus executed; ``full_hits`` counts graphs whose entire plan
    (an isomorphic materialization) was already cached.  ``cache`` holds
    the underlying trie's probe/eviction/byte counters.
    """

    graphs: int = 0
    steps_reused: int = 0
    steps_computed: int = 0
    full_hits: int = 0
    cache: CacheStats | None = None

    def copy(self) -> "EngineStats":
        """A frozen-in-time copy (the ``cache`` field is otherwise live)."""
        cache = replace(self.cache) if self.cache is not None else None
        return replace(self, cache=cache)

    def delta(self, since: "EngineStats | None") -> "EngineStats":
        """Counters accumulated after the ``since`` snapshot.

        Byte gauges (``current_bytes``/``peak_bytes``) are not
        differences — the later absolute values are kept.  Used by
        :class:`repro.api.CajadeSession` to report per-request engine
        work from one long-lived engine.
        """
        if since is None:
            return self.copy()
        cache = None
        if self.cache is not None:
            old = since.cache or CacheStats()
            cache = CacheStats(
                hits=self.cache.hits - old.hits,
                misses=self.cache.misses - old.misses,
                evictions=self.cache.evictions - old.evictions,
                insertions=self.cache.insertions - old.insertions,
                rejected=self.cache.rejected - old.rejected,
                current_bytes=self.cache.current_bytes,
                peak_bytes=self.cache.peak_bytes,
                entries=self.cache.entries,
                median_entry_bytes=self.cache.median_entry_bytes,
            )
        return EngineStats(
            graphs=self.graphs - since.graphs,
            steps_reused=self.steps_reused - since.steps_reused,
            steps_computed=self.steps_computed - since.steps_computed,
            full_hits=self.full_hits - since.full_hits,
            cache=cache,
        )

    def describe(self) -> str:
        cache = self.cache or CacheStats()
        return (
            f"apt cache: {self.steps_reused} steps reused / "
            f"{self.steps_computed} computed over {self.graphs} graphs "
            f"({self.full_hits} full hits, {cache.evictions} evictions, "
            f"{cache.current_bytes / _MB:.1f} MB cached)"
        )


class MaterializationEngine:
    """Materializes APTs for many join graphs, sharing join prefixes.

    Args:
        pt: the provenance table all APTs extend.
        db: the database supplying context relations.
        cache_mb: memory budget in megabytes for the prefix trie.  0
            disables caching: every graph runs its whole plan.
    """

    def __init__(
        self,
        pt: ProvenanceTable,
        db: Database,
        cache_mb: float = 256.0,
    ):
        if cache_mb < 0:
            raise ValueError("cache_mb must be >= 0")
        self._pt = pt
        self._db = db
        # Restriction fingerprint -> restricted PT-side base frame.
        # Memoized so re-asked questions reuse the same base object;
        # LRU-bounded so a long-lived engine answering many distinct
        # questions cannot accumulate row-index vectors without limit
        # (evicted bases are recomputed deterministically — trie keys
        # are unaffected).
        self._bases: "OrderedDict[tuple | None, IndexFrame]" = OrderedDict()
        self._cache = PrefixCache(int(cache_mb * _MB))
        self._contexts: dict[tuple[str, str], Relation] = {}
        self._graphs = 0
        self._steps_reused = 0
        self._steps_computed = 0
        self._full_hits = 0

    # ------------------------------------------------------------------
    def _restriction(
        self, restrict_row_ids: np.ndarray | None
    ) -> tuple[tuple | None, IndexFrame]:
        """Resolve a restriction to (fingerprint, base).

        The base is an index frame over the full PT relation, the
        restriction being its row vector.  Restrictions namespace every
        trie key (see :func:`restriction_fingerprint`), so one engine
        serves many questions without rebuilding its trie.
        """
        key = restriction_fingerprint(restrict_row_ids)
        base = self._bases.get(key)
        if base is None:
            base = restrict_base_frame(self._pt, restrict_row_ids)
            self._bases[key] = base
            while len(self._bases) > _MAX_MEMOIZED_BASES:
                self._bases.popitem(last=False)
        else:
            self._bases.move_to_end(key)
        return key, base

    def _context(self, table: str, alias: str) -> Relation:
        """The context relation prefixed for ``alias``, memoized."""
        key = (table, alias)
        relation = self._contexts.get(key)
        if relation is None:
            relation = self._db.table(table).prefix_columns(f"{alias}.")
            self._contexts[key] = relation
        return relation

    def materialize_iter(
        self,
        join_graphs: Sequence[JoinGraph],
        restrict_row_ids: np.ndarray | None,
    ) -> Iterator[tuple[int, AugmentedProvenanceTable]]:
        """Yield ``(input_index, APT)`` in trie (prefix DFS) order.

        Each APT is APT(Q, D, Ω) with the provenance side limited to
        ``restrict_row_ids`` (set semantics; ``None`` is every PT row):
        the union of t1's and t2's provenance, which is all the mining
        pipeline consumes.

        BFS enumeration emits all size-k graphs before any size-(k+1)
        graph, so by the time a graph's extensions arrive its cached
        prefix may be hundreds of insertions cold and already evicted.
        Visiting the batch in lexicographic plan order instead keeps each
        shared prefix hot exactly while its whole subtree is processed —
        the LRU then only needs to hold one root-to-leaf path plus recent
        siblings.  Yielding one APT at a time lets callers bound how many
        finished APTs are alive simultaneously; each yield carries the
        graph's index in the input sequence so order-sensitive callers
        can reassemble input order.
        """
        restriction_key, base = self._restriction(restrict_row_ids)
        plans = [build_plan(g, self._pt) for g in join_graphs]
        order = sorted(
            range(len(plans)), key=lambda i: _plan_order_key(plans[i])
        )
        for i in order:
            yield i, self._materialize_plan(
                join_graphs[i], plans[i], restriction_key, base
            )

    def _materialize_plan(
        self,
        join_graph: JoinGraph,
        plan,
        restriction_key: tuple | None,
        base: IndexFrame,
    ) -> AugmentedProvenanceTable:
        steps = plan.steps
        self._graphs += 1

        # Trie keys are namespaced by the restriction, so APTs of
        # different questions never alias.
        def prefix_key(depth: int) -> tuple:
            return (restriction_key,) + steps[:depth]

        current = base
        depth = len(steps)
        while depth > 0:
            cached = self._cache.get(prefix_key(depth))
            if cached is not None:
                current = cached
                break
            depth -= 1
        self._steps_reused += depth
        if steps and depth == len(steps):
            self._full_hits += 1

        for i in range(depth, len(steps)):
            step = steps[i]
            if isinstance(step, JoinStep):
                current = current.join(
                    self._context(step.table, step.alias),
                    list(step.conditions),
                )
            else:
                current = apply_filter_step(current, step)
            current = current.compact()
            self._steps_computed += 1
            self._cache.put(prefix_key(i + 1), current)

        return _wrap_apt(join_graph, self._pt, current, self._db)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> EngineStats:
        return EngineStats(
            graphs=self._graphs,
            steps_reused=self._steps_reused,
            steps_computed=self._steps_computed,
            full_hits=self._full_hits,
            cache=self._cache.refresh_gauges(),
        )
