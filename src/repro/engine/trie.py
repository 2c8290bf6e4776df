"""The materialization trie: an LRU-bounded cache over join prefixes.

Join graphs are canonicalized into ordered step sequences by
:func:`repro.core.apt.build_plan`; the tuple of the first j steps is the
*prefix key* identifying the intermediate relation PT ⋈ S₁ ⋈ … ⋈ Sⱼ.
Because the canonical step order extends the BFS enumeration order of
:mod:`repro.core.enumeration` (see the ordering invariant documented in
:mod:`repro.core.apt`), every graph extending the same size-(k−1) graph
shares that graph's whole prefix, so the cache is logically a trie over
plan steps — stored flat as a dict keyed by prefix tuples, with one LRU
spine across all prefixes.

Entries are whatever the engine materializes — compact
:class:`~repro.db.frame.IndexFrame` index-vector frames and
:class:`~repro.db.window_join.WindowEntry` records, or anything else
exposing ``estimated_bytes``.  They are roughly the joined table's width
times smaller than the joined relation, so far more prefixes fit in the
same byte budget.

Memory is bounded: each cached entry is charged its ``estimated_bytes``
and cold prefixes are evicted least-recently-used once the budget is
exceeded.  A capacity of zero disables caching entirely (every insert is
rejected).  :attr:`CacheStats.entries` and
:attr:`CacheStats.median_entry_bytes` are gauges describing the live
entry population (refreshed by :meth:`PrefixCache.refresh_gauges`).
"""

from __future__ import annotations

import statistics
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Protocol


class CacheableEntry(Protocol):
    """Anything the trie can hold: sized, immutable join intermediates.

    ``estimated_bytes`` is the entry's standalone size.  Entries that
    reference arrays shared with *other* entries (e.g. the sort
    permutation behind every :class:`~repro.db.window_join.WindowEntry`
    over one column) may additionally expose ``own_bytes`` (marginal
    size excluding shared arrays) and ``shared_components`` (a tuple of
    ``(token, nbytes)`` pairs identifying the shared arrays); the cache
    then charges each distinct token once, however many live entries
    reference it — never once per entry.
    """

    @property
    def estimated_bytes(self) -> int: ...


@dataclass
class CacheStats:
    """Counters describing one prefix cache's lifetime.

    ``entries`` and ``median_entry_bytes`` are point-in-time gauges over
    the live entry population (not monotone counters); the engine
    refreshes them when its stats are read.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0
    rejected: int = 0
    current_bytes: int = 0
    peak_bytes: int = 0
    entries: int = 0
    median_entry_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "insertions": self.insertions,
            "rejected": self.rejected,
            "current_bytes": self.current_bytes,
            "peak_bytes": self.peak_bytes,
            "entries": self.entries,
            "median_entry_bytes": self.median_entry_bytes,
        }

    @property
    def hit_rate(self) -> float:
        """Probe hit fraction in [0, 1] (0.0 before any probe)."""
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0


class PrefixCache:
    """LRU cache mapping plan-prefix keys to join intermediates.

    Keys are tuples of (hashable, frozen) plan steps; values are the
    immutable relations — or index-vector frames — produced by executing
    exactly those steps.  The byte budget counts each entry's
    ``estimated_bytes``; a single entry larger than the whole budget is
    rejected outright rather than thrashing the cache.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes must be >= 0")
        self.capacity_bytes = capacity_bytes
        self._entries: (
            "OrderedDict[tuple, tuple[Any, int, tuple[tuple[Any, int], ...]]]"
        ) = OrderedDict()
        # Shared-component token -> [live reference count, nbytes].
        # Components (e.g. a window strategy's sort permutation shared
        # by every entry probing one column) are charged to
        # current_bytes once on first reference and released when the
        # last referencing entry leaves — never double-counted, so
        # window entries cannot inflate evictions.
        self._shared: dict[Any, list[int]] = {}
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    @staticmethod
    def _sizing(value: CacheableEntry) -> tuple[int, tuple]:
        """``(own_bytes, shared_components)`` of an entry.

        Entries without the shared-component protocol are their
        ``estimated_bytes`` with nothing shared — identical accounting
        to the historical cache.
        """
        shares = tuple(getattr(value, "shared_components", ()))
        if shares:
            own = int(value.own_bytes)
        else:
            own = int(value.estimated_bytes)
        return own, shares

    def get(self, key: tuple) -> Any | None:
        """The entry cached under ``key``, refreshing its recency."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry[0]

    def put(self, key: tuple, value: CacheableEntry) -> None:
        """Insert ``value`` under ``key``, evicting cold prefixes."""
        own, shares = self._sizing(value)
        charge = own + sum(
            nbytes for token, nbytes in shares if token not in self._shared
        )
        if self.capacity_bytes <= 0 or charge > self.capacity_bytes:
            self.stats.rejected += 1
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._release(old)
        self._entries[key] = (value, own, shares)
        self.stats.current_bytes += own
        for token, nbytes in shares:
            ref = self._shared.get(token)
            if ref is None:
                self._shared[token] = [1, nbytes]
                self.stats.current_bytes += nbytes
            else:
                ref[0] += 1
        self.stats.insertions += 1
        while self.stats.current_bytes > self.capacity_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._release(evicted)
            self.stats.evictions += 1
        self.stats.peak_bytes = max(
            self.stats.peak_bytes, self.stats.current_bytes
        )

    def _release(self, entry: tuple) -> None:
        """Return an entry's bytes (and shared refs) to the budget."""
        _, own, shares = entry
        self.stats.current_bytes -= own
        for token, nbytes in shares:
            ref = self._shared[token]
            ref[0] -= 1
            if ref[0] == 0:
                del self._shared[token]
                self.stats.current_bytes -= nbytes

    def median_entry_bytes(self) -> int:
        """Median *marginal* entry size over the live entries (0 if
        empty): each entry's own bytes, shared components excluded —
        the true per-prefix cost of the cache's population."""
        if not self._entries:
            return 0
        return int(
            statistics.median(own for _, own, _ in self._entries.values())
        )

    def refresh_gauges(self) -> CacheStats:
        """Update (and return) the live-population gauges in ``stats``."""
        self.stats.entries = len(self._entries)
        self.stats.median_entry_bytes = self.median_entry_bytes()
        return self.stats

    def clear(self) -> None:
        self._entries.clear()
        self._shared.clear()
        self.stats.current_bytes = 0
        self.stats.entries = 0
        self.stats.median_entry_bytes = 0
