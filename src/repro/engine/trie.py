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

Entries are whatever the engine materializes — int32-compacted
:class:`~repro.db.frame.IndexFrame` index-vector frames, or anything
else exposing ``estimated_bytes``.  They are roughly the joined table's
width times smaller than the joined relation, so far more prefixes fit
in the same byte budget.

Memory is bounded: each cached entry is charged its ``estimated_bytes``
and cold prefixes are evicted least-recently-used once the budget is
exceeded.  A capacity of zero disables caching entirely (every insert is
rejected).  :attr:`CacheStats.entries` and
:attr:`CacheStats.median_entry_bytes` are gauges describing the live
entry population (refreshed by :meth:`PrefixCache.refresh_gauges`, which
recomputes them only after the population changed).
"""

from __future__ import annotations

import statistics
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Protocol


class CacheableEntry(Protocol):
    """Anything the trie can hold: sized, immutable join intermediates.

    ``estimated_bytes`` is what the cache charges the entry.
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
        # Key -> (entry, bytes charged for it).
        self._entries: "OrderedDict[tuple, tuple[Any, int]]" = OrderedDict()
        self.stats = CacheStats()
        # Set by an insertion, an eviction or clear(): the gauges in
        # ``stats`` no longer describe the live entries.
        self._gauges_stale = False

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

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
        charge = int(value.estimated_bytes)
        if self.capacity_bytes <= 0 or charge > self.capacity_bytes:
            self.stats.rejected += 1
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self.stats.current_bytes -= old[1]
        self._entries[key] = (value, charge)
        self._gauges_stale = True
        self.stats.current_bytes += charge
        self.stats.insertions += 1
        while self.stats.current_bytes > self.capacity_bytes and self._entries:
            _, (_, evicted) = self._entries.popitem(last=False)
            self.stats.current_bytes -= evicted
            self.stats.evictions += 1
        self.stats.peak_bytes = max(
            self.stats.peak_bytes, self.stats.current_bytes
        )

    def median_entry_bytes(self) -> int:
        """Median charged entry size over the live entries (0 if empty)."""
        if not self._entries:
            return 0
        return int(
            statistics.median(charge for _, charge in self._entries.values())
        )

    def refresh_gauges(self) -> CacheStats:
        """Update (and return) the live-population gauges in ``stats``.

        They are recomputed only when an insertion, an eviction or
        :meth:`clear` changed the population since the last refresh, so
        reading the stats of an unchanged cache costs no median.
        """
        if self._gauges_stale:
            self.stats.entries = len(self._entries)
            self.stats.median_entry_bytes = self.median_entry_bytes()
            self._gauges_stale = False
        return self.stats

    def clear(self) -> None:
        self._entries.clear()
        self.stats.current_bytes = 0
        self._gauges_stale = True
