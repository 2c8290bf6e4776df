"""Per-step wall-clock instrumentation.

The paper's performance figures break total runtime into named steps
(Feature Selection, Gen. Pat. Cand., Materialize APTs, Sampling for F1,
F-score Calc., Refine Patterns, JG Enum.).  :class:`StepTimer` accumulates
seconds under exactly those labels so the benchmark harness can print the
same breakdown rows (Figures 7, 9c, 9d).

Alongside seconds, the timer also accumulates named integer *counters*
(APT cache hits/misses/evictions from the materialization engine,
patterns examined), which the breakdown table reports so
cache behaviour shows up next to the step costs it explains.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

# Canonical step labels, matching the paper's breakdown tables.
FEATURE_SELECTION = "Feature Selection"
GEN_PATTERN_CANDIDATES = "Gen. Pat. Cand."
F_SCORE_CALC = "F-score Calc."
MATERIALIZE_APTS = "Materialize APTs"
REFINE_PATTERNS = "Refine Patterns"
SAMPLING_FOR_F1 = "Sampling for F1"
JG_ENUMERATION = "JG Enum."

ALL_STEPS = (
    FEATURE_SELECTION,
    GEN_PATTERN_CANDIDATES,
    F_SCORE_CALC,
    MATERIALIZE_APTS,
    REFINE_PATTERNS,
    SAMPLING_FOR_F1,
    JG_ENUMERATION,
)

# Canonical counter labels (engine cache behaviour).  The entry-count /
# median-entry-size labels are *gauges* over the trie's live entry
# population (recorded via StepTimer.set_gauge — latest request wins,
# never summed), so cache-footprint changes (e.g. index-vector frames
# versus full relations) show up next to the hit/miss counters they
# explain.
APT_CACHE_HITS = "APT cache hits"
APT_CACHE_MISSES = "APT cache misses"
APT_CACHE_EVICTIONS = "APT cache evictions"
APT_CACHE_ENTRIES = "APT cache entries"
APT_CACHE_MEDIAN_ENTRY_BYTES = "APT cache median entry bytes"

# Canonical counter labels (Algorithm 1's level-at-a-time search).
# "Patterns examined" counts the lattice nodes scored (seeds included),
# "mining levels" the batches they were scored in, and "pool patterns
# built" the nodes at or above the pool's cut — the only ones that are
# ever Pattern objects — all summed across the APTs of a request, and
# all exact: they repeat from run to run.
PATTERNS_EXAMINED = "Patterns examined"
MINING_LEVELS = "Mining levels"
POOL_PATTERNS_BUILT = "Pool patterns built"

# Canonical counter labels (§3.1 histogram-forest feature selection).
# "Nodes grown" counts tree nodes created (leaves included),
# "histograms built" counts per-(node, feature) bin histograms, and
# "splits evaluated" counts the candidate (node, feature, bin) splits
# scored by the vectorized Gini pass — all summed across the trees and
# APTs of a request.
HIST_NODES_GROWN = "Hist forest nodes grown"
HIST_HISTOGRAMS_BUILT = "Hist forest histograms built"
HIST_SPLITS_EVALUATED = "Hist forest splits evaluated"

# Canonical counter labels (§3.1 shared across a question's join
# graphs).  "Fits run" / "pairs computed" count the distinct inputs
# worked on, "memo hits" the forest inputs and Cramér's V pairs read
# back from the question's selection memo: hits / (run + hits) is the
# share that repeats.  A hit grows no nodes (the counters above count
# work done).
FOREST_FITS_RUN = "Forest fits run"
FOREST_MEMO_HITS = "Forest memo hits"
ASSOCIATION_PAIRS_COMPUTED = "Association pairs computed"
ASSOCIATION_MEMO_HITS = "Association memo hits"

# Canonical counter labels (§3.2 LCA candidate generation).  "Pairs
# examined" counts sampled row pairs; "distinct row pairs" counts the
# pairs of distinct sample rows they (and the singletons) reduce to —
# the number LCA keys are computed for, which the cost follows;
# "patterns built" counts Pattern object constructions — the
# deduplicated survivors only, never one per agreeing pair.
LCA_PAIRS_EXAMINED = "LCA pairs examined"
LCA_DISTINCT_ROW_PAIRS = "LCA distinct row pairs"
LCA_PATTERNS_BUILT = "LCA patterns built"

# Canonical counter labels (serving layer).  Requests are counted once
# at admission; "coalesced" counts requests that joined an identical
# in-flight computation, "cache hits" counts responses served from the
# cross-request response cache, and "queue depth" is a gauge over the
# scheduler's backlog at its deepest observed point.
SERVICE_REQUESTS = "Service requests"
SERVICE_COALESCED = "Service coalesced"
SERVICE_CACHE_HITS = "Service cache hits"
SERVICE_CACHE_MISSES = "Service cache misses"
SERVICE_BATCHES = "Service batches"
SERVICE_QUEUE_DEPTH = "Service queue depth"

# Canonical counter labels (serving robustness).  "Retries" counts
# tickets re-enqueued after a retryable batch failure, "shed" counts
# requests refused by admission control, "deadline exceeded" counts
# requests that ran out of budget (queued, mid-batch, or awaiting),
# "degraded" counts requests served by a quarantined shard's inline
# fallback, and "failures" counts requests resolved with an error.
SERVICE_RETRIES = "Service retries"
SERVICE_SHED = "Service shed"
SERVICE_DEADLINE_EXCEEDED = "Service deadline exceeded"
SERVICE_DEGRADED = "Service degraded"
SERVICE_FAILURES = "Service failures"

ALL_COUNTERS = (
    APT_CACHE_HITS,
    APT_CACHE_MISSES,
    APT_CACHE_EVICTIONS,
    APT_CACHE_ENTRIES,
    APT_CACHE_MEDIAN_ENTRY_BYTES,
    PATTERNS_EXAMINED,
    MINING_LEVELS,
    POOL_PATTERNS_BUILT,
    HIST_NODES_GROWN,
    HIST_HISTOGRAMS_BUILT,
    HIST_SPLITS_EVALUATED,
    FOREST_FITS_RUN,
    FOREST_MEMO_HITS,
    ASSOCIATION_PAIRS_COMPUTED,
    ASSOCIATION_MEMO_HITS,
    LCA_PAIRS_EXAMINED,
    LCA_DISTINCT_ROW_PAIRS,
    LCA_PATTERNS_BUILT,
    SERVICE_REQUESTS,
    SERVICE_COALESCED,
    SERVICE_CACHE_HITS,
    SERVICE_CACHE_MISSES,
    SERVICE_BATCHES,
    SERVICE_QUEUE_DEPTH,
    SERVICE_RETRIES,
    SERVICE_SHED,
    SERVICE_DEADLINE_EXCEEDED,
    SERVICE_DEGRADED,
    SERVICE_FAILURES,
)


class StepTimer:
    """Accumulates wall-clock seconds (and counters) per named step.

    Two kinds of integer metrics coexist: *counters* accumulate across
    :meth:`count` calls (cache hits, evictions), while
    *gauges* (:meth:`set_gauge`) are point-in-time snapshots where the
    latest recording wins — e.g. the trie's live entry count, which
    must not sum across the requests of a batch sharing one timer.
    """

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, int] = {}

    @contextmanager
    def step(self, name: str) -> Iterator[None]:
        """Context manager adding the elapsed time to ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._seconds[name] = self._seconds.get(name, 0.0) + elapsed

    def add(self, name: str, seconds: float) -> None:
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds

    def seconds(self, name: str) -> float:
        return self._seconds.get(name, 0.0)

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter (negative n is rejected)."""
        if n < 0:
            raise ValueError("counter increments must be >= 0")
        self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: int) -> None:
        """Record a point-in-time gauge; the latest recording wins.

        Unlike :meth:`count`, repeated recordings (e.g. one per request
        of a batch sharing this timer) replace rather than accumulate.
        """
        self._gauges[name] = int(value)

    def counter(self, name: str) -> int:
        if name in self._gauges:
            return self._gauges[name]
        return self._counters.get(name, 0)

    def counters(self) -> dict[str, int]:
        """Counter/gauge → value, canonical cache counters first."""
        merged = dict(self._counters)
        merged.update(self._gauges)
        ordered = {
            name: merged[name] for name in ALL_COUNTERS if name in merged
        }
        for name, value in merged.items():
            if name not in ordered:
                ordered[name] = value
        return ordered

    @property
    def total(self) -> float:
        return sum(self._seconds.values())

    def breakdown(self) -> dict[str, float]:
        """Step → seconds, in the paper's canonical step order."""
        ordered = {
            step: self._seconds[step]
            for step in ALL_STEPS
            if step in self._seconds
        }
        for name, value in self._seconds.items():
            if name not in ordered:
                ordered[name] = value
        return ordered

    def format_table(self) -> str:
        """A printable two-column breakdown ending with a total row.

        Counter rows (cache hits/misses/evictions) follow the timing
        rows when any counter has been recorded.
        """
        rows = [f"{name:<22s} {secs:10.3f}s"
                for name, secs in self.breakdown().items()]
        rows.append(f"{'total':<22s} {self.total:10.3f}s")
        rows.extend(
            f"{name:<22s} {value:10d}"
            for name, value in self.counters().items()
        )
        return "\n".join(rows)
