"""Service-level metrics: counters, gauges, and per-stage latency.

Reuses the :class:`~repro.core.timing.StepTimer` counter/gauge split —
admission, coalescing, cache hits, and dispatch counts accumulate;
queue depth is a high-water gauge.  Latency is tracked as raw
per-request seconds over a fixed window of the most recent requests, so
the ``/stats`` endpoint reports p50/p99 without binning error and
without growing with uptime.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Collection

from ..core import timing
from ..engine.trie import PrefixCache


# Finished requests the latency percentiles look back over: bounds
# ``/stats`` memory and the per-poll sort for any uptime.
LATENCY_WINDOW = 4096


def percentile(samples: Collection[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Matches ``numpy.percentile``'s default method but avoids pulling
    the samples into an array for every ``/stats`` poll.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


@dataclass
class ServiceStats:
    """Everything the ``/stats`` endpoint reports."""

    timer: timing.StepTimer = field(default_factory=timing.StepTimer)
    latencies: deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW)
    )
    completed: int = 0
    cache: PrefixCache | None = None
    workers: int = 0
    health_provider: Callable[[], dict] | None = None
    last_dispatch_seconds: float = 0.0
    _max_depth: int = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def admitted(self) -> None:
        self.timer.count(timing.SERVICE_REQUESTS)

    def coalesced(self) -> None:
        self.timer.count(timing.SERVICE_COALESCED)

    def cache_hit(self) -> None:
        self.timer.count(timing.SERVICE_CACHE_HITS)

    def cache_miss(self) -> None:
        self.timer.count(timing.SERVICE_CACHE_MISSES)

    def dispatched(self) -> None:
        """One ticket handed to the backend (``/stats`` key ``batches``,
        kept for the benches that read it)."""
        self.timer.count(timing.SERVICE_BATCHES)

    def retried(self) -> None:
        self.timer.count(timing.SERVICE_RETRIES)

    def shed(self) -> None:
        self.timer.count(timing.SERVICE_SHED)

    def deadline_exceeded(self) -> None:
        self.timer.count(timing.SERVICE_DEADLINE_EXCEEDED)

    def degraded(self) -> None:
        self.timer.count(timing.SERVICE_DEGRADED)

    def failed(self) -> None:
        self.timer.count(timing.SERVICE_FAILURES)

    def observe_depth(self, depth: int) -> None:
        """Track the deepest backlog seen (high-water gauge)."""
        if depth > self._max_depth:
            self._max_depth = depth
            self.timer.set_gauge(timing.SERVICE_QUEUE_DEPTH, depth)

    def observe_latency(self, seconds: float, stage: str) -> None:
        """Record one finished request's end-to-end latency, attributed
        to the stage that resolved it (``cache`` / ``coalesced`` /
        ``executed`` / ``degraded``)."""
        self.latencies.append(seconds)
        self.completed += 1
        self.timer.add(f"Service {stage}", seconds)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-ready view for the ``/stats`` endpoint."""
        counters = self.timer.counters()
        requests = counters.get(timing.SERVICE_REQUESTS, 0)
        hits = counters.get(timing.SERVICE_CACHE_HITS, 0)
        misses = counters.get(timing.SERVICE_CACHE_MISSES, 0)
        lookups = hits + misses
        failures = counters.get(timing.SERVICE_FAILURES, 0)
        completed = self.completed
        finished = completed + failures
        out = {
            "requests": requests,
            "coalesced": counters.get(timing.SERVICE_COALESCED, 0),
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_hit_rate": (hits / lookups) if lookups else 0.0,
            "batches": counters.get(timing.SERVICE_BATCHES, 0),
            "retries": counters.get(timing.SERVICE_RETRIES, 0),
            "shed": counters.get(timing.SERVICE_SHED, 0),
            "deadline_exceeded": counters.get(
                timing.SERVICE_DEADLINE_EXCEEDED, 0
            ),
            "degraded": counters.get(timing.SERVICE_DEGRADED, 0),
            "failures": failures,
            # Of the requests that finished (either way), the fraction
            # that resolved successfully — shed requests were never
            # admitted work, so they do not count against availability.
            "availability": (completed / finished) if finished else 1.0,
            "max_queue_depth": self._max_depth,
            "workers": self.workers,
            "completed": completed,
            "latency_p50_ms": percentile(self.latencies, 50.0) * 1e3,
            "latency_p99_ms": percentile(self.latencies, 99.0) * 1e3,
            "stage_seconds": {
                name: round(secs, 6)
                for name, secs in self.timer.breakdown().items()
            },
        }
        if self.cache is not None:
            # entries/median are point-in-time gauges; refresh them the
            # way the engine does before reading its cache stats.
            cache_view = self.cache.refresh_gauges().as_dict()
            cache_view["capacity_bytes"] = self.cache.capacity_bytes
            out["response_cache"] = cache_view
        if self.health_provider is not None:
            out["health"] = self.health_provider()
        return out
