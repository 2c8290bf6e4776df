"""Request batching and deterministic fingerprint sharding.

The scheduler sits between the asyncio front-end and the worker pool.
It owns two decisions:

- **Which worker?**  :func:`shard_for` maps a query fingerprint to a
  shard by hashing the fingerprint itself (the hex digest is already a
  blake2b hash, so its leading 64 bits are uniformly distributed).  The
  mapping is a pure function of ``(fingerprint, num_shards)``, so every
  request against the same SQL lands on the same persistent worker —
  whose :class:`~repro.api.CajadeSession` therefore accumulates the
  parsed query, provenance table, warm materialization trie, and mining
  memo for exactly its own fingerprints.

- **Which order?**  Within one dispatch, queued requests for a shard
  are grouped by fingerprint then question (:func:`locality_order`, the
  same ordering contract as ``CajadeSession.explain_batch``), so a
  worker finishes all trie reuse for one query before moving to the
  next, instead of thrashing between engines.

Batches are cut by :meth:`Scheduler.take_batch`, which drains up to
``max_batch`` queued tickets for one shard.  The front-end enforces at
most one outstanding batch per shard, so a long batch on shard 0 never
blocks dispatch to shard 1.

Queues are *bounded* (``max_queue_depth``): :meth:`Scheduler.enqueue`
raises :class:`QueueFullError` when a shard's backlog is at capacity,
which the front-end translates into a structured 429 — load shedding
is a server-side admission decision here, not a client courtesy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..api.types import ExplanationRequest, locality_ranking


def shard_for(fingerprint: str, num_shards: int) -> int:
    """Deterministically map a query fingerprint to a shard index."""
    if num_shards <= 0:
        raise ValueError("num_shards must be >= 1")
    return int(fingerprint[:16], 16) % num_shards


class QueueFullError(Exception):
    """A shard's queue is at ``max_queue_depth``; the ticket was not
    enqueued.  The front-end maps this to a 429 with Retry-After."""


@dataclass
class Ticket:
    """One admitted request travelling through the scheduler.

    ``key`` is the response-cache key (fingerprint, question repr,
    mining-config key); every ticket with the same key resolves to the
    same payload, and the front-end coalesces them onto one ticket
    before enqueueing.  ``deadline`` is an absolute ``time.time()``
    epoch the whole lifecycle (queueing, execution, retries) must fit
    inside (``None`` = no budget); ``attempts`` counts completed
    retries for the front-end's bounded-retry policy.  ``context`` is
    an opaque front-end cookie the scheduler never inspects.
    """

    request: ExplanationRequest
    key: tuple
    seq: int
    deadline: float | None = None
    attempts: int = 0
    context: Any = None

    @property
    def fingerprint(self) -> str:
        return self.request.fingerprint


def locality_order(tickets: list[Ticket]) -> list[Ticket]:
    """Sort a batch for trie locality: fingerprint, then question.

    The ranking is :func:`repro.api.types.locality_ranking` — the one
    ``explain_batch`` uses — so the worker's per-query engine and mining
    memo see maximal consecutive reuse.
    """
    order = locality_ranking(
        (ticket.fingerprint, repr(ticket.request.question))
        for ticket in tickets
    )
    return [tickets[position] for position in order]


@dataclass
class Scheduler:
    """Per-shard FIFO queues with locality-ordered batch draining."""

    num_shards: int
    max_batch: int = 16
    max_queue_depth: int | None = None
    _queues: list[deque[Ticket]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ValueError("num_shards must be >= 1")
        if self.max_batch <= 0:
            raise ValueError("max_batch must be >= 1")
        if self.max_queue_depth is not None and self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        self._queues = [deque() for _ in range(self.num_shards)]

    def shard_of(self, fingerprint: str) -> int:
        """The shard a fingerprint routes to (admission pre-check)."""
        return shard_for(fingerprint, self.num_shards)

    def enqueue(self, ticket: Ticket) -> int:
        """Queue a ticket on its fingerprint's shard; returns the shard.

        Raises :class:`QueueFullError` when the shard's backlog is at
        ``max_queue_depth`` — the ticket is *not* enqueued.
        """
        shard = shard_for(ticket.fingerprint, self.num_shards)
        queue = self._queues[shard]
        if (
            self.max_queue_depth is not None
            and len(queue) >= self.max_queue_depth
        ):
            raise QueueFullError(
                f"{len(queue)} tickets >= max_queue_depth="
                f"{self.max_queue_depth}"
            )
        queue.append(ticket)
        return shard

    def take_batch(self, shard: int) -> list[Ticket]:
        """Drain up to ``max_batch`` tickets for one shard, ordered for
        trie locality.  Empty list when the shard has no backlog."""
        queue = self._queues[shard]
        batch: list[Ticket] = []
        while queue and len(batch) < self.max_batch:
            batch.append(queue.popleft())
        return locality_order(batch)

    def pending(self, shard: int) -> int:
        return len(self._queues[shard])

    @property
    def depth(self) -> int:
        """Total queued tickets across all shards."""
        return sum(len(q) for q in self._queues)
