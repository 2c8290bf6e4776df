"""Per-shard request queues and deterministic fingerprint sharding.

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

- **Which order?**  Arrival order: :meth:`Scheduler.take` pops one
  ticket FIFO per shard.  The worker's session keeps every query's
  state resident, so no reordering buys locality, and each request is
  answered when *it* is done.  The front-end runs one ticket per shard
  at a time, so a long mining on shard 0 never blocks dispatch to
  shard 1.

Queues are *bounded* (``max_queue_depth``): :meth:`Scheduler.enqueue`
raises :class:`QueueFullError` when a shard's backlog is at capacity,
which the front-end translates into a structured 429 — load shedding
is a server-side admission decision here, not a client courtesy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..api.types import ExplanationRequest


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
    retries for the front-end's bounded-retry policy.
    """

    request: ExplanationRequest
    key: tuple
    deadline: float | None = None
    attempts: int = 0

    @property
    def fingerprint(self) -> str:
        return self.request.fingerprint


@dataclass
class Scheduler:
    """Bounded per-shard FIFO queues."""

    num_shards: int
    max_queue_depth: int | None = None
    _queues: list[deque[Ticket]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ValueError("num_shards must be >= 1")
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

    def take(self, shard: int) -> Ticket | None:
        """Pop the shard's oldest ticket; None when it has no backlog."""
        queue = self._queues[shard]
        return queue.popleft() if queue else None

    def pending(self, shard: int) -> int:
        return len(self._queues[shard])

    @property
    def depth(self) -> int:
        """Total queued tickets across all shards."""
        return sum(len(q) for q in self._queues)
