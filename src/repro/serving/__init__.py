"""The concurrent explanation service (serving layer).

Layering: db → core → engine → api → **serving** → cli.  This package
multiplexes many concurrent :class:`~repro.api.ExplanationRequest`s
over the session API:

- :mod:`~repro.serving.frontend` — asyncio admission: cross-request
  response cache, in-flight coalescing, deadline budgets, bounded
  retries, load shedding, ``submit()`` and the HTTP endpoint
  (``POST /explain``, ``GET /stats``) with structured JSON errors;
- :mod:`~repro.serving.scheduler` — deterministic fingerprint → shard
  routing, bounded per-shard FIFO queues;
- :mod:`~repro.serving.pool` — the supervised sharded worker pool
  (auto-restart, checksummed replies, quarantine), the only place a
  question is answered;
- :mod:`~repro.serving.supervisor` — per-shard health state machine
  (healthy → restarting → quarantined);
- :mod:`~repro.serving.faults` — deterministic fault injection
  (kill / delay / corrupt / startup-crash) for chaos tests and the
  chaos benchmark;
- :mod:`~repro.serving.metrics` — service counters, health, and
  latency percentiles behind ``/stats``.
"""

from .faults import (
    CORRUPT,
    DELAY,
    KILL,
    STARTUP_CRASH,
    FaultPlan,
    FaultRule,
)
from .frontend import (
    BadRequestError,
    CorruptReplyError,
    DeadlineExceededError,
    ExplanationService,
    ServiceError,
    ServiceOverloadedError,
    ServiceResponse,
    ShardQuarantinedError,
    WorkerDiedError,
    canonical_payload,
    request_cache_key,
    request_from_json,
    serve_http,
    timeout_from_json,
)
from .metrics import ServiceStats
from .pool import ProcessPoolBackend
from .scheduler import (
    QueueFullError,
    Scheduler,
    Ticket,
    shard_for,
)
from .supervisor import (
    HEALTHY,
    QUARANTINED,
    RESTARTING,
    ShardHealth,
    ShardSupervisor,
)

__all__ = [
    "CORRUPT",
    "DELAY",
    "HEALTHY",
    "KILL",
    "QUARANTINED",
    "RESTARTING",
    "STARTUP_CRASH",
    "BadRequestError",
    "CorruptReplyError",
    "DeadlineExceededError",
    "ExplanationService",
    "FaultPlan",
    "FaultRule",
    "ProcessPoolBackend",
    "QueueFullError",
    "Scheduler",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceResponse",
    "ServiceStats",
    "ShardHealth",
    "ShardQuarantinedError",
    "ShardSupervisor",
    "Ticket",
    "WorkerDiedError",
    "canonical_payload",
    "request_cache_key",
    "request_from_json",
    "serve_http",
    "shard_for",
    "timeout_from_json",
]
