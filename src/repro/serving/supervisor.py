"""Parent-side supervision state for the sharded worker backends.

Each shard moves through a three-state machine:

```
              failure (death, failed handshake, corrupt reply)
   ┌─────────┐ ───────────────────────────────────────► ┌────────────┐
   │ HEALTHY │                                          │ RESTARTING │
   └─────────┘ ◄─────────────────────────────────────── └────────────┘
        ▲         successful request (resets the streak)      │
        │                                                     │
        │          consecutive failures > max_restarts        ▼
        │                                              ┌─────────────┐
        └───────────────── (terminal) ────────────────►│ QUARANTINED │
                                                       └─────────────┘
```

The supervisor only *decides*; the backend owning the processes does
the respawning.  ``max_restarts`` bounds **consecutive** failures — a
successful request resets the streak, so a worker that is killed every
few hundred requests restarts forever, while a crash-looping shard
(e.g. one whose startup deterministically fails) is quarantined after
``max_restarts + 1`` straight failures.  Quarantine is terminal for the
backend's lifetime: requests for that shard either degrade to an
inline in-parent execution or fast-fail with a structured 503,
per the front-end's ``degraded_mode``.

All methods are thread-safe: failures are recorded from executor
threads while ``snapshot()`` is read from the event loop for
``GET /stats``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .frontend import ShardQuarantinedError

HEALTHY = "healthy"
RESTARTING = "restarting"
QUARANTINED = "quarantined"


@dataclass
class ShardHealth:
    """One shard's supervision record (mutated under the supervisor lock)."""

    shard: int
    state: str = HEALTHY
    restarts: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    last_error: str = ""

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "state": self.state,
            "restarts": self.restarts,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
        }


class ShardSupervisor:
    """Tracks per-shard health and the restart/quarantine decision."""

    def __init__(self, num_shards: int, max_restarts: int = 3):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.max_restarts = max_restarts
        self._shards = [ShardHealth(shard) for shard in range(num_shards)]
        self._lock = threading.Lock()

    def check(self, shard: int) -> None:
        """Raise :class:`ShardQuarantinedError` if the shard is gone."""
        with self._lock:
            health = self._shards[shard]
            if health.state == QUARANTINED:
                raise ShardQuarantinedError(
                    f"shard {shard} is quarantined after "
                    f"{health.consecutive_failures} consecutive failures "
                    f"(last: {health.last_error})"
                )

    def record_failure(self, shard: int, error: BaseException | str) -> bool:
        """Record one failure; returns True when a restart is allowed,
        False when the shard just crossed into quarantine."""
        with self._lock:
            health = self._shards[shard]
            health.failures += 1
            health.consecutive_failures += 1
            health.last_error = str(error)
            if health.consecutive_failures > self.max_restarts:
                health.state = QUARANTINED
                return False
            health.state = RESTARTING
            return True

    def record_restart(self, shard: int) -> None:
        """A replacement worker came up (ready handshake succeeded)."""
        with self._lock:
            self._shards[shard].restarts += 1

    def record_success(self, shard: int) -> None:
        """A request completed: the failure streak resets."""
        with self._lock:
            health = self._shards[shard]
            if health.state != QUARANTINED:
                health.state = HEALTHY
                health.consecutive_failures = 0

    # -- reporting -------------------------------------------------------
    def consecutive_failures(self, shard: int) -> int:
        with self._lock:
            return self._shards[shard].consecutive_failures

    def snapshot(self) -> dict:
        """A JSON-ready health view for ``GET /stats``."""
        with self._lock:
            return {
                "shards": [h.as_dict() for h in self._shards],
                "restarts": sum(h.restarts for h in self._shards),
                "failures": sum(h.failures for h in self._shards),
                "quarantined": [
                    h.shard for h in self._shards if h.state == QUARANTINED
                ],
            }
