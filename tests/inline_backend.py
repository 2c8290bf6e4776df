"""The in-process test double of the serving backend contract.

:class:`InlineBackend` inherits ``execute`` — quarantine check, fault
admission, digest verification and supervisor accounting — from
:class:`repro.serving.pool._SupervisedBackend`, the same state machine
:class:`~repro.serving.ProcessPoolBackend` runs, and supplies only
``_reply``: one :class:`~repro.api.CajadeSession` per shard instead of
one worker process per shard.  So the restart, quarantine, 503, retry
and HTTP tests run in milliseconds without spawning anything.

Fault injection maps the pool's failure matrix onto inline analogues:
``KILL`` drops the shard's session (its warm state — the exact loss a
worker death causes) and raises a retryable :class:`WorkerDiedError`;
the next request for that shard rebuilds it cold (the analogue of a
respawn); ``CORRUPT`` mangles a reply before the same checksum
verification the pool performs; ``DELAY`` sleeps.
"""

from __future__ import annotations

import threading

from repro.api import CajadeSession, ExplanationRequest
from repro.core.config import CajadeConfig
from repro.core.schema_graph import SchemaGraph
from repro.db import Database
from repro.serving import FaultPlan, WorkerDiedError
from repro.serving.pool import _run, _SupervisedBackend


class InlineBackend(_SupervisedBackend):
    """The backend contract, executed by in-process sessions."""

    def __init__(
        self,
        db: Database,
        schema_graph: SchemaGraph | None = None,
        config: CajadeConfig | None = None,
        num_shards: int = 1,
        max_restarts: int = 3,
        fault_plan: FaultPlan | None = None,
    ):
        super().__init__(
            schema_graph or SchemaGraph.from_database(db),
            config,
            num_shards,
            max_restarts,
            fault_plan,
        )
        self._db = db
        self._lock = threading.Lock()
        self._sessions: list[CajadeSession | None] = [
            self._new_session() for _ in range(num_shards)
        ]
        self.requests_executed = 0

    def _new_session(self) -> CajadeSession:
        return CajadeSession(self._db, self._schema_graph, self.base_config)

    def start(self) -> None:  # symmetric with the pool
        pass

    def stop(self) -> None:
        for session in self._sessions:
            if session is not None:
                session.close()

    def session(self, shard: int) -> CajadeSession | None:
        """The shard's session; None while lost to a kill."""
        return self._sessions[shard]

    def _reply(
        self,
        shard: int,
        request: ExplanationRequest,
        deadline: float | None,
        kill: bool,
    ) -> tuple:
        with self._lock:
            self.requests_executed += 1
        session = self._sessions[shard]
        if session is None:
            session = self._sessions[shard] = self._new_session()
            self._supervisor.record_restart(shard)
        if kill:
            session.close()
            self._sessions[shard] = None
            raise WorkerDiedError(
                f"shard {shard} session killed by fault injection"
            )
        return _run(session, request, deadline)
