"""Execution backends: a supervised sharded process pool and an inline
fallback.

:class:`ProcessPoolBackend` runs one persistent worker process per
shard.  The parent saves the database once into a private temporary
column store; each worker opens it (memory-mapped, so the page cache
shares the bytes), builds its own :class:`~repro.api.CajadeSession`,
and then answers one request at a time for exactly the fingerprints
:func:`~repro.serving.scheduler.shard_for` routes to it — so each
worker's parsed queries, provenance tables, warm tries, and mining
memos cover precisely its own shard of the query space, and no state is
duplicated across workers.

Workers use the ``spawn`` start method: a spawned child inherits
nothing (the only bulk data it reads is the store) and avoids
fork-with-threads hazards under the asyncio front-end.  Each shard has
its own request and response queue; the front-end guarantees at most
one outstanding request per shard, so the blocking
:meth:`~ProcessPoolBackend.execute` call can simply await its own
request id on its shard's response queue, polling worker liveness.

**Supervision.**  A dead worker is not a dead shard: ``execute``
detects death (liveness poll), records the failure with the
:class:`~repro.serving.supervisor.ShardSupervisor`, and surfaces a
retryable :class:`~repro.serving.frontend.WorkerDiedError`; the
*next* execute on that shard respawns a replacement that reopens the
store (exponential backoff + seeded jitter between consecutive
respawns) and re-runs the ready handshake; a replacement that cannot
open the store dies before it.  A shard that crash-loops past its
``max_restarts`` consecutive-failure budget is quarantined —
subsequent executes raise :class:`ShardQuarantinedError`, and the
front-end either degrades to :meth:`execute_degraded` (a lazily-built
in-parent session over the parent's own database — slower but
byte-identical) or fast-fails with a structured 503.

**Integrity.**  Workers return one outcome per request —
``("ok", payload, digest)`` or ``("error", kind, message)`` — with a
blake2b digest over each payload; the parent verifies every digest and
raises a retryable :class:`CorruptReplyError` on mismatch, so a
mangled reply can never reach a client (or the response cache).
A deterministic failure (bad SQL, unknown tuple) is an ``error``
outcome of that one request: it touches neither the shard's health nor
any other request.

The parent removes the store on :meth:`stop`, on a failed ``start()``
(after tearing down the spawned workers) and when the constructor fails
after creating it.  A parent killed by SIGKILL leaves it behind.

:class:`InlineBackend` implements the same contract with in-process
sessions (one per shard) and no processes at all — the test/CI
substrate, and ``serve --shards 0``.  Fault injection
(:mod:`repro.serving.faults`) maps worker death onto "drop the shard's
session", so the whole failure matrix is testable without spawning.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import queue
import random
import shutil
import signal
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, NoReturn

from ..api.session import CajadeSession
from ..api.types import ExplanationRequest
from ..core.config import CajadeConfig
from ..core.schema_graph import SchemaGraph
from ..db.database import Database
from .faults import CORRUPT, DELAY, KILL, FaultPlan
from .frontend import (
    CorruptReplyError,
    DeadlineExceededError,
    Outcome,
    ServiceError,
    WorkerDiedError,
    canonical_payload,
)
from .supervisor import ShardSupervisor

_READY_TIMEOUT = 120.0  # spawn + numpy import can be slow on small boxes
_POLL_SECONDS = 0.25
_MAX_RESPAWN_BACKOFF = 2.0
_START_METHOD = "spawn"  # the only honest value: see the module docstring

# Wire-level outcome tags (worker -> parent).
_OK = "ok"
_ERROR = "error"
# Error kinds inside an outcome.
TIMEOUT = "timeout"
DETERMINISTIC = "deterministic"


def _digest(payload: str) -> str:
    """A short integrity checksum over one reply payload."""
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=8
    ).hexdigest()


def _corrupt_payload(payload: str) -> str:
    """Flip the last character (fault injection's 'mangled wire')."""
    if not payload:
        return "\x00"
    last = payload[-1]
    return payload[:-1] + chr((ord(last) + 1) % 128)


def _run(
    session: CajadeSession,
    request: ExplanationRequest,
    deadline: float | None,
) -> tuple:
    """Answer one request on a session: a checksummed wire outcome.

    A deadline that already passed is a ``timeout`` outcome without
    touching the engine; an exception is that request's own
    ``deterministic`` error (retrying would fail identically).
    """
    if deadline is not None and deadline <= time.time():
        return (_ERROR, TIMEOUT, "deadline expired before execution")
    try:
        payload = canonical_payload(session.explain(request))
    except Exception as exc:
        return (_ERROR, DETERMINISTIC, f"{type(exc).__name__}: {exc}")
    return (_OK, payload, _digest(payload))


def _verified(shard: int, reply: tuple, corrupt: bool) -> Outcome:
    """Checksum-verify a reply's payload and strip the digest from the
    wire form.  ``corrupt`` applies the injected wire mangling *before*
    verification — proving a corrupt reply cannot get through."""
    if reply[0] != _OK:
        return tuple(reply)
    _tag, payload, digest = reply
    if corrupt:
        payload = _corrupt_payload(payload)
    if _digest(payload) != digest:
        raise CorruptReplyError(
            f"shard {shard} reply failed checksum verification"
        )
    return (_OK, payload)


def _worker_main(
    shard: int,
    incarnation: int,
    store_directory: str,
    schema_graph: SchemaGraph,
    config: CajadeConfig,
    fault_plan: FaultPlan | None,
    request_queue: "mp.Queue[Any]",
    response_queue: "mp.Queue[Any]",
) -> None:
    """Worker loop: open the store, build a session, answer requests."""
    if fault_plan is not None and fault_plan.startup_crash(
        shard, incarnation
    ):
        os._exit(3)
    try:
        # A store that fails to open raises here: the worker dies
        # before its handshake, which the parent counts as a failure.
        db = Database.open(store_directory)
        session = CajadeSession(db, schema_graph, config)
        response_queue.put(("ready", shard, incarnation))
        while True:
            message = request_queue.get()
            if message is None:
                break
            request_id, request, deadline = message
            response_queue.put(
                ("reply", request_id, _run(session, request, deadline))
            )
    except KeyboardInterrupt:
        # A terminal Ctrl-C signals the whole foreground process
        # group; the parent coordinates shutdown, so exit quietly
        # instead of spraying a traceback per worker.
        pass


class _SupervisedBackend:
    """The per-request backend contract, written once.

    ``execute`` is one state machine for both backends: quarantine
    check, fault admission, the backend's own ``_reply``, digest
    verification, then success or failure accounting with the shard's
    supervisor.  A subclass supplies only ``_reply(shard, request,
    deadline, kill)`` — deliver one request to the shard's session and
    return its checksummed wire outcome, raising
    :class:`WorkerDiedError` when the session was lost (``kill`` asks
    it to lose the session first: the injected death).
    """

    def __init__(
        self,
        db: Database,
        schema_graph: SchemaGraph | None,
        config: CajadeConfig | None,
        num_shards: int,
        max_restarts: int,
        fault_plan: FaultPlan | None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.base_config = config or CajadeConfig()
        self._db = db
        self._schema_graph = (
            schema_graph or SchemaGraph.from_database(db)
        )
        self._fault_plan = fault_plan
        self._supervisor = ShardSupervisor(
            num_shards, max_restarts=max_restarts
        )
        self._degraded_sessions: dict[int, CajadeSession] = {}
        self._lock = threading.Lock()

    def _new_session(self) -> CajadeSession:
        return CajadeSession(
            self._db, self._schema_graph, self.base_config
        )

    def health(self) -> dict:
        """Per-shard supervision state plus fault-injection totals."""
        snapshot = self._supervisor.snapshot()
        if self._fault_plan is not None:
            snapshot["faults_injected"] = self._fault_plan.fired_total
        return snapshot

    def execute(
        self,
        shard: int,
        request: ExplanationRequest,
        deadline: float | None,
    ) -> Outcome:
        self._supervisor.check(shard)
        faults: set[str] = set()
        if self._fault_plan is not None:
            for action in self._fault_plan.admit(shard):
                if action.kind == DELAY:
                    time.sleep(action.delay_seconds)
                faults.add(action.kind)
        try:
            reply = self._reply(shard, request, deadline, KILL in faults)
            outcome = _verified(shard, reply, CORRUPT in faults)
        except (WorkerDiedError, CorruptReplyError) as exc:
            self._fail(shard, exc)
        self._supervisor.record_success(shard)
        return outcome

    def _fail(self, shard: int, exc: ServiceError) -> NoReturn:
        """Record one shard failure, then surface it: retryable while
        the restart budget lasts, quarantine once it is spent."""
        if not self._supervisor.record_failure(shard, exc):
            self._supervisor.check(shard)  # raises ShardQuarantinedError
        raise exc

    def execute_degraded(
        self,
        shard: int,
        request: ExplanationRequest,
        deadline: float | None,
    ) -> Outcome:
        """Degraded-mode execution for a quarantined shard: a lazily
        built in-parent session over the original database.  Slower
        (no warm worker state) but byte-identical — the session memo
        contract does not care which process runs the mining."""
        with self._lock:
            session = self._degraded_sessions.get(shard)
            if session is None:
                session = self._new_session()
                self._degraded_sessions[shard] = session
        return _verified(shard, _run(session, request, deadline), False)

    def stop(self) -> None:
        with self._lock:
            for session in self._degraded_sessions.values():
                session.close()
            self._degraded_sessions.clear()


class _Worker:
    """Parent-side record of one shard-worker incarnation."""

    def __init__(self, ctx: Any, shard: int, incarnation: int):
        self.shard = shard
        self.incarnation = incarnation
        self.request_queue: "mp.Queue[Any]" = ctx.Queue()
        self.response_queue: "mp.Queue[Any]" = ctx.Queue()
        self.process: Any = None
        self.dead = False


class ProcessPoolBackend(_SupervisedBackend):
    """One persistent spawned process per fingerprint shard, supervised."""

    def __init__(
        self,
        db: Database,
        schema_graph: SchemaGraph | None = None,
        config: CajadeConfig | None = None,
        num_shards: int = 2,
        max_restarts: int = 3,
        restart_backoff: float = 0.1,
        fault_plan: FaultPlan | None = None,
        seed: int = 0,
    ):
        super().__init__(
            db, schema_graph, config, num_shards, max_restarts, fault_plan
        )
        self._ctx = mp.get_context(_START_METHOD)
        self._restart_backoff = restart_backoff
        self._restart_rng = random.Random(seed)
        self._incarnations = [0] * num_shards
        self._request_seq = [0] * num_shards
        self._workers: list[_Worker | None] = [None] * num_shards
        self._started = False
        self._stopped = False
        self._store = Path(tempfile.mkdtemp(prefix="cajade-store-"))
        try:
            db.save(self._store)
            self._shared_bytes = sum(
                path.stat().st_size for path in self._store.glob("*.bin")
            )
        except BaseException:
            self._remove_store()
            raise

    @property
    def store_directory(self) -> Path:
        """The column store every worker opens (removed by :meth:`stop`)."""
        return self._store

    @property
    def shared_bytes(self) -> int:
        """Bytes of the store's data files, which every worker maps (the
        page cache holds them once, not per worker)."""
        return self._shared_bytes

    def _remove_store(self) -> None:
        shutil.rmtree(self._store, ignore_errors=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, shard: int) -> _Worker:
        """Spawn (or respawn) the shard's worker process."""
        self._incarnations[shard] += 1
        worker = _Worker(self._ctx, shard, self._incarnations[shard])
        worker.process = self._ctx.Process(
            target=_worker_main,
            args=(
                shard,
                worker.incarnation,
                str(self._store),
                self._schema_graph,
                self.base_config,
                self._fault_plan,
                worker.request_queue,
                worker.response_queue,
            ),
            daemon=True,
            name=f"cajade-worker-{shard}.{worker.incarnation}",
        )
        worker.process.start()
        self._workers[shard] = worker
        return worker

    def start(self) -> None:
        """Spawn every worker and wait for its ready handshake.

        A partial failure (worker N dies before its handshake) must not
        leak: every already-spawned process is terminated and joined,
        and the store directory is removed, before the error propagates.
        """
        if self._started:
            return
        if self._stopped:
            raise ServiceError("pool was stopped and cannot restart")
        try:
            for shard in range(self.num_shards):
                self._spawn(shard)
            for worker in self._workers:
                assert worker is not None
                self._await_ready(worker)
        except Exception:
            self._teardown_workers()
            self._remove_store()
            self._stopped = True
            raise
        self._started = True

    def _teardown_workers(self) -> None:
        for worker in self._workers:
            if worker is None or worker.process is None:
                continue
            process = worker.process
            if process.is_alive():
                try:
                    worker.request_queue.put(None)
                except Exception:
                    pass
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)

    def stop(self) -> None:
        """Shut workers down and remove the store directory."""
        if self._stopped:
            return
        self._stopped = True
        self._teardown_workers()
        self._remove_store()
        super().stop()

    def __enter__(self) -> "ProcessPoolBackend":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _ensure_worker(self, shard: int) -> _Worker:
        """The shard's live worker, respawning a dead one if allowed.

        Consecutive respawns back off exponentially (seeded jitter) so
        a crash-looping shard does not busy-spin through its quarantine
        budget.  A respawn that fails its ready handshake raises
        :class:`WorkerDiedError` like any other death, so ``execute``
        counts it as another failure; crossing the budget quarantines
        the shard.
        """
        worker = self._workers[shard]
        if (
            worker is not None
            and not worker.dead
            and worker.process is not None
            and worker.process.is_alive()
        ):
            return worker
        if not self._started or self._stopped:
            raise ServiceError(f"pool is not running (shard {shard})")
        if worker is not None and worker.process is not None:
            worker.process.join(timeout=1.0)  # reap the corpse
        streak = self._supervisor.consecutive_failures(shard)
        delay = (
            self._restart_backoff
            * (2 ** max(0, streak - 1))
            * (1.0 + self._restart_rng.random())
        )
        time.sleep(min(delay, _MAX_RESPAWN_BACKOFF))
        worker = self._spawn(shard)
        try:
            self._await_ready(worker)
        except WorkerDiedError:
            worker.dead = True
            raise
        self._supervisor.record_restart(shard)
        return worker

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _reply(
        self,
        shard: int,
        request: ExplanationRequest,
        deadline: float | None,
        kill: bool,
    ) -> tuple:
        worker = self._ensure_worker(shard)
        if kill and worker.process.is_alive():
            os.kill(worker.process.pid, signal.SIGKILL)
        self._request_seq[shard] += 1
        request_id = self._request_seq[shard]
        worker.request_queue.put((request_id, request, deadline))
        return self._await_reply(worker, request_id, deadline)

    def _await_ready(self, worker: _Worker) -> None:
        waited = 0.0
        while True:
            try:
                message = worker.response_queue.get(
                    timeout=_POLL_SECONDS
                )
            except queue.Empty:
                waited += _POLL_SECONDS
                if not worker.process.is_alive():
                    raise WorkerDiedError(
                        f"worker {worker.shard} died during startup "
                        f"(exit code {worker.process.exitcode})"
                    )
                if waited >= _READY_TIMEOUT:
                    raise WorkerDiedError(
                        f"worker {worker.shard} did not become ready "
                        f"within {_READY_TIMEOUT}s"
                    )
                continue
            if message[0] == "ready":
                return
            # Anything else at this stage is a protocol error.
            raise ServiceError(
                f"worker {worker.shard} sent unexpected "
                f"{message[0]!r} during startup"
            )

    def _await_reply(
        self,
        worker: _Worker,
        request_id: int,
        deadline: float | None,
    ) -> tuple:
        while True:
            if deadline is not None and time.time() > deadline:
                # The request is past its budget.  The worker keeps
                # computing; its late reply is dropped as stale by the
                # request-id check of the next dispatch.
                raise DeadlineExceededError(
                    f"shard {worker.shard} request {request_id} "
                    "exceeded its deadline"
                )
            try:
                message = worker.response_queue.get(
                    timeout=_POLL_SECONDS
                )
            except queue.Empty:
                if not worker.process.is_alive():
                    worker.dead = True
                    raise WorkerDiedError(
                        f"worker {worker.shard} died mid-request "
                        f"(exit code {worker.process.exitcode})"
                    )
                continue
            _kind, got_id, reply = message
            if got_id == request_id:
                return reply
            # A stale reply to a request the caller gave up on; drop
            # it and keep waiting for ours.


class InlineBackend(_SupervisedBackend):
    """The same contract, executed by in-process sessions.

    One :class:`CajadeSession` per shard mirrors the pool's state
    layout (each shard's tries and memos warm independently) without
    any processes — deterministic and fast for tests, and a correct
    single-process fallback for ``serve --shards 0``.

    Fault injection maps the process-pool failure matrix onto inline
    analogues: ``KILL`` drops the shard's session (its warm state — the
    exact loss a worker death causes) and raises a retryable
    :class:`WorkerDiedError`; ``CORRUPT`` mangles a reply before the
    same checksum verification the pool performs; ``DELAY`` sleeps.
    The supervisor accounting is identical, so restart/quarantine/
    degraded paths are testable without spawning a single process.
    """

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
            db, schema_graph, config, num_shards, max_restarts, fault_plan
        )
        self._sessions: list[CajadeSession | None] = [
            self._new_session() for _ in range(num_shards)
        ]
        self.requests_executed = 0

    def start(self) -> None:  # symmetric with the pool
        pass

    def stop(self) -> None:
        for session in self._sessions:
            if session is not None:
                session.close()
        super().stop()

    def session(self, shard: int) -> CajadeSession | None:
        """The shard's session (test hook); None while lost to a kill."""
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
            # The inline analogue of a respawn: the session lost to a
            # kill is rebuilt cold by the next request for its shard.
            session = self._sessions[shard] = self._new_session()
            self._supervisor.record_restart(shard)
        if kill:
            # The inline analogue of worker death: the shard's warm
            # session is lost.
            session.close()
            self._sessions[shard] = None
            raise WorkerDiedError(
                f"shard {shard} session killed by fault injection"
            )
        return _run(session, request, deadline)
