"""Asyncio front-end: admission, coalescing, caching, retries, HTTP.

The request lifecycle (one ``submit()`` call):

1. **Cache probe** — the request is keyed by
   :func:`request_cache_key` — ``(query fingerprint, question repr,
   mining-config key)``.  Two requests with equal keys produce
   byte-identical canonical payloads (that is the session memo's
   contract), so a response cached under the key can be replayed
   verbatim.  The cache is a byte-bounded LRU
   (:class:`~repro.engine.trie.PrefixCache`) over canonical payload
   strings.
2. **Coalescing** — a miss whose key matches an *in-flight* computation
   awaits that computation's future instead of enqueueing a duplicate;
   N concurrent identical requests execute once and fan out.
3. **Admission control** — a genuinely fresh request is admitted only
   if its shard queue is below ``max_queue_depth`` (so the total
   backlog is at most shards × depth); otherwise it fast-fails with a
   structured 429 carrying a ``Retry-After`` estimate (cache hits and
   coalesced joins are never shed — they add no backend work).
4. **Scheduling** — the admitted request becomes a
   :class:`~repro.serving.scheduler.Ticket` (carrying its deadline and
   attempt count) on its fingerprint's shard queue; a per-shard drain
   task pops tickets in arrival order and hands each to the backend
   via the event loop's executor, keeping at most one executing
   request per shard and resolving every ticket as soon as *its* reply
   is in.
5. **Settlement** — the backend returns one *outcome* per request:
   ``("ok", payload)`` resolves the ticket and populates the response
   cache; ``("error", kind, message)`` resolves it with the matching
   :class:`ServiceError` (deterministic errors are **never** retried).
   A retryable failure (worker death, corrupt reply) re-enqueues the
   ticket with exponential backoff + seeded jitter, up to
   ``max_retries`` and within the ticket's deadline budget.  A
   quarantined shard degrades to the backend's inline fallback (still
   byte-identical, just slower) or fast-fails 503, per
   ``degraded_mode``.

Responses carry the canonical payload (:func:`canonical_payload`): the
result's JSON with the volatile ``apt_cache`` engine counters removed,
key-sorted and compactly separated — the byte string that must be
identical whether the request was served cold, warm, coalesced, from
cache, after a worker restart, or by a plain
:class:`~repro.api.CajadeSession`.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Mapping, Protocol

from ..api.session import mining_config_key
from ..api.types import ExplanationRequest
from ..core.config import CajadeConfig
from ..core.explainer import ExplanationResult
from ..core.question import ComparisonQuestion, OutlierQuestion
from ..engine.trie import PrefixCache
from .metrics import ServiceStats
from .scheduler import QueueFullError, Scheduler, Ticket


# ---------------------------------------------------------------------------
# Canonical payloads and cache keys
# ---------------------------------------------------------------------------


def canonical_payload(result: ExplanationResult) -> str:
    """The byte-identity form of one explanation result.

    :meth:`ExplanationResult.to_dict` leaves out ``apt_cache``
    (per-request engine counters — legitimately different between a
    cold run and a warm one); it is serialized with sorted keys and
    compact separators, so equality of these strings is equality of the
    *explanations*, not of the execution path.
    """
    return json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":"), default=str
    )


def request_cache_key(
    request: ExplanationRequest, base: CajadeConfig
) -> tuple:
    """The coalescing/response-cache identity of a request.

    Same key ⇒ byte-identical canonical payload: the fingerprint pins
    the parsed query, the question repr pins the tuples compared, and
    the mining-config key pins every config field that can influence
    output (the cache budget is excluded: it only moves bytes around).
    """
    return (
        request.fingerprint,
        repr(request.question),
        mining_config_key(request.config_for(base)),
    )


class _CachedPayload:
    """A response-cache entry; ``PrefixCache`` needs ``estimated_bytes``."""

    __slots__ = ("payload", "estimated_bytes")

    def __init__(self, payload: str):
        self.payload = payload
        # UTF-8 length plus object overhead; payloads are ASCII-heavy
        # JSON so len() is within a few bytes of the encoded size.
        self.estimated_bytes = len(payload) + 64


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------


class ServiceError(RuntimeError):
    """A request failed inside the service.

    The base class is *deterministic* (``retryable = False``): retrying
    an identical request would fail identically, so neither the server
    nor the client should.  Subclasses carry an HTTP status, a stable
    machine-readable ``kind`` for structured error bodies, and — for
    transient conditions — a ``retry_after`` hint in seconds.
    """

    status = 500
    kind = "internal"
    retryable = False

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class BadRequestError(ServiceError):
    """The request itself is malformed (HTTP 400)."""

    status = 400
    kind = "bad-request"


class DeadlineExceededError(ServiceError):
    """The request's deadline budget ran out (HTTP 504).

    Not retryable server-side: the budget is spent by definition.
    """

    status = 504
    kind = "deadline-exceeded"


class ServiceOverloadedError(ServiceError):
    """Admission control shed the request (HTTP 429 + Retry-After)."""

    status = 429
    kind = "overloaded"


class WorkerDiedError(ServiceError):
    """A worker process died mid-request — transient, retryable (503)."""

    status = 503
    kind = "worker-died"
    retryable = True


class CorruptReplyError(ServiceError):
    """A reply failed checksum verification — transient, retryable."""

    status = 503
    kind = "corrupt-reply"
    retryable = True


class ShardQuarantinedError(ServiceError):
    """The shard crash-looped past its restart budget (HTTP 503)."""

    status = 503
    kind = "quarantined"


@dataclass
class ServiceResponse:
    """What ``submit()`` resolves to."""

    payload: str  # canonical JSON string
    fingerprint: str
    source: str  # "cache" | "coalesced" | "executed" | "degraded"
    latency_seconds: float

    def to_dict(self) -> dict:
        return json.loads(self.payload)


# Per-request outcomes a backend returns: ("ok", payload) or
# ("error", kind, message) with kind in {"deterministic", "timeout"}.
Outcome = tuple


class Backend(Protocol):
    """What the front-end needs from an execution backend."""

    num_shards: int
    base_config: CajadeConfig

    def start(self) -> None: ...

    def stop(self) -> None: ...

    def execute(
        self,
        shard: int,
        request: ExplanationRequest,
        deadline: float | None,
    ) -> Outcome:
        """Run one request (``deadline`` is an absolute epoch or None)
        and return its outcome (blocking; called off the event loop).
        Raises :class:`WorkerDiedError` / :class:`CorruptReplyError`
        for retryable failures, :class:`ShardQuarantinedError` once the
        shard is gone, and :class:`DeadlineExceededError` when the
        request timed out."""
        ...


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class ExplanationService:
    """Concurrent explanation serving over any :class:`Backend`."""

    def __init__(
        self,
        backend: Backend,
        response_cache_mb: float = 64.0,
        request_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        retry_seed: int = 0,
        max_queue_depth: int | None = 64,
        degraded_mode: str = "inline",
    ):
        if response_cache_mb < 0:
            raise ValueError("response_cache_mb must be >= 0")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if degraded_mode not in ("inline", "error"):
            raise ValueError("degraded_mode must be 'inline' or 'error'")
        self._backend = backend
        self._scheduler = Scheduler(
            num_shards=backend.num_shards,
            max_queue_depth=max_queue_depth,
        )
        self._cache = PrefixCache(int(response_cache_mb * 1024 * 1024))
        self._inflight: dict[tuple, asyncio.Future] = {}
        self._drains: dict[int, asyncio.Task] = {}
        self._retry_tasks: set[asyncio.Task] = set()
        self._closed = False
        self._request_timeout = request_timeout
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._retry_rng = random.Random(retry_seed)
        self._degraded_mode = degraded_mode
        self.stats = ServiceStats(
            cache=self._cache,
            workers=backend.num_shards,
            health_provider=getattr(backend, "health", None),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._backend.start()

    async def close(self) -> None:
        """Drain in-flight work (including pending retries), then stop
        the backend."""
        self._closed = True
        while True:
            pending = [
                task
                for task in (*self._drains.values(), *self._retry_tasks)
                if not task.done()
            ]
            if not pending:
                break
            await asyncio.gather(*pending, return_exceptions=True)
        self._backend.stop()

    async def __aenter__(self) -> "ExplanationService":
        self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    async def submit(
        self,
        request: ExplanationRequest,
        timeout: float | None = None,
    ) -> ServiceResponse:
        """Answer one request: cache hit, coalesce, shed, or schedule.

        ``timeout`` overrides the service's ``request_timeout`` for
        this request only; the resulting deadline budget covers the
        whole lifecycle — queueing, execution, and any retries.
        """
        if self._closed:
            raise ServiceError("service is closed")
        start = time.perf_counter()
        budget = timeout if timeout is not None else self._request_timeout
        deadline = (time.time() + budget) if budget else None
        self.stats.admitted()
        key = request_cache_key(request, self._backend.base_config)

        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hit()
            return self._resolved(
                request, cached.payload, "cache", start
            )
        self.stats.cache_miss()

        future = self._inflight.get(key)
        if future is not None:
            self.stats.coalesced()
            payload, _source = await self._await_payload(
                future, deadline, budget
            )
            return self._resolved(request, payload, "coalesced", start)

        # Admission control: shed before creating any backend work.
        shard = self._scheduler.shard_of(request.fingerprint)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        ticket = Ticket(request=request, key=key, deadline=deadline)
        try:
            self._scheduler.enqueue(ticket)
        except QueueFullError as exc:
            self.stats.shed()
            raise ServiceOverloadedError(
                f"shard {shard} queue is full ({exc})",
                retry_after=self._retry_after_hint(),
            ) from None
        self._inflight[key] = future
        self.stats.observe_depth(self._scheduler.depth)
        self._kick(shard)
        payload, source = await self._await_payload(future, deadline, budget)
        return self._resolved(request, payload, source, start)

    async def _await_payload(
        self,
        future: asyncio.Future,
        deadline: float | None,
        budget: float | None,
    ) -> tuple[str, str]:
        """Wait for a ticket's future within this waiter's own budget.

        The future is shielded: a waiter timing out never cancels the
        shared computation other waiters (or the cache) still want.
        """
        shielded = asyncio.shield(future)
        if deadline is None:
            return await shielded
        remaining = deadline - time.time()
        try:
            return await asyncio.wait_for(shielded, max(0.0, remaining))
        except asyncio.TimeoutError:
            self.stats.deadline_exceeded()
            raise DeadlineExceededError(
                f"request exceeded its {budget:g}s deadline budget"
            ) from None

    def _retry_after_hint(self) -> float:
        """How long a shed client should wait: roughly one request."""
        return max(0.1, self.stats.last_dispatch_seconds)

    def _resolved(
        self,
        request: ExplanationRequest,
        payload: str,
        source: str,
        start: float,
    ) -> ServiceResponse:
        latency = time.perf_counter() - start
        self.stats.observe_latency(latency, source)
        return ServiceResponse(
            payload=payload,
            fingerprint=request.fingerprint,
            source=source,
            latency_seconds=latency,
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _kick(self, shard: int) -> None:
        """Ensure a drain task is running for the shard."""
        task = self._drains.get(shard)
        if task is not None and not task.done():
            return
        self._drains[shard] = asyncio.get_running_loop().create_task(
            self._drain(shard)
        )

    async def _drain(self, shard: int) -> None:
        """Execute the shard's tickets one at a time, in arrival order,
        until its queue is empty.

        One drain task per shard ⇒ at most one executing request per
        shard; each ticket resolves as soon as its own reply is in.
        """
        loop = asyncio.get_running_loop()
        while (ticket := self._scheduler.take(shard)) is not None:
            if (
                ticket.deadline is not None
                and ticket.deadline <= time.time()
            ):
                # Shed expired work before it wastes a worker.
                self.stats.deadline_exceeded()
                self._resolve_error(
                    ticket,
                    DeadlineExceededError("deadline expired while queued"),
                )
                continue
            self.stats.dispatched()
            t0 = time.perf_counter()
            try:
                outcome = await loop.run_in_executor(
                    None,
                    self._backend.execute,
                    shard,
                    ticket.request,
                    ticket.deadline,
                )
            except ShardQuarantinedError as exc:
                await self._degrade(shard, ticket, exc)
            except ServiceError as exc:
                if isinstance(exc, DeadlineExceededError):
                    self.stats.deadline_exceeded()
                if exc.retryable:
                    self._retry_or_fail(ticket, exc)
                else:
                    self._resolve_error(ticket, exc)
            except Exception as exc:  # unknown backend failure
                self._resolve_error(
                    ticket,
                    ServiceError(
                        f"shard {shard} failed: "
                        f"{type(exc).__name__}: {exc}"
                    ),
                )
            else:
                self.stats.last_dispatch_seconds = (
                    time.perf_counter() - t0
                )
                self._settle(ticket, outcome, "executed")

    def _settle(
        self, ticket: Ticket, outcome: Outcome, source: str
    ) -> None:
        """Resolve one ticket from a backend outcome."""
        if outcome[0] == "ok":
            payload = outcome[1]
            self._cache.put(ticket.key, _CachedPayload(payload))
            future = self._inflight.pop(ticket.key, None)
            if future is not None and not future.done():
                future.set_result((payload, source))
            return
        _tag, kind, message = outcome
        if kind == "timeout":
            self.stats.deadline_exceeded()
            self._resolve_error(ticket, DeadlineExceededError(message))
        else:
            # Deterministic failure: retrying would fail identically.
            self._resolve_error(ticket, ServiceError(message))

    def _resolve_error(self, ticket: Ticket, exc: ServiceError) -> None:
        future = self._inflight.pop(ticket.key, None)
        if future is not None and not future.done():
            self.stats.failed()
            future.set_exception(exc)
            # Every waiter may already have timed out of its own
            # budget; mark the exception retrieved so an unobserved
            # future does not warn at garbage collection.
            future.exception()

    def _retry_or_fail(self, ticket: Ticket, exc: ServiceError) -> None:
        """Re-enqueue a retryable ticket with backoff, or fail it."""
        delay = (
            self._retry_backoff
            * (2 ** ticket.attempts)
            * (1.0 + self._retry_rng.random())
        )
        budget_ok = (
            ticket.deadline is None
            or ticket.deadline > time.time() + delay
        )
        if ticket.attempts >= self._max_retries or not budget_ok:
            self._resolve_error(ticket, exc)
            return
        ticket.attempts += 1
        self.stats.retried()
        task = asyncio.get_running_loop().create_task(
            self._requeue_later(ticket, delay)
        )
        self._retry_tasks.add(task)
        task.add_done_callback(self._retry_tasks.discard)

    async def _requeue_later(self, ticket: Ticket, delay: float) -> None:
        await asyncio.sleep(delay)
        try:
            shard = self._scheduler.enqueue(ticket)
        except QueueFullError:
            self.stats.shed()
            self._resolve_error(
                ticket,
                ServiceOverloadedError(
                    "queue full on retry",
                    retry_after=self._retry_after_hint(),
                ),
            )
            return
        self._kick(shard)

    async def _degrade(
        self, shard: int, ticket: Ticket, exc: ServiceError
    ) -> None:
        """A quarantined shard: inline fallback or structured 503."""
        fallback = getattr(self._backend, "execute_degraded", None)
        if self._degraded_mode != "inline" or fallback is None:
            self._resolve_error(ticket, exc)
            return
        self.stats.degraded()
        try:
            outcome = await asyncio.get_running_loop().run_in_executor(
                None, fallback, shard, ticket.request, ticket.deadline
            )
        except Exception as fallback_exc:
            self._resolve_error(
                ticket,
                ServiceError(
                    f"degraded execution for shard {shard} failed: "
                    f"{type(fallback_exc).__name__}: {fallback_exc}"
                ),
            )
            return
        self._settle(ticket, outcome, "degraded")


# ---------------------------------------------------------------------------
# JSON request construction (HTTP boundary)
# ---------------------------------------------------------------------------


def question_from_json(
    data: Mapping
) -> ComparisonQuestion | OutlierQuestion:
    """Build a question from its wire form.

    ``{"primary": {...}, "secondary": {...}}`` → comparison;
    ``{"target": {...}}`` → outlier.  An explicit ``"type"`` field
    (``"comparison"`` / ``"outlier"``) is honored when present.
    """
    if not isinstance(data, Mapping):
        raise ValueError("'question' must be a JSON object")

    def tuple_spec(key: str) -> dict:
        if not isinstance(data[key], Mapping):
            raise ValueError(f"question {key!r} must be a JSON object")
        return dict(data[key])

    kind = data.get("type")
    if kind == "comparison" or (
        kind is None and "primary" in data and "secondary" in data
    ):
        return ComparisonQuestion(
            primary=tuple_spec("primary"), secondary=tuple_spec("secondary")
        )
    if kind == "outlier" or (kind is None and "target" in data):
        return OutlierQuestion(target=tuple_spec("target"))
    raise ValueError(
        "question must carry primary+secondary (comparison) or "
        "target (outlier)"
    )


_BODY_KEYS = frozenset({
    "sql", "question", "top_k", "max_join_edges", "f1_sample_rate",
    "overrides", "timeout_seconds",
})


def request_from_json(data: Mapping) -> ExplanationRequest:
    """Build an :class:`ExplanationRequest` from a POST /explain body.

    Raises ``ValueError`` or ``TypeError`` for anything malformed —
    a top-level key the schema does not have (a typo such as ``topk``
    must not be answered with defaults), an ``overrides`` entry that
    names no :class:`CajadeConfig` field, a knob or override value of
    the wrong JSON type (``"5"`` is not 5, ``"no"`` is not ``false``),
    an ``sql`` that is not a string — which the HTTP route answers with
    a structured 400.
    """
    if not isinstance(data, Mapping):
        raise ValueError("request body must be a JSON object")
    unknown = sorted(set(data) - _BODY_KEYS)
    if unknown:
        raise ValueError(f"unknown request body key(s) {unknown}")
    if "sql" not in data:
        raise ValueError("request body must carry 'sql'")
    if "question" not in data:
        raise ValueError("request body must carry 'question'")
    overrides = data.get("overrides", {})
    if not isinstance(overrides, Mapping):
        raise ValueError("'overrides' must be a JSON object")
    return ExplanationRequest(
        sql=data["sql"],
        question=question_from_json(data["question"]),
        top_k=data.get("top_k"),
        max_join_edges=data.get("max_join_edges"),
        f1_sample_rate=data.get("f1_sample_rate"),
        overrides=tuple(sorted(overrides.items())),
    )


def timeout_from_json(data: Mapping) -> float | None:
    """The optional per-request ``timeout_seconds`` of a POST body."""
    timeout = data.get("timeout_seconds")
    if timeout is None:
        return None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise TypeError("timeout_seconds must be a number")
    if not 0 < timeout < math.inf:  # NaN included
        raise ValueError("timeout_seconds must be positive and finite")
    return float(timeout)


# ---------------------------------------------------------------------------
# Minimal stdlib HTTP server (asyncio streams, no new dependencies)
# ---------------------------------------------------------------------------

_MAX_BODY = 4 * 1024 * 1024

_STATUS_LINES = {
    200: "200 OK",
    400: "400 Bad Request",
    404: "404 Not Found",
    429: "429 Too Many Requests",
    500: "500 Internal Server Error",
    503: "503 Service Unavailable",
    504: "504 Gateway Timeout",
}


def _http_response(
    status: str,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    headers = [
        f"HTTP/1.1 {status}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (extra_headers or {}).items():
        headers.append(f"{name}: {value}")
    headers.append("\r\n")
    return "\r\n".join(headers).encode("ascii") + body


def _error_response(
    exc: ServiceError, fingerprint: str | None = None
) -> bytes:
    """A structured JSON error with the right status and headers.

    Every error body carries ``error`` (human message), ``kind`` (a
    stable machine-readable slug), ``status``, and ``retryable``;
    transient conditions add ``Retry-After``, and the fingerprint
    header rides along whenever the request parsed far enough to have
    one — so a client's error handling can key off the same identity
    as its success path.
    """
    status = _STATUS_LINES.get(exc.status, _STATUS_LINES[500])
    payload: dict[str, Any] = {
        "error": str(exc),
        "kind": exc.kind,
        "status": exc.status,
        "retryable": bool(exc.retryable or exc.status in (429, 503)),
    }
    headers: dict[str, str] = {}
    if exc.retry_after is not None:
        payload["retry_after_seconds"] = round(exc.retry_after, 3)
        headers["Retry-After"] = str(max(1, math.ceil(exc.retry_after)))
    if fingerprint:
        headers["X-Cajade-Fingerprint"] = fingerprint
    return _http_response(
        status, json.dumps(payload).encode(), extra_headers=headers
    )


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one HTTP/1.1 request; None when the peer is gone (EOF or
    reset).  Anything malformed is a :class:`BadRequestError`, never an
    unhandled exception."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    except asyncio.LimitOverrunError:
        raise BadRequestError("request head is too large") from None
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, path, _version = lines[0].split(" ", 2)
    except ValueError:
        raise BadRequestError(f"malformed request line {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length") or "0"
    # isdigit() admits no sign, so a negative length is rejected here.
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise BadRequestError(
            f"Content-Length {raw_length!r} is not a non-negative integer"
        )
    length = int(raw_length)
    if length > _MAX_BODY:
        raise BadRequestError(
            f"request body of {length} bytes is too large"
        )
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        # A half-closed client can still read the reply.
        raise BadRequestError(
            f"request body ended after {len(exc.partial)} of "
            f"{length} bytes"
        ) from None
    except ConnectionResetError:
        return None
    return method, path, headers, body


async def _handle_connection(
    service: ExplanationService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    try:
        while True:
            try:
                parsed = await _read_request(reader)
            except ServiceError as exc:
                writer.write(_error_response(exc))
                break
            if parsed is None:
                break
            method, path, headers, body = parsed
            close_after = headers.get("connection", "").lower() == "close"
            writer.write(await _route(service, method, path, body))
            await writer.drain()
            if close_after:
                break
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:
            pass


async def _route(
    service: ExplanationService, method: str, path: str, body: bytes
) -> bytes:
    if method == "GET" and path == "/stats":
        snapshot = json.dumps(service.stats.snapshot()).encode()
        return _http_response("200 OK", snapshot)
    if method == "POST" and path == "/explain":
        fingerprint: str | None = None
        try:
            data = json.loads(body or b"{}")
            request = request_from_json(data)
            fingerprint = request.fingerprint
            timeout = timeout_from_json(data)
        except (ValueError, TypeError, KeyError) as exc:
            return _error_response(
                BadRequestError(str(exc)), fingerprint
            )
        try:
            response = await service.submit(request, timeout=timeout)
        except ServiceError as exc:
            return _error_response(exc, fingerprint)
        return _http_response(
            "200 OK",
            response.payload.encode(),
            extra_headers={
                "X-Cajade-Source": response.source,
                "X-Cajade-Fingerprint": response.fingerprint,
                "X-Cajade-Latency-Ms": (
                    f"{response.latency_seconds * 1e3:.3f}"
                ),
            },
        )
    return _http_response(
        "404 Not Found", json.dumps({"error": f"no route {path}"}).encode()
    )


async def serve_http(
    service: ExplanationService, host: str = "127.0.0.1", port: int = 8321
) -> asyncio.AbstractServer:
    """Expose the service over HTTP: POST /explain, GET /stats.

    Returns the listening server; callers own its lifecycle
    (``server.close()`` + ``await server.wait_closed()``).
    """

    async def handler(reader, writer):
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(handler, host=host, port=port)
