"""The four gated workloads and the op universe their digests cover.

Each workload owns three things: the *inputs* it makes from the seed
(synthetic data written as CSV, an op order — untimed), a *set-up* the
harness times several times (everything a process does before it can
serve its first measured op, including one discarded first op per
class), and a *measured window* of ops grouped into classes.

The seed never changes what an op costs: it permutes the order classes
run in and, for ``serve_closed``, the mining seeds that make requests
distinct.  Run-to-run spread is then the machine's, not the inputs'.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.api import CajadeSession, query_fingerprint
from repro.core.config import CajadeConfig
from repro.datasets import (
    generate_mimic,
    generate_nba,
    mimic_schema_graph,
    nba_queries,
    nba_schema_graph,
    query_by_name,
)
from repro.db import Database, ProvenanceTable, parse_sql
from repro.db.csvio import load_database, save_database
from repro.serving import (
    ExplanationService,
    ProcessPoolBackend,
    canonical_payload,
    serve_http,
)
from repro.serving.shm import attached_segment_count

from harness import Tracer, Window, digest, serial_window, timed_op

SCALE = 0.25
GENERATORS = {"nba": generate_nba, "mimic": generate_mimic}
SCHEMA_GRAPHS = {"nba": nba_schema_graph, "mimic": mimic_schema_graph}


def config(edges: int) -> CajadeConfig:
    return CajadeConfig(max_join_edges=edges)


def op_key(
    dataset: str, edges: int, sql: str, question: Any, seed: int | None = None
) -> str:
    """Identity of one distinct op in ``expected/digests.json``;
    ``seed`` is the mining seed when the op overrides the default."""
    base = config(edges)
    return (
        f"{dataset}@{SCALE}|edges={edges}|top_k={base.top_k}|"
        f"seed={base.seed if seed is None else seed}|"
        f"{query_fingerprint(sql)}|{question.describe()}"
    )


class Workload:
    """Base: shared plumbing for inputs, verification and answers."""

    name = ""

    def __init__(
        self, seed: int, tmp: Path, tracer: Tracer, expected: dict[str, str]
    ) -> None:
        self.rng = np.random.default_rng(seed)
        self.tmp = tmp
        self.tracer = tracer
        self.expected = expected
        self.problems: list[str] = []

    # -- inputs -----------------------------------------------------------
    def write_csv(self, dataset: str) -> Path:
        directory = self.tmp / f"{dataset}_csv"
        save_database(GENERATORS[dataset](scale=SCALE), directory)
        return directory

    def load_csv(self, dataset: str) -> tuple[Database, Any]:
        with self.tracer.span("db.csvio.load"):
            db = load_database(self.tmp / f"{dataset}_csv")
        with self.tracer.span("db.join_index.warm"):
            db.warm_join_indexes()
        return db, SCHEMA_GRAPHS[dataset](db)

    # -- verification -----------------------------------------------------
    def check_payload(self, key: str, payload: str) -> bool:
        return self.expected.get(key) == digest(payload)

    def check_response(self, key: str, response: Any) -> bool:
        """Digest one in-process answer; feed the trace what it reports."""
        self.tracer.absorb_response(self.tracer.last_op_span, response)
        with self.tracer.span("serving.serialize"):
            payload = canonical_payload(response)
        self.tracer.count("payload_bytes", len(payload))
        return self.check_payload(key, payload)

    # -- lifecycle (overridden) ---------------------------------------------
    def make_inputs(self) -> None: ...

    def setup(self) -> None: ...

    def teardown(self) -> None: ...

    def measure(self, seconds: float, min_rounds: int) -> Window:
        return serial_window(self.run_round, seconds, min_rounds)

    def run_round(self, window: Window) -> None: ...

    def worker_pids(self) -> list[int]:
        return []

    def trace_extras(self) -> dict[str, float]:
        """Once-per-traced-run measurements outside the window."""
        return {}


class _SessionWorkload(Workload):
    """Ops are questions asked through ``CajadeSession`` in-process.

    One op class per ``(workload query, λ#edges)``, each asked with its
    Table 4/6 question on its own schema.
    """

    classes: tuple[tuple[str, int], ...] = ()

    def make_inputs(self) -> None:
        for dataset in self.datasets():
            self.write_csv(dataset)
        queries = [(query_by_name(name), edges) for name, edges in self.classes]
        self.keys = [
            op_key(query.dataset, edges, query.sql, query.question)
            for query, edges in queries
        ]

    def datasets(self) -> list[str]:
        return sorted({query_by_name(name).dataset for name, _edges in self.classes})

    def ask(self, session: CajadeSession, name: str, edges: int) -> Any:
        query = query_by_name(name)
        return session.explain(query.sql, query.question, max_join_edges=edges)

    def run_round(self, window: Window) -> None:
        for i in self.rng.permutation(len(self.classes)):
            name, edges = self.classes[i]
            timed_op(
                self.tracer,
                window,
                f"{name}@edges{edges}",
                lambda: self.one_op(name, edges),
                lambda response: self.check_response(self.keys[i], response),
            )

    def one_op(self, name: str, edges: int) -> Any:
        raise NotImplementedError


class ColdQuestion(_SessionWorkload):
    name = "cold_question"
    # NBA at λ#edges 2 is 64 join graphs and 1.5 s an op: too long to
    # ever fit inside one of the box's undisturbed stretches.
    classes = (("Qnba5", 1), ("Qmimic5", 2))

    def setup(self) -> None:
        self.dbs = {dataset: self.load_csv(dataset) for dataset in self.datasets()}
        for name, edges in self.classes:
            self.one_op(name, edges)

    def one_op(self, name: str, edges: int) -> Any:
        db, graph = self.dbs[query_by_name(name).dataset]
        return self.ask(CajadeSession(db, graph), name, edges)

    def trace_extras(self) -> dict[str, float]:
        """What a CLI user waits for: import + generate + one answer."""
        name, edges = self.classes[0]
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "workload", name,
             "--scale", str(SCALE), "--edges", str(edges)],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        return {"cli.cold_process_s": time.perf_counter() - started}


class WarmRepeat(_SessionWorkload):
    name = "warm_repeat"
    classes = (("Qnba5", 2), ("Qmimic5", 2))

    def setup(self) -> None:
        self.sessions = {
            dataset: CajadeSession(*self.load_csv(dataset))
            for dataset in self.datasets()
        }
        for name, edges in self.classes:
            with self.tracer.span("api.session.register"):
                self.session(name).register(query_by_name(name).sql)
            self.one_op(name, edges)

    def session(self, name: str) -> CajadeSession:
        return self.sessions[query_by_name(name).dataset]

    def one_op(self, name: str, edges: int) -> Any:
        return self.ask(self.session(name), name, edges)


class StorageCycle(Workload):
    name = "storage_cycle"
    edges = 1
    first_answer = "Qnba5"

    def make_inputs(self) -> None:
        self.csv = self.write_csv("nba")
        self.store = self.tmp / "colstore"
        self.rows = load_database(self.csv).total_rows()
        query = query_by_name(self.first_answer)
        self.key = op_key("nba", self.edges, query.sql, query.question)

    def setup(self) -> None:
        self.run_round(Window())

    def run_round(self, window: Window) -> None:
        shutil.rmtree(self.store, ignore_errors=True)
        timed_op(
            self.tracer, window, "ingest", self.ingest,
            lambda rows: rows == self.rows,
        )
        timed_op(
            self.tracer, window, "reopen_first_answer", self.reopen_first_answer,
            lambda response: self.check_response(self.key, response),
        )

    def ingest(self) -> int:
        with self.tracer.span("db.csvio.load"):
            db = load_database(self.csv)
        with self.tracer.span("db.colstore.save"):
            db.save(self.store)
        return db.total_rows()

    def reopen_first_answer(self) -> Any:
        with self.tracer.span("db.colstore.open"):
            db = Database.open(self.store)
        self.tracer.count("opens", 1)
        self.tracer.count("dicts_loaded_at_open", db.column_store.dicts_loaded)
        with self.tracer.span("db.join_index.warm"):
            db.warm_join_indexes()
        # Its own span, so these are not mistaken for the provenance the
        # session computes inside its "Materialize APTs" step.
        with self.tracer.span("bench.provenance_pass"):
            for query in nba_queries():
                ProvenanceTable.compute(parse_sql(query.sql), db)
        query = query_by_name(self.first_answer)
        session = CajadeSession(db, nba_schema_graph(db), config(self.edges))
        return session.explain(query.sql, query.question)

    def trace_extras(self) -> dict[str, float]:
        def size(directory: Path) -> int:
            return sum(f.stat().st_size for f in directory.iterdir())

        return {"db.colstore.bytes_per_csv_byte": size(self.store) / size(self.csv)}


class ServeClosed(Workload):
    name = "serve_closed"
    edges = 1
    # Two SQL shapes (a player's points, a team's wins), each asked its
    # Table 4 question.  Two classes and two clients, strictly
    # alternating, so every request waits behind one of the other class
    # and a round is one of each.
    classes = ("Qnba3", "Qnba4")
    # What makes a request distinct — no cache hit, no coalescing, every
    # join graph mined again — is its mining seed, not its question, so
    # that every request of a class costs the same: with season pairs
    # (a team's wins differ 3x by season) the floor spread 10 %.
    mining_seeds = range(1000, 1192)
    clients = 2
    replay = 40

    def make_inputs(self) -> None:
        self.write_csv("nba")
        self.queries = [query_by_name(name) for name in self.classes]
        draws = [self.rng.permutation(self.mining_seeds) for _ in self.queries]
        self.plan = self._plan(draws)
        self.sent: list[tuple[str, bytes, str]] = []
        self.shm_before = self._shm_names()

    def _plan(self, draws: list) -> Iterator[tuple[str, bytes, str]]:
        """Rounds of one new mining seed per class, in class order."""
        for seeds in zip(*draws):
            for query, seed in zip(self.queries, seeds):
                yield self._request(query, int(seed))

    def _request(self, query: Any, seed: int | None = None) -> tuple:
        body = {
            "sql": query.sql,
            "question": {
                "primary": query.question.primary,
                "secondary": query.question.secondary,
            },
        }
        if seed is not None:
            body["overrides"] = {"seed": seed}
        key = op_key("nba", self.edges, query.sql, query.question, seed)
        return query.name, json.dumps(body).encode(), key

    @staticmethod
    def _shm_names() -> set[str]:
        """Shared-memory segments (not the queues' ``sem.*`` semaphores,
        which live until their owners are collected)."""
        shm = Path("/dev/shm")
        if not shm.is_dir():
            return set()
        return {name for name in os.listdir(shm) if not name.startswith("sem.")}

    # -- lifecycle --------------------------------------------------------
    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._setup())

    async def _setup(self) -> None:
        db, graph = self.load_csv("nba")
        with self.tracer.span("serving.shm.export"):
            self.backend = ProcessPoolBackend(
                db, graph, config(self.edges), num_shards=1
            )
        self.service = ExplanationService(self.backend)
        with self.tracer.span("serving.pool.start"):
            self.service.start()
        # Port 0: the kernel picks a free loopback port.
        self.server = await serve_http(self.service, port=0)
        host, port = self.server.sockets[0].getsockname()[:2]
        self.connections = [
            await asyncio.open_connection(host, port) for _ in range(self.clients)
        ]
        for query in self.queries:
            _cls, body, key = self._request(query)
            status, _headers, payload = await self._post(0, body)
            if status != 200 or not self.check_payload(key, payload.decode()):
                self.problems.append(f"set-up request {query.name} failed")

    def teardown(self) -> None:
        self.loop.run_until_complete(self._teardown())
        self.loop.close()

    async def _teardown(self) -> None:
        for _reader, writer in self.connections:
            writer.close()
            await writer.wait_closed()
        self.server.close()
        await self.server.wait_closed()
        # The server's per-connection handlers end on the clients' EOF.
        handlers = asyncio.all_tasks() - {asyncio.current_task()}
        if handlers:
            await asyncio.wait(handlers, timeout=5)
        await self.service.close()
        if attached_segment_count() != 0:
            self.problems.append("shared-memory segments still attached")
        leaked = self._shm_names() - self.shm_before
        if leaked:
            self.problems.append(f"leaked /dev/shm segments: {sorted(leaked)}")

    def worker_pids(self) -> list[int]:
        return [child.pid for child in multiprocessing.active_children()]

    # -- the wire ---------------------------------------------------------
    async def _http(self, client: int, head: bytes, body: bytes = b"") -> tuple:
        reader, writer = self.connections[client]
        writer.write(head + b"\r\n\r\n" + body)
        await writer.drain()
        lines = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = await reader.readexactly(int(headers["content-length"]))
        return int(lines[0].split()[1]), headers, payload

    async def _post(self, client: int, body: bytes) -> tuple:
        head = (
            b"POST /explain HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d" % len(body)
        )
        return await self._http(client, head, body)

    # -- the window ---------------------------------------------------------
    def measure(self, seconds: float, min_rounds: int) -> Window:
        return self.loop.run_until_complete(
            self._measure(seconds, min_rounds * len(self.queries))
        )

    async def _measure(self, seconds: float, min_ops: int) -> Window:
        window = Window()
        busy = 0.0
        issued = 0
        started = time.perf_counter()
        window.completions.append(started)

        async def client(index: int) -> None:
            nonlocal busy, issued
            while True:
                # Stop when a typical request would overrun the window.
                elapsed = time.perf_counter() - started
                typical = busy / window.attempted if window.attempted else 0.0
                if issued >= min_ops and elapsed + typical > seconds:
                    return
                item = next(self.plan, None)
                if item is None:
                    return
                issued += 1
                op_class, body, key = item
                self.sent.append(item)
                with self.tracer.span(
                    op_class, op=self.tracer.next_op(), detached=True
                ):
                    sent = time.perf_counter()
                    status, headers, payload = await self._post(index, body)
                    seconds_taken = time.perf_counter() - sent
                busy += seconds_taken
                ok = status == 200 and self.check_payload(key, payload.decode())
                window.record(op_class, seconds_taken, ok)
                if ok:
                    server_ms = float(headers["x-cajade-latency-ms"])
                    self.tracer.count("http_overhead_ms", seconds_taken * 1e3 - server_ms)
                    self.tracer.count("server_ms", server_ms)
                    self.tracer.count("payload_bytes", len(payload))
                    self.tracer.count("answers", 1)

        tasks = [asyncio.ensure_future(client(i)) for i in range(self.clients)]
        await asyncio.gather(*tasks)
        window.wall = time.perf_counter() - started
        return window

    def trace_extras(self) -> dict[str, float]:
        return self.loop.run_until_complete(self._trace_extras())

    async def _trace_extras(self) -> dict[str, float]:
        """Untimed replay of already-answered requests: cache-hit numbers."""
        before = self.service.stats.snapshot()
        latencies = []
        for _cls, body, key in self.sent[: self.replay]:
            sent = time.perf_counter()
            status, headers, payload = await self._post(0, body)
            latencies.append(time.perf_counter() - sent)
            if (
                status != 200
                or headers.get("x-cajade-source") != "cache"
                or not self.check_payload(key, payload.decode())
            ):
                self.problems.append("replayed request was not a verified cache hit")
        _status, _headers, raw = await self._http(0, b"GET /stats HTTP/1.1\r\nHost: bench")
        stats = json.loads(raw)
        executed = before["cache_misses"] - before["coalesced"]
        return {
            "serving.cache_hit_latency_ms": 1e3 * float(np.median(latencies)),
            "serving.cache_hits": stats["cache_hits"] - before["cache_hits"],
            "serving.coalesced": stats["coalesced"],
            "serving.batches": before["batches"],
            "serving.requests_per_batch": executed / before["batches"],
            "serving.shm.shared_mb": self.backend.shared_bytes / 1e6,
        }


WORKLOADS = {
    cls.name: cls for cls in (ColdQuestion, WarmRepeat, StorageCycle, ServeClosed)
}


# ---------------------------------------------------------------------------
# The op universe (what ``--write-expected`` digests)
# ---------------------------------------------------------------------------


def universe() -> Iterator[tuple[str, int, Any, int | None]]:
    """Every (edges, workload query, mining seed) any seed can draw."""
    for name, edges in ColdQuestion.classes + WarmRepeat.classes:
        yield edges, query_by_name(name), None
    yield StorageCycle.edges, query_by_name(StorageCycle.first_answer), None
    for name in ServeClosed.classes:
        for seed in [None, *ServeClosed.mining_seeds]:
            yield ServeClosed.edges, query_by_name(name), seed


def compute_expected() -> dict[str, str]:
    """Digest the universe on the reference path: generated in-memory
    databases and one fresh session per op — no CSV, memmap or HTTP."""
    dbs = {}
    for dataset, generate in GENERATORS.items():
        db = generate(scale=SCALE)
        dbs[dataset] = db, SCHEMA_GRAPHS[dataset](db)
    expected: dict[str, str] = {}
    for edges, query, seed in universe():
        response = CajadeSession(*dbs[query.dataset]).explain(
            query.sql,
            query.question,
            max_join_edges=edges,
            overrides={} if seed is None else {"seed": seed},
        )
        key = op_key(query.dataset, edges, query.sql, query.question, seed)
        expected[key] = digest(canonical_payload(response))
    return expected
