"""Tests for the concurrent explanation service (repro.serving)."""

import asyncio
import json
import os
import signal

import pytest

from repro import CajadeConfig, CajadeSession, ComparisonQuestion, ExplanationRequest
from repro.db import Database
from repro.db.errors import SchemaError
from repro.serving import (
    CORRUPT,
    DELAY,
    KILL,
    QUARANTINED,
    STARTUP_CRASH,
    DeadlineExceededError,
    ExplanationService,
    FaultPlan,
    FaultRule,
    InlineBackend,
    ProcessPoolBackend,
    QueueFullError,
    Scheduler,
    ServiceError,
    ServiceOverloadedError,
    ShardQuarantinedError,
    ShardSupervisor,
    Ticket,
    WorkerDiedError,
    canonical_payload,
    request_cache_key,
    request_from_json,
    serve_http,
    shard_for,
)
from repro.serving.metrics import LATENCY_WINDOW
from tests.conftest import GSW_WINS_SQL

QUESTION = ComparisonQuestion({"season": "2015-16"}, {"season": "2012-13"})
QUESTION2 = ComparisonQuestion({"season": "2012-13"}, {"season": "2015-16"})

CONFIG = CajadeConfig(
    max_join_edges=2,
    top_k=5,
    f1_sample_rate=1.0,
    lca_sample_rate=1.0,
    num_selected_attrs=4,
    seed=1,
)


def request() -> ExplanationRequest:
    return ExplanationRequest(GSW_WINS_SQL, QUESTION)


def serial_payload(mini_db, mini_schema_graph, req=None) -> str:
    one_shot = CajadeSession(mini_db, mini_schema_graph, CONFIG)
    return canonical_payload(one_shot.explain(req or request()))


# ---------------------------------------------------------------------------
# Sharding and queueing
# ---------------------------------------------------------------------------


class TestScheduler:
    def test_shard_for_is_deterministic(self):
        fp = ExplanationRequest(GSW_WINS_SQL, QUESTION).fingerprint
        assert all(shard_for(fp, 4) == shard_for(fp, 4) for _ in range(10))
        assert 0 <= shard_for(fp, 4) < 4
        assert shard_for(fp, 1) == 0

    def test_shard_for_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_for("ab" * 16, 0)

    def test_same_fingerprint_same_queue(self):
        scheduler = Scheduler(num_shards=3)
        tickets = [
            Ticket(request=request(), key=("k", i)) for i in range(5)
        ]
        shards = {scheduler.enqueue(t) for t in tickets}
        assert len(shards) == 1

    def test_take_is_fifo_one_ticket_at_a_time(self):
        scheduler = Scheduler(num_shards=1)
        for i in range(3):
            scheduler.enqueue(Ticket(request=request(), key=("k", i)))
        assert [scheduler.take(0).key[1] for _ in range(3)] == [0, 1, 2]
        assert scheduler.take(0) is None

    def test_enqueue_bounded_by_max_queue_depth(self):
        scheduler = Scheduler(num_shards=1, max_queue_depth=2)
        for i in range(2):
            scheduler.enqueue(Ticket(request=request(), key=("k", i)))
        with pytest.raises(QueueFullError):
            scheduler.enqueue(Ticket(request=request(), key=("k", 9)))
        # The rejected ticket was not enqueued.
        assert scheduler.pending(0) == 2


# ---------------------------------------------------------------------------
# Fault injection and supervision (pure units)
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_kill_every_fires_on_multiples_per_shard(self):
        plan = FaultPlan.kill_every(3)
        # Shard 0: requests 1..2 (no fire), then 3 fires.
        assert plan.admit(0) == [] and plan.admit(0) == []
        assert [r.kind for r in plan.admit(0)] == [KILL]
        # Shard 1 has its own counter.
        assert plan.admit(1) == [] and plan.admit(1) == []
        assert [r.kind for r in plan.admit(1)] == [KILL]
        assert plan.fired_total == 2

    def test_admit_advances_one_tick_per_call(self):
        plan = FaultPlan(
            (FaultRule(kind=KILL, at=2), FaultRule(kind=CORRUPT, at=4))
        )
        fired = [[r.kind for r in plan.admit(0)] for _ in range(5)]
        assert fired == [[], [KILL], [], [CORRUPT], []]

    def test_times_caps_total_firings(self):
        plan = FaultPlan((FaultRule(kind=KILL, every=1, times=2),))
        fired = sum(len(plan.admit(0)) for _ in range(5))
        assert fired == 2

    def test_shard_scoped_rule_ignores_other_shards(self):
        plan = FaultPlan((FaultRule(kind=KILL, shard=1, at=1),))
        assert plan.admit(0) == []
        assert [r.kind for r in plan.admit(1)] == [KILL]

    def test_startup_crash_is_pure_and_picklable(self):
        import pickle

        plan = FaultPlan((FaultRule(kind=STARTUP_CRASH, shard=0, at=2),))
        clone = pickle.loads(pickle.dumps(plan))
        for copy in (plan, clone):
            assert not copy.startup_crash(0, 1)
            assert copy.startup_crash(0, 2)
            assert not copy.startup_crash(1, 2)
        # Pure: asking twice answers the same.
        assert plan.startup_crash(0, 2)

    def test_rejects_bad_rules(self):
        with pytest.raises(ValueError):
            FaultRule(kind="nope", at=1)
        with pytest.raises(ValueError):
            FaultRule(kind=KILL)
        with pytest.raises(ValueError):
            FaultRule(kind=KILL, at=0)

    def test_describe_records_identity(self):
        plan = FaultPlan.kill_every(3, times=2, seed=7)
        for _ in range(3):
            plan.admit(0)
        view = plan.describe()
        assert view["seed"] == 7
        assert view["fired"] == 1
        assert view["rules"][0]["every"] == 3


class TestShardSupervisor:
    def test_quarantines_after_consecutive_budget(self):
        sup = ShardSupervisor(1, max_restarts=2)
        assert sup.record_failure(0, "boom")
        sup.record_restart(0)
        assert sup.record_failure(0, "boom")
        sup.record_restart(0)
        # Third consecutive failure crosses max_restarts=2.
        assert not sup.record_failure(0, "boom")
        with pytest.raises(ShardQuarantinedError):
            sup.check(0)
        snap = sup.snapshot()
        assert snap["quarantined"] == [0]
        assert snap["restarts"] == 2
        assert snap["shards"][0]["state"] == QUARANTINED

    def test_success_resets_the_streak(self):
        sup = ShardSupervisor(1, max_restarts=1)
        for _ in range(5):  # kill/recover forever, never quarantined
            assert sup.record_failure(0, "killed")
            sup.record_restart(0)
            sup.record_success(0)
        sup.check(0)
        assert sup.consecutive_failures(0) == 0
        assert sup.snapshot()["restarts"] == 5

    def test_shards_are_independent(self):
        sup = ShardSupervisor(2, max_restarts=0)
        assert not sup.record_failure(1, "boom")
        sup.check(0)  # shard 0 unaffected
        with pytest.raises(ShardQuarantinedError):
            sup.check(1)


# ---------------------------------------------------------------------------
# Chaos: the failure matrix on the inline backend (no processes)
# ---------------------------------------------------------------------------


class TestChaosInline:
    def test_kill_retries_to_byte_identical_answer(
        self, mini_db, mini_schema_graph
    ):
        expected = serial_payload(mini_db, mini_schema_graph)
        plan = FaultPlan((FaultRule(kind=KILL, at=1),))

        async def main():
            backend = InlineBackend(
                mini_db, mini_schema_graph, CONFIG, fault_plan=plan
            )
            async with ExplanationService(
                backend, retry_backoff=0.01
            ) as service:
                response = await service.submit(request())
                return response, service.stats.snapshot()

        response, stats = asyncio.run(main())
        assert response.payload == expected
        assert response.source == "executed"
        assert stats["retries"] == 1
        assert stats["health"]["restarts"] == 1
        assert stats["health"]["shards"][0]["state"] == "healthy"
        assert stats["availability"] == 1.0

    def test_corrupt_reply_never_reaches_the_client(
        self, mini_db, mini_schema_graph
    ):
        expected = serial_payload(mini_db, mini_schema_graph)
        plan = FaultPlan((FaultRule(kind=CORRUPT, at=1),))

        async def main():
            backend = InlineBackend(
                mini_db, mini_schema_graph, CONFIG, fault_plan=plan
            )
            async with ExplanationService(
                backend, retry_backoff=0.01
            ) as service:
                response = await service.submit(request())
                return response, service.stats.snapshot()

        response, stats = asyncio.run(main())
        assert response.payload == expected
        assert stats["retries"] == 1
        assert stats["health"]["failures"] == 1

    def test_crash_loop_quarantines_then_degrades_inline(
        self, mini_db, mini_schema_graph
    ):
        expected = serial_payload(mini_db, mini_schema_graph)
        plan = FaultPlan((FaultRule(kind=KILL, every=1),))

        async def main():
            backend = InlineBackend(
                mini_db,
                mini_schema_graph,
                CONFIG,
                max_restarts=1,
                fault_plan=plan,
            )
            async with ExplanationService(
                backend, max_retries=5, retry_backoff=0.01
            ) as service:
                response = await service.submit(request())
                return response, service.stats.snapshot()

        response, stats = asyncio.run(main())
        assert response.source == "degraded"
        assert response.payload == expected
        assert stats["health"]["quarantined"] == [0]
        assert stats["degraded"] == 1
        assert stats["availability"] == 1.0

    def test_crash_loop_error_mode_returns_structured_503(
        self, mini_db, mini_schema_graph
    ):
        plan = FaultPlan((FaultRule(kind=KILL, every=1),))

        async def main():
            backend = InlineBackend(
                mini_db,
                mini_schema_graph,
                CONFIG,
                max_restarts=1,
                fault_plan=plan,
            )
            async with ExplanationService(
                backend,
                max_retries=5,
                retry_backoff=0.01,
                degraded_mode="error",
            ) as service:
                with pytest.raises(ShardQuarantinedError) as info:
                    await service.submit(request())
                return info.value, service.stats.snapshot()

        exc, stats = asyncio.run(main())
        assert exc.status == 503
        assert exc.kind == "quarantined"
        assert stats["health"]["quarantined"] == [0]
        assert stats["failures"] == 1

    def test_deterministic_error_is_never_retried(
        self, mini_db, mini_schema_graph
    ):
        bad = ExplanationRequest(
            "SELECT x FROM nope GROUP BY x",
            ComparisonQuestion({"x": 1}, {"x": 2}),
        )

        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(backend) as service:
                with pytest.raises(ServiceError) as info:
                    await service.submit(bad)
                return info.value, service.stats.snapshot()

        exc, stats = asyncio.run(main())
        assert not exc.retryable
        assert stats["retries"] == 0
        assert stats["failures"] == 1
        # A poison request must not poison its shard's health.
        assert stats["health"]["failures"] == 0

    def test_poison_request_fails_alone_between_good_ones(
        self, mini_db, mini_schema_graph
    ):
        good = request()
        good2 = ExplanationRequest(GSW_WINS_SQL, QUESTION2)
        bad = ExplanationRequest(
            "SELECT x FROM nope GROUP BY x", QUESTION
        )
        # One shard, so the poison request queues between the good ones.
        assert len({r.fingerprint for r in (good, good2)}) == 1

        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(backend) as service:
                results = await asyncio.gather(
                    service.submit(good),
                    service.submit(bad),
                    service.submit(good2),
                    return_exceptions=True,
                )
                return backend, results, service.stats.snapshot()

        backend, (ok, err, ok2), stats = asyncio.run(main())
        assert ok.payload == serial_payload(mini_db, mini_schema_graph)
        assert ok2.payload == serial_payload(
            mini_db, mini_schema_graph, good2
        )
        assert isinstance(err, ServiceError) and not err.retryable
        # Each request ran exactly once: nothing is re-run to isolate
        # the poison one, and it costs the shard no health.
        assert backend.requests_executed == 3
        assert stats["failures"] == 1
        assert stats["health"]["failures"] == 0

    def test_each_request_resolves_when_it_is_done(
        self, mini_db, mini_schema_graph
    ):
        """Two tickets on one shard: the first waiter is answered while
        the second is still executing, and dispatch is in arrival
        order (the DELAY on tick 2 holds whichever request went
        second)."""
        plan = FaultPlan(
            (
                FaultRule(kind=DELAY, at=1, delay_seconds=0.05),
                FaultRule(kind=DELAY, at=2, delay_seconds=0.5),
            )
        )
        second_request = ExplanationRequest(GSW_WINS_SQL, QUESTION2)

        async def main():
            backend = InlineBackend(
                mini_db, mini_schema_graph, CONFIG, fault_plan=plan
            )
            async with ExplanationService(backend) as service:
                first = asyncio.ensure_future(service.submit(request()))
                second = asyncio.ensure_future(
                    service.submit(second_request)
                )
                done, pending = await asyncio.wait(
                    {first, second}, return_when=asyncio.FIRST_COMPLETED
                )
                assert done == {first} and pending == {second}
                return first.result(), await second, service.stats.snapshot()

        one, two, stats = asyncio.run(main())
        assert one.payload == serial_payload(mini_db, mini_schema_graph)
        assert two.payload == serial_payload(
            mini_db, mini_schema_graph, second_request
        )
        assert stats["batches"] == 2
        assert one.latency_seconds < two.latency_seconds

    def test_deadline_exceeded_is_a_504(self, mini_db, mini_schema_graph):
        plan = FaultPlan(
            (FaultRule(kind=DELAY, at=1, delay_seconds=0.4),)
        )

        async def main():
            backend = InlineBackend(
                mini_db, mini_schema_graph, CONFIG, fault_plan=plan
            )
            async with ExplanationService(backend) as service:
                with pytest.raises(DeadlineExceededError) as info:
                    await service.submit(request(), timeout=0.05)
                return info.value, service.stats.snapshot()

        exc, stats = asyncio.run(main())
        assert exc.status == 504
        assert stats["deadline_exceeded"] >= 1
        assert stats["completed"] == 0

    def test_admission_control_sheds_with_retry_after(
        self, mini_db, mini_schema_graph
    ):
        req2 = ExplanationRequest(GSW_WINS_SQL, QUESTION2)

        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(
                backend, max_queue_depth=1
            ) as service:
                results = await asyncio.gather(
                    service.submit(request()),
                    service.submit(req2),
                    return_exceptions=True,
                )
                return results, service.stats.snapshot()

        (ok, shed), stats = asyncio.run(main())
        assert ok.payload  # the admitted request completed
        assert isinstance(shed, ServiceOverloadedError)
        assert shed.status == 429
        assert shed.retry_after is not None and shed.retry_after > 0
        assert stats["shed"] == 1

    def test_cache_hits_are_never_shed(self, mini_db, mini_schema_graph):
        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(
                backend, max_queue_depth=1
            ) as service:
                await service.submit(request())
                # Saturate the backlog with a distinct request, then
                # hit the cache: the hit must not be shed.
                plan_req = ExplanationRequest(GSW_WINS_SQL, QUESTION2)
                waiter = asyncio.ensure_future(service.submit(plan_req))
                await asyncio.sleep(0)  # plan_req is now in flight
                hit = await service.submit(request())
                await waiter
                return hit

        hit = asyncio.run(main())
        assert hit.source == "cache"


# ---------------------------------------------------------------------------
# Front-end: cache, coalescing, fan-out
# ---------------------------------------------------------------------------


class TestExplanationService:
    def test_response_matches_serial_session(
        self, mini_db, mini_schema_graph
    ):
        expected = serial_payload(mini_db, mini_schema_graph)

        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(backend) as service:
                return await service.submit(request())

        response = asyncio.run(main())
        assert response.payload == expected
        assert response.source == "executed"

    def test_repeat_served_from_cache_byte_identical(
        self, mini_db, mini_schema_graph
    ):
        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(backend) as service:
                first = await service.submit(request())
                second = await service.submit(request())
                return backend, first, second

        backend, first, second = asyncio.run(main())
        assert second.source == "cache"
        assert second.payload == first.payload
        assert backend.requests_executed == 1

    def test_concurrent_identical_requests_coalesce(
        self, mini_db, mini_schema_graph
    ):
        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(backend) as service:
                responses = await asyncio.gather(
                    *(service.submit(request()) for _ in range(6))
                )
                return backend, service.stats.snapshot(), responses

        backend, stats, responses = asyncio.run(main())
        assert backend.requests_executed == 1
        assert len({r.payload for r in responses}) == 1
        assert stats["coalesced"] == 5
        assert sorted(r.source for r in responses) == (
            ["coalesced"] * 5 + ["executed"]
        )

    def test_distinct_questions_not_coalesced(
        self, mini_db, mini_schema_graph
    ):
        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(backend) as service:
                r1, r2 = await asyncio.gather(
                    service.submit(ExplanationRequest(GSW_WINS_SQL, QUESTION)),
                    service.submit(
                        ExplanationRequest(GSW_WINS_SQL, QUESTION2)
                    ),
                )
                return backend, r1, r2

        backend, r1, r2 = asyncio.run(main())
        assert backend.requests_executed == 2
        assert r1.payload != r2.payload

    def test_performance_knobs_share_cache_entry(
        self, mini_db, mini_schema_graph
    ):
        """The requests differ (one spells out the base seed) but their
        mining-config key is equal, so the second is a cache hit with
        identical bytes."""

        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(backend) as service:
                first = await service.submit(
                    ExplanationRequest(GSW_WINS_SQL, QUESTION)
                )
                second = await service.submit(
                    ExplanationRequest(
                        GSW_WINS_SQL, QUESTION, overrides={"seed": CONFIG.seed}
                    )
                )
                return first, second

        first, second = asyncio.run(main())
        assert second.source == "cache"
        assert second.payload == first.payload

    def test_cache_disabled_still_correct(self, mini_db, mini_schema_graph):
        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(
                backend, response_cache_mb=0.0
            ) as service:
                first = await service.submit(request())
                second = await service.submit(request())
                return backend, first, second

        backend, first, second = asyncio.run(main())
        assert first.payload == second.payload
        assert second.source == "executed"
        assert backend.requests_executed == 2

    def test_sharded_backend_partitions_queries(
        self, mini_db, mini_schema_graph
    ):
        sql2 = GSW_WINS_SQL.replace("'GSW'", "'LAL'")
        req1 = ExplanationRequest(GSW_WINS_SQL, QUESTION)
        req2 = ExplanationRequest(sql2, QUESTION)
        # Pick a shard count where the two fingerprints separate.
        num_shards = next(
            n
            for n in range(2, 9)
            if shard_for(req1.fingerprint, n) != shard_for(req2.fingerprint, n)
        )

        async def main():
            backend = InlineBackend(
                mini_db, mini_schema_graph, CONFIG, num_shards=num_shards
            )
            async with ExplanationService(backend) as service:
                await asyncio.gather(
                    service.submit(req1), service.submit(req2)
                )
                # Snapshot before close() clears the per-shard sessions.
                return [
                    set(backend.session(shard)._queries)
                    for shard in range(num_shards)
                ]

        registered = asyncio.run(main())
        for req in (req1, req2):
            shard = shard_for(req.fingerprint, num_shards)
            assert req.fingerprint in registered[shard]
            for other in range(num_shards):
                if other != shard:
                    assert req.fingerprint not in registered[other]

    def test_stats_snapshot_counts(self, mini_db, mini_schema_graph):
        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(backend) as service:
                await service.submit(request())
                await service.submit(request())
                early = service.stats.snapshot()
                # More requests than the latency window holds.
                for _ in range(LATENCY_WINDOW):
                    await service.submit(request())
                return early, service.stats

        stats, live = asyncio.run(main())
        assert stats["requests"] == 2
        assert stats["cache_hits"] == 1
        assert stats["cache_hit_rate"] == pytest.approx(0.5)
        assert stats["completed"] == 2
        assert stats["batches"] == 1
        assert stats["latency_p99_ms"] >= stats["latency_p50_ms"] >= 0
        assert stats["response_cache"]["entries"] == 1
        # /stats memory is bounded; the totals are not windowed.
        late = live.snapshot()
        assert len(live.latencies) == LATENCY_WINDOW
        assert late["completed"] == late["requests"] == LATENCY_WINDOW + 2
        assert late["availability"] == 1.0
        assert late["latency_p99_ms"] >= late["latency_p50_ms"] > 0

    def test_submit_after_close_rejected(self, mini_db, mini_schema_graph):
        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            service = ExplanationService(backend)
            service.start()
            await service.close()
            with pytest.raises(ServiceError):
                await service.submit(request())

        asyncio.run(main())


# ---------------------------------------------------------------------------
# Worker pool (spawned processes over a column store the parent writes)
# ---------------------------------------------------------------------------


def dev_shm_entries() -> set[str]:
    """``/dev/shm`` entries, less the queues' ``sem.*`` semaphores (which
    live until their owners are collected)."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {n for n in os.listdir("/dev/shm") if not n.startswith("sem.")}


@pytest.mark.slow
class TestProcessPool:
    def test_pool_survives_worker_death_byte_identically(
        self, mini_db, mini_schema_graph
    ):
        """One pool exercise: correct bytes, supervised restart after a
        SIGKILL, restart visible in stats, and no process or store
        leaks."""
        expected = serial_payload(mini_db, mini_schema_graph)
        shm_before = dev_shm_entries()

        async def main(backend):
            async with ExplanationService(
                backend, retry_backoff=0.01
            ) as service:
                first = await service.submit(request())
                assert first.payload == expected
                assert first.source == "executed"
                second = await service.submit(request())
                assert second.source == "cache"

                # Kill the worker owning this fingerprint outright.
                shard = shard_for(
                    request().fingerprint, backend.num_shards
                )
                victim = backend._workers[shard].process
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10.0)
                service._cache.clear()

                # The supervisor respawns the shard's worker, which
                # reopens the same store; the answer is the same bytes
                # as before the crash.
                third = await service.submit(request())
                assert third.payload == expected
                assert third.source == "executed"
                stats = service.stats.snapshot()
                assert stats["health"]["restarts"] == 1
                assert stats["health"]["quarantined"] == []
                assert stats["availability"] == 1.0
                replacement = backend._workers[shard].process
                assert replacement.pid != victim.pid
                assert backend.store_directory.is_dir()

        backend = ProcessPoolBackend(
            mini_db, mini_schema_graph, CONFIG, num_shards=2
        )
        asyncio.run(main(backend))

        # stop() ran in close(): no worker survives it, the store
        # directory is gone, and nothing was left in /dev/shm.
        for worker in backend._workers:
            assert worker is None or not worker.process.is_alive()
        assert not backend.store_directory.exists()
        assert dev_shm_entries() <= shm_before

    def test_start_partial_failure_leaks_nothing(
        self, mini_db, mini_schema_graph
    ):
        """A worker crashing before its ready handshake fails start():
        the spawned siblings are reaped and the store is removed."""
        shm_before = dev_shm_entries()
        plan = FaultPlan(
            (FaultRule(kind=STARTUP_CRASH, shard=1, at=1),)
        )
        backend = ProcessPoolBackend(
            mini_db, mini_schema_graph, CONFIG, num_shards=2,
            fault_plan=plan,
        )
        assert backend.store_directory.is_dir()
        with pytest.raises(WorkerDiedError):
            backend.start()

        for worker in backend._workers:
            assert worker is None or not worker.process.is_alive()
        assert not backend.store_directory.exists()
        assert dev_shm_entries() <= shm_before
        # The torn-down pool refuses to restart rather than limp.
        with pytest.raises(ServiceError):
            backend.start()

    def test_unopenable_store_quarantines_then_degrades(
        self, mini_db, mini_schema_graph
    ):
        """A respawn whose ``Database.open`` fails dies before its
        handshake; the supervisor counts that as a worker death,
        quarantines the shard, and the degraded answer is the serial
        bytes."""
        expected = serial_payload(mini_db, mini_schema_graph)

        async def main(backend):
            async with ExplanationService(
                backend, max_retries=5, retry_backoff=0.01,
                degraded_mode="inline",
            ) as service:
                first = await service.submit(request())
                victim = backend._workers[0].process
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=10.0)
                service._cache.clear()
                data_file = max(
                    backend.store_directory.glob("*.bin"),
                    key=lambda path: path.stat().st_size,
                )
                data_file.write_bytes(data_file.read_bytes()[:-8])
                with pytest.raises(SchemaError, match=data_file.name):
                    Database.open(backend.store_directory)
                degraded = await service.submit(request())
                return first, degraded, service.stats.snapshot()

        backend = ProcessPoolBackend(
            mini_db, mini_schema_graph, CONFIG, num_shards=1,
            max_restarts=1,
        )
        first, degraded, stats = asyncio.run(main(backend))
        assert first.source == "executed"
        assert first.payload == expected
        assert degraded.source == "degraded"
        assert degraded.payload == expected
        assert stats["health"]["quarantined"] == [0]
        assert stats["health"]["restarts"] == 0
        assert "died during startup" in (
            stats["health"]["shards"][0]["last_error"]
        )
        assert not backend.store_directory.exists()


@pytest.mark.parametrize(
    "backend_class",
    [InlineBackend, pytest.param(ProcessPoolBackend, marks=pytest.mark.slow)],
)
def test_backends_share_one_contract(
    backend_class, mini_db, mini_schema_graph
):
    """The same seeded fault plan (kill on the shard's 2nd execution,
    corrupt its 4th) drives both backends through the same outcomes,
    the same retries and the same health snapshot."""
    expected = serial_payload(mini_db, mini_schema_graph)
    plan = FaultPlan(
        (FaultRule(kind=KILL, at=2), FaultRule(kind=CORRUPT, at=4)), seed=3
    )

    backend = backend_class(
        mini_db, mini_schema_graph, CONFIG, num_shards=1, fault_plan=plan
    )

    async def main():
        # No response cache: each of the four asks executes.
        async with ExplanationService(
            backend, response_cache_mb=0.0, retry_backoff=0.01
        ) as service:
            responses, retries = [], []
            for _ in range(4):
                responses.append(await service.submit(request()))
                retries.append(service.stats.snapshot()["retries"])
            return responses, retries, backend.health()

    responses, retries, health = asyncio.run(main())
    assert [r.payload for r in responses] == [expected] * 4
    assert [r.source for r in responses] == ["executed"] * 4
    # Executions 1 ok, 2 killed, 3 ok (retry), 4 corrupt, 5 ok (retry), 6 ok.
    assert retries == [0, 1, 2, 2]
    assert health == {
        "shards": [
            {
                "shard": 0,
                "state": "healthy",
                "restarts": 1,
                "failures": 2,
                "consecutive_failures": 0,
                "last_error": "shard 0 reply failed checksum verification",
            }
        ],
        "restarts": 1,
        "failures": 2,
        "quarantined": [],
        "faults_injected": 2,
    }
    if backend_class is ProcessPoolBackend:
        assert not backend.store_directory.exists()


# ---------------------------------------------------------------------------
# HTTP boundary
# ---------------------------------------------------------------------------


class TestRequestFromJson:
    def test_comparison_roundtrip(self):
        data = {
            "sql": GSW_WINS_SQL,
            "question": {
                "primary": {"season": "2015-16"},
                "secondary": {"season": "2012-13"},
            },
            "top_k": 3,
        }
        req = request_from_json(data)
        assert req.question == QUESTION
        assert req.top_k == 3
        assert req.fingerprint == request().fingerprint

    def test_outlier(self):
        req = request_from_json(
            {
                "sql": GSW_WINS_SQL,
                "question": {"target": {"season": "2015-16"}},
            }
        )
        assert req.question.target == {"season": "2015-16"}

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            request_from_json({"question": {"target": {}}})
        with pytest.raises(ValueError):
            request_from_json({"sql": GSW_WINS_SQL})
        with pytest.raises(ValueError):
            request_from_json({"sql": GSW_WINS_SQL, "question": {}})

    def test_cache_key_tracks_output_relevant_config(self):
        base = CONFIG
        r1 = ExplanationRequest(
            GSW_WINS_SQL, QUESTION, overrides={"seed": base.seed}
        )
        r2 = ExplanationRequest(GSW_WINS_SQL, QUESTION)
        r3 = ExplanationRequest(GSW_WINS_SQL, QUESTION, top_k=3)
        assert request_cache_key(r1, base) == request_cache_key(r2, base)
        assert request_cache_key(r1, base) != request_cache_key(r3, base)


async def http_request(port, method, path, payload=b""):
    """One HTTP/1.1 exchange: (status line, lower-cased headers, body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, response_body = raw.partition(b"\r\n\r\n")
    status = header_blob.split(b"\r\n")[0].decode()
    headers = {}
    for line in header_blob.split(b"\r\n")[1:]:
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, response_body


class TestHttp:
    def test_explain_and_stats_over_http(self, mini_db, mini_schema_graph):
        expected = serial_payload(mini_db, mini_schema_graph)
        body = json.dumps(
            {
                "sql": GSW_WINS_SQL,
                "question": {
                    "primary": {"season": "2015-16"},
                    "secondary": {"season": "2012-13"},
                },
            }
        ).encode()

        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(backend) as service:
                server = await serve_http(service, port=0)
                port = server.sockets[0].getsockname()[1]
                try:
                    one = await http_request(port, "POST", "/explain", body)
                    two = await http_request(port, "POST", "/explain", body)
                    stats = await http_request(port, "GET", "/stats")
                    missing = await http_request(port, "GET", "/nope")
                    bad = await http_request(
                        port, "POST", "/explain", b"{}"
                    )
                finally:
                    server.close()
                    await server.wait_closed()
                return one, two, stats, missing, bad

        one, two, stats, missing, bad = asyncio.run(main())
        assert one[0].startswith("HTTP/1.1 200")
        assert one[2].decode() == expected
        assert one[1]["x-cajade-source"] == "executed"
        assert two[1]["x-cajade-source"] == "cache"
        assert two[2] == one[2]
        snapshot = json.loads(stats[2])
        assert snapshot["requests"] == 2
        assert snapshot["cache_hits"] == 1
        assert "health" in snapshot
        assert missing[0].startswith("HTTP/1.1 404")
        assert bad[0].startswith("HTTP/1.1 400")
        bad_body = json.loads(bad[2])
        assert bad_body["kind"] == "bad-request"
        assert bad_body["status"] == 400
        assert bad_body["retryable"] is False

    @pytest.mark.parametrize(
        "raw",
        [
            b"POST /explain HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST /explain HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            # A body shorter than promised, then a half-close.
            b"POST /explain HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}",
            # A header block past the 64 KiB stream limit.
            b"GET /stats HTTP/1.1\r\nX-Pad: " + b"a" * 70000 + b"\r\n\r\n",
        ],
        ids=["length-not-a-number", "length-negative", "body-short", "head-huge"],
    )
    def test_malformed_head_fails_closed(
        self, raw, mini_db, mini_schema_graph
    ):
        """A structured 400 (or a clean EOF) and a released connection
        — never an unhandled exception in the connection callback."""

        async def main():
            logged = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: logged.append(context)
            )
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(backend) as service:
                server = await serve_http(service, port=0)
                port = server.sockets[0].getsockname()[1]
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    writer.write(raw)
                    writer.write_eof()
                    reply = await asyncio.wait_for(reader.read(), timeout=10)
                    writer.close()
                    await writer.wait_closed()
                    # Let the server-side handler task finish and report.
                    await asyncio.sleep(0.05)
                    healthy = await http_request(port, "GET", "/stats")
                finally:
                    server.close()
                    await server.wait_closed()
                return reply, healthy, logged

        reply, healthy, logged = asyncio.run(main())
        assert logged == []
        if reply:
            assert reply.startswith(b"HTTP/1.1 400")
            body = json.loads(reply.partition(b"\r\n\r\n")[2])
            assert body["kind"] == "bad-request"
        assert healthy[0].startswith("HTTP/1.1 200")

    def test_removed_toggles_and_bad_overrides_get_400(
        self, mini_db, mini_schema_graph
    ):
        """A body naming a removed strategy toggle, an unknown field, a
        session-level budget, carrying a non-object ``overrides`` or a
        top-level key the schema lacks (the removed ``workers``, a typo),
        or not an object at all, is answered with a structured 400 —
        never a traceback, a 500, a hung ticket, or a silently different
        (or default) execution."""
        body = {
            "sql": GSW_WINS_SQL,
            "question": {
                "primary": {"season": "2015-16"},
                "secondary": {"season": "2012-13"},
            },
        }
        bad_overrides = [
            {"use_kernel": False},
            {"kernel_verify": True},
            {"use_code_lca": False},
            {"use_hist_forest": False},
            {"late_materialization": False},
            {"join_strategy": "hash"},
            {"join_memo_entries": 64},
            {"kernel_cache_mb": 8},
            {"workers": 2},
            {"not_a_knob": 1},
            {"apt_cache_mb": 0.0},
            [["top_k", 3]],
            "use_kernel",
            7,
            None,
        ]
        bad_bodies = [{**body, "overrides": o} for o in bad_overrides] + [
            {**body, "workers": 2},
            {**body, "topk": 3},
            ["sql", "question"],
        ]

        async def main():
            backend = InlineBackend(mini_db, mini_schema_graph, CONFIG)
            async with ExplanationService(backend) as service:
                server = await serve_http(service, port=0)
                port = server.sockets[0].getsockname()[1]
                try:
                    replies = [
                        await asyncio.wait_for(
                            http_request(
                                port,
                                "POST",
                                "/explain",
                                json.dumps(bad).encode(),
                            ),
                            timeout=10,
                        )
                        for bad in bad_bodies
                    ]
                    legal = await http_request(
                        port,
                        "POST",
                        "/explain",
                        json.dumps(
                            {**body, "overrides": {"k_cat": 8}}
                        ).encode(),
                    )
                finally:
                    server.close()
                    await server.wait_closed()
                return replies, legal, service.stats.snapshot()

        replies, legal, snapshot = asyncio.run(main())
        for bad, (status, _headers, raw) in zip(bad_bodies, replies):
            assert status.startswith("HTTP/1.1 400"), (bad, status)
            reply = json.loads(raw)
            assert reply["kind"] == "bad-request"
            assert reply["status"] == 400
            assert reply["retryable"] is False
            assert "Traceback" not in reply["error"]
        # An unknown top-level key is named in the reply.
        assert "'workers'" in json.loads(replies[-3][2])["error"]
        assert "'topk'" in json.loads(replies[-2][2])["error"]
        # None of the rejected bodies was admitted; the legal one ran.
        assert legal[0].startswith("HTTP/1.1 200")
        assert snapshot["requests"] == 1

    def test_error_statuses_and_bodies_are_structured(
        self, mini_db, mini_schema_graph
    ):
        """504 on deadline, 503 on quarantine (error mode), all with
        machine-readable bodies and the fingerprint header when the
        request parsed far enough to have one."""

        body = {
            "sql": GSW_WINS_SQL,
            "question": {
                "primary": {"season": "2015-16"},
                "secondary": {"season": "2012-13"},
            },
        }
        slow_body = json.dumps(
            {**body, "timeout_seconds": 0.05}
        ).encode()
        plan = FaultPlan(
            (
                FaultRule(kind=DELAY, at=1, delay_seconds=0.4),
                FaultRule(kind=KILL, every=1),
            )
        )

        async def main():
            backend = InlineBackend(
                mini_db,
                mini_schema_graph,
                CONFIG,
                max_restarts=0,
                fault_plan=plan,
            )
            async with ExplanationService(
                backend,
                max_retries=3,
                retry_backoff=0.01,
                degraded_mode="error",
            ) as service:
                server = await serve_http(service, port=0)
                port = server.sockets[0].getsockname()[1]
                try:
                    timed_out = await http_request(
                        port, "POST", "/explain", slow_body
                    )
                    quarantined = await http_request(
                        port, "POST", "/explain", json.dumps(body).encode()
                    )
                finally:
                    server.close()
                    await server.wait_closed()
                return timed_out, quarantined

        timed_out, quarantined = asyncio.run(main())
        fingerprint = request().fingerprint

        assert timed_out[0].startswith("HTTP/1.1 504")
        timed_body = json.loads(timed_out[2])
        assert timed_body["kind"] == "deadline-exceeded"
        assert timed_body["retryable"] is False
        assert timed_out[1]["x-cajade-fingerprint"] == fingerprint

        assert quarantined[0].startswith("HTTP/1.1 503")
        q_body = json.loads(quarantined[2])
        assert q_body["kind"] == "quarantined"
        assert q_body["status"] == 503
        assert q_body["retryable"] is True
        assert quarantined[1]["x-cajade-fingerprint"] == fingerprint

    def test_shed_request_gets_429_with_retry_after(
        self, mini_db, mini_schema_graph
    ):
        # The first request holds the executor for 1s; the second fills
        # the depth-1 queue; the HTTP request must then be shed.
        plan = FaultPlan(
            (FaultRule(kind=DELAY, at=1, delay_seconds=1.0),)
        )

        async def main():
            backend = InlineBackend(
                mini_db, mini_schema_graph, CONFIG, fault_plan=plan
            )
            async with ExplanationService(
                backend, max_queue_depth=1
            ) as service:
                first = asyncio.ensure_future(service.submit(request()))
                await asyncio.sleep(0.2)  # the first is now executing
                second = asyncio.ensure_future(
                    service.submit(
                        ExplanationRequest(GSW_WINS_SQL, QUESTION2)
                    )
                )
                await asyncio.sleep(0)  # second is now queued
                server = await serve_http(service, port=0)
                port = server.sockets[0].getsockname()[1]
                body = json.dumps(
                    {
                        "sql": GSW_WINS_SQL,
                        "question": {
                            "primary": {"season": "2015-16"},
                            "secondary": {"season": "2012-13"},
                        },
                        "top_k": 3,
                    }
                ).encode()
                try:
                    return await http_request(
                        port, "POST", "/explain", body
                    )
                finally:
                    server.close()
                    await server.wait_closed()
                    await asyncio.gather(first, second)

        status, headers, response_body = asyncio.run(main())
        assert status.startswith("HTTP/1.1 429")
        shed_body = json.loads(response_body)
        assert shed_body["kind"] == "overloaded"
        assert shed_body["retryable"] is True
        assert shed_body["retry_after_seconds"] > 0
        assert int(headers["retry-after"]) >= 1


# ---------------------------------------------------------------------------
# The serve surface
# ---------------------------------------------------------------------------


class TestServeSurface:
    """A re-added serving knob is a visible edit here, the way
    tests/test_core_config.py pins the config fields."""

    def test_exact_serve_flags(self):
        import argparse

        from repro.cli import _add_config_flags, build_parser

        def option_strings(parser):
            return {
                option
                for action in parser._actions
                for option in action.option_strings
            }

        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        shared = argparse.ArgumentParser()
        _add_config_flags(shared)
        own = option_strings(subparsers.choices["serve"]) - option_strings(
            shared
        )
        assert own == {
            "--db-cache-dir",
            "--host",
            "--port",
            "--shards",
            "--response-cache-mb",
            "--max-restarts",
            "--request-timeout",
            "--max-retries",
            "--max-queue-depth",
            "--degraded-mode",
        }

    def test_exact_service_parameters(self):
        import inspect

        parameters = list(
            inspect.signature(ExplanationService.__init__).parameters
        )
        assert parameters == [
            "self",
            "backend",
            "response_cache_mb",
            "request_timeout",
            "max_retries",
            "retry_backoff",
            "retry_seed",
            "max_queue_depth",
            "degraded_mode",
        ]
