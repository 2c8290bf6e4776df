"""Benchmark: the concurrent explanation service vs stateless serving.

Before the serving layer, putting CaJaDE behind an endpoint meant the
stateless one-shot path: every request builds a fresh session, parses
its query, recomputes provenance, enumerates join graphs, and mines
from scratch.  The serving tier replaces that with persistent sharded
workers over one column store the parent writes, an in-flight coalescer,
and a fingerprint-keyed response cache — so a skewed request stream
(real workloads repeat their hot questions) pays each distinct
computation once.

The benchmark replays one seeded zipf-skewed stream through both:

1. *serial / stateless*: requests answered one at a time, a fresh
   ``CajadeSession`` per request (the pre-serving baseline);
2. *service*: the same stream submitted concurrently to an
   ``ExplanationService`` over a ``ProcessPoolBackend`` (pool startup
   excluded from the measured window).  Concurrency is governed by the
   **server's** admission control (``--depth`` becomes the service's
   per-shard ``max_queue_depth``); shed clients honor ``Retry-After``
   and resubmit, as a real client would.

It reports sustained qps and p50/p99 latency for both, asserts the
service is >= ``--min-speedup`` (default 2x) faster, and — the part
that matters — asserts every service response is **byte-identical** to
the serial answer for the same request, whether it was executed,
coalesced, or replayed from cache.  Machine-readable results (including
shed/retry/restart counts and availability) go to
``benchmarks/results/BENCH_serving.json`` (the smoke payload carries
``"smoke": true`` — regenerate the committed file with no flags).

``--chaos`` adds a supervised-recovery pass: a seeded
``FaultPlan.kill_every(N)`` SIGKILLs each shard's worker on every Nth
request it executes, while the same stream (response cache off, one
request at a time, so every request truly executes) replays through the
pool.  The pass asserts each worker died at least twice, every admitted
request completed byte-identical to the serial baseline (100%
availability — nothing silently dropped), restarts are visible in the
stats snapshot, the pool's store directory is gone after stop, and no
new ``/dev/shm`` entry appeared.  When a prior
no-fault run's JSON from the same mode (smoke vs full) is present, the
chaos invocation also compares its own healthy-path throughput against
it.  The comparison is a hard failure only under ``--smoke`` — the CI
pairing where the reference was written seconds earlier by the same
runner (with one remeasure to absorb a scheduler-noise spike); at full
scale qps across invocations is dominated by single-box noise, so the
check is reported as a warning.  Tolerance:
``--chaos-overhead-tolerance`` (default 10%).  Chaos results go to
``benchmarks/results/BENCH_serving_chaos.json``.

Usage:
    PYTHONPATH=src python benchmarks/bench_serving.py [--smoke] [--chaos]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import CajadeSession, ExplanationRequest
from repro.core.config import CajadeConfig
from repro.core.question import OutlierQuestion
from repro.serving import (
    ExplanationService,
    FaultPlan,
    ProcessPoolBackend,
    ServiceOverloadedError,
    canonical_payload,
)
from repro.serving.metrics import percentile

RESULTS_PATH = (
    Path(__file__).resolve().parent / "results" / "BENCH_serving.json"
)
CHAOS_RESULTS_PATH = (
    Path(__file__).resolve().parent / "results" / "BENCH_serving_chaos.json"
)


def build_universe(num_queries: int) -> list[ExplanationRequest]:
    """The distinct requests the stream draws from.

    Per workload query: its comparison question, an outlier variant on
    the primary side, and a smaller-``top_k`` rewrite of the comparison
    (same fingerprint, different output-relevant config — exercises the
    cache-key split).
    """
    from repro.datasets.workloads import nba_queries

    universe: list[ExplanationRequest] = []
    for workload in nba_queries()[:num_queries]:
        universe.append(ExplanationRequest(workload.sql, workload.question))
        universe.append(
            ExplanationRequest(
                workload.sql, OutlierQuestion(workload.question.primary)
            )
        )
        universe.append(
            ExplanationRequest(workload.sql, workload.question, top_k=3)
        )
    return universe


def build_chaos_universe(num_shards: int) -> list[ExplanationRequest]:
    """Workload queries whose fingerprints cover every shard.

    All three request variants of one query share its fingerprint, so
    each workload query exercises exactly one worker; the chaos plan
    can only kill a worker the stream actually visits.  Greedily picks
    queries until all ``num_shards`` shards are covered.
    """
    from repro.serving import shard_for

    from repro.datasets.workloads import nba_queries

    chosen: list = []
    covered: set[int] = set()
    for workload in nba_queries():
        shard = shard_for(
            ExplanationRequest(workload.sql, workload.question).fingerprint,
            num_shards,
        )
        if shard in covered:
            continue
        covered.add(shard)
        chosen.append(workload)
        if len(covered) == num_shards:
            break
    if len(covered) < num_shards:
        raise SystemExit(
            f"workload queries cover only shards {sorted(covered)} "
            f"of {num_shards}"
        )
    universe: list[ExplanationRequest] = []
    for workload in chosen:
        universe.append(ExplanationRequest(workload.sql, workload.question))
        universe.append(
            ExplanationRequest(
                workload.sql, OutlierQuestion(workload.question.primary)
            )
        )
    return universe


def zipf_stream(
    universe: list[ExplanationRequest],
    length: int,
    seed: int,
    exponent: float = 1.3,
) -> list[ExplanationRequest]:
    """A seeded stream where request i is drawn ∝ 1/rank^exponent."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(len(universe))]
    stream = rng.choices(universe, weights=weights, k=length)
    # Every distinct request appears at least once so both systems do
    # the same set of unique computations.
    for i, request in enumerate(universe):
        stream[i * (length // len(universe))] = request
    return stream


def run_serial(db, schema_graph, config, stream):
    """Stateless baseline: fresh session per request, one at a time."""
    payloads: list[str] = []
    latencies: list[float] = []
    start = time.perf_counter()
    for request in stream:
        t0 = time.perf_counter()
        session = CajadeSession(db, schema_graph, config)
        result = session.explain(request)
        payloads.append(canonical_payload(result))
        latencies.append(time.perf_counter() - t0)
    return payloads, time.perf_counter() - start, latencies


def run_service(db, schema_graph, config, stream, workers, cache_mb, depth):
    """The serving tier answering the same stream concurrently.

    Every request is submitted at once; the *server* sheds what it
    cannot queue (429 + Retry-After) and the client resubmits after the
    advertised delay — admission control lives server-side, not in a
    client semaphore.
    """
    backend = ProcessPoolBackend(
        db, schema_graph, config, num_shards=workers
    )
    t0 = time.perf_counter()
    backend.start()  # excluded from the measured window
    startup = time.perf_counter() - t0
    shared_bytes = backend.shared_bytes  # the store's mapped data files

    async def drive():
        async with ExplanationService(
            backend,
            response_cache_mb=cache_mb,
            max_queue_depth=depth,
        ) as service:
            resubmissions = 0

            async def one(request):
                nonlocal resubmissions
                while True:
                    try:
                        return await service.submit(request)
                    except ServiceOverloadedError as exc:
                        resubmissions += 1
                        await asyncio.sleep(exc.retry_after or 0.05)

            start = time.perf_counter()
            responses = await asyncio.gather(*(one(r) for r in stream))
            elapsed = time.perf_counter() - start
            return (
                responses, elapsed, service.stats.snapshot(), resubmissions
            )

    responses, elapsed, stats, resubmissions = asyncio.run(drive())
    payloads = [r.payload for r in responses]
    latencies = [r.latency_seconds for r in responses]
    return (
        payloads, elapsed, latencies, stats, startup, shared_bytes,
        resubmissions,
    )


def run_chaos(db, schema_graph, config, stream, workers, kill_every, seed):
    """Replay the stream through a pool whose workers keep dying.

    Response cache off and one request in flight at a time: every
    stream entry executes on a worker and ticks the fault counters, so
    the seeded kill schedule is exactly reproducible.
    """
    plan = FaultPlan.kill_every(kill_every, seed=seed)
    shm_before = dev_shm_entries()
    backend = ProcessPoolBackend(
        db, schema_graph, config, num_shards=workers, fault_plan=plan
    )
    backend.start()

    async def drive():
        async with ExplanationService(
            backend,
            response_cache_mb=0.0,
            max_retries=3,
            retry_backoff=0.05,
        ) as service:
            start = time.perf_counter()
            responses = [await service.submit(r) for r in stream]
            elapsed = time.perf_counter() - start
            return responses, elapsed, service.stats.snapshot()

    responses, elapsed, stats = asyncio.run(drive())

    leaked = sorted(dev_shm_entries() - shm_before)
    if backend.store_directory.exists():
        leaked.append(str(backend.store_directory))
    payloads = [r.payload for r in responses]
    return payloads, elapsed, stats, plan, leaked


def dev_shm_entries() -> set[str]:
    """``/dev/shm`` entries, less the queues' ``sem.*`` semaphores."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {n for n in os.listdir("/dev/shm") if not n.startswith("sem.")}


def summarize(name, elapsed, latencies):
    qps = len(latencies) / elapsed if elapsed > 0 else float("inf")
    p50 = percentile(latencies, 50.0) * 1e3
    p99 = percentile(latencies, 99.0) * 1e3
    print(
        f"{name}: {len(latencies)} requests in {elapsed:6.2f}s  "
        f"({qps:6.2f} qps, p50 {p50:7.2f}ms, p99 {p99:8.2f}ms)"
    )
    return {
        "requests": len(latencies),
        "seconds": round(elapsed, 4),
        "qps": round(qps, 3),
        "latency_p50_ms": round(p50, 3),
        "latency_p99_ms": round(p99, 3),
    }


def run(args: argparse.Namespace) -> int:
    from repro.datasets import load_nba

    reference_qps = None
    if args.chaos and RESULTS_PATH.exists():
        try:
            prior = json.loads(RESULTS_PATH.read_text())
            if bool(prior.get("smoke")) == bool(args.smoke):
                reference_qps = prior["service"]["qps"]
            else:
                print(
                    "prior results JSON is from a different mode "
                    "(smoke vs full); overhead check skipped"
                )
        except (KeyError, ValueError):
            reference_qps = None

    print(f"loading NBA (scale={args.scale}) ...", flush=True)
    db, schema_graph = load_nba(scale=args.scale, seed=5)
    config = CajadeConfig(max_join_edges=2, top_k=10, seed=2)

    universe = build_universe(args.queries)
    stream = zipf_stream(universe, args.length, seed=args.seed)
    distinct = len({id(r) for r in stream})
    print(
        f"stream: {len(stream)} requests over {len(universe)} distinct "
        f"({distinct} drawn), zipf seed {args.seed}"
    )

    print("serial (stateless one-shot per request):", flush=True)
    serial_payloads, t_serial, serial_lat = run_serial(
        db, schema_graph, config, stream
    )
    serial = summarize("serial ", t_serial, serial_lat)

    print(
        f"service ({args.workers} workers, "
        f"{args.response_cache_mb:g}MB response cache, "
        f"max_queue_depth={args.depth}):",
        flush=True,
    )
    (
        service_payloads,
        t_service,
        service_lat,
        stats,
        startup,
        shared_bytes,
        resubmissions,
    ) = run_service(
        db,
        schema_graph,
        config,
        stream,
        args.workers,
        args.response_cache_mb,
        args.depth,
    )
    service = summarize("service", t_service, service_lat)
    print(
        f"  pool startup {startup:.2f}s (excluded), "
        f"{shared_bytes / 1e6:.2f}MB shared, "
        f"{stats['cache_hits']} cache hits + {stats['coalesced']} "
        f"coalesced of {stats['requests']} requests, "
        f"{stats['batches']} batches, {stats['shed']} shed "
        f"({resubmissions} resubmitted), {stats['retries']} retries"
    )

    mismatches = sum(
        1 for a, b in zip(serial_payloads, service_payloads) if a != b
    )
    if mismatches:
        print(f"FAIL: {mismatches}/{len(stream)} responses differ")
        return 1
    print("every service response byte-identical to the serial answer")

    speedup = t_serial / t_service if t_service > 0 else float("inf")
    print(f"throughput: {speedup:.2f}x serial")
    payload = {
        "smoke": bool(args.smoke),
        "scale": args.scale,
        "stream_length": len(stream),
        "distinct_requests": len(universe),
        "workers": args.workers,
        "response_cache_mb": args.response_cache_mb,
        "max_queue_depth": args.depth,
        "serial": serial,
        "service": service,
        "speedup": round(speedup, 3),
        "pool_startup_seconds": round(startup, 3),
        "shared_memory_bytes": shared_bytes,
        "shed": stats["shed"],
        "client_resubmissions": resubmissions,
        "retries": stats["retries"],
        "restarts": stats["health"]["restarts"],
        "availability_pct": round(stats["availability"] * 100.0, 3),
        "service_stats": stats,
    }
    if not args.chaos:
        RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {RESULTS_PATH}")

    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x < {args.min_speedup:g}x")
        return 1

    if args.chaos:
        return run_chaos_pass(
            args, db, schema_graph, config, payload, reference_qps
        )
    print("OK")
    return 0


def run_chaos_pass(
    args, db, schema_graph, config, healthy_payload, reference_qps
) -> int:
    """The supervised-recovery pass behind ``--chaos``."""
    chaos_universe = build_chaos_universe(args.workers)
    # Round-robin rather than zipf: with the response cache off every
    # entry executes, so each shard's request counter climbs evenly and
    # the kill-every-N schedule hits every worker at least twice.
    per_shard = args.chaos_kill_every * 2 + 2  # 2 kills + retry slack
    chaos_stream = [
        chaos_universe[i % len(chaos_universe)]
        for i in range(per_shard * args.workers)
    ]
    print(
        f"chaos: {len(chaos_stream)} sequential requests, "
        f"kill every {args.chaos_kill_every} per shard "
        f"(seed {args.seed}), response cache off",
        flush=True,
    )

    serial_payloads, _t, _lat = run_serial(
        db, schema_graph, config, chaos_stream
    )
    payloads, elapsed, stats, plan, leaked = run_chaos(
        db,
        schema_graph,
        config,
        chaos_stream,
        args.workers,
        args.chaos_kill_every,
        args.seed,
    )

    restarts_per_shard = {
        h["shard"]: h["restarts"] for h in stats["health"]["shards"]
    }
    mismatches = sum(
        1 for a, b in zip(serial_payloads, payloads) if a != b
    )
    availability = stats["availability"]
    print(
        f"  {len(payloads)} answered in {elapsed:.2f}s, "
        f"{stats['health']['restarts']} restarts "
        f"{restarts_per_shard}, {stats['retries']} retries, "
        f"availability {availability * 100.0:.1f}%"
    )

    failures: list[str] = []
    if mismatches:
        failures.append(
            f"{mismatches}/{len(chaos_stream)} responses differ from serial"
        )
    if len(payloads) != len(chaos_stream):
        failures.append(
            f"{len(chaos_stream) - len(payloads)} requests dropped"
        )
    if availability < 1.0:
        failures.append(f"availability {availability * 100.0:.1f}% < 100%")
    short = {
        s: n for s, n in restarts_per_shard.items() if n < 2
    }
    if short:
        failures.append(f"shards killed fewer than twice: {short}")
    if stats["health"]["quarantined"]:
        failures.append(
            f"unexpected quarantine: {stats['health']['quarantined']}"
        )
    if leaked:
        failures.append(f"leaked store or /dev/shm entries: {leaked}")

    healthy_qps = healthy_payload["service"]["qps"]
    overhead_ok = True
    if reference_qps:
        floor = (1.0 - args.chaos_overhead_tolerance) * reference_qps
        overhead_ok = healthy_qps >= floor
        if not overhead_ok and args.smoke:
            # One remeasure before failing CI: at smoke scale a single
            # healthy pass is cheap and a scheduler-noise spike on a
            # shared runner is the common cause of a miss.
            print(
                f"  healthy-path {healthy_qps:.2f} qps below floor "
                f"{floor:.2f}; remeasuring once",
                flush=True,
            )
            stream = zipf_stream(
                build_universe(args.queries), args.length, seed=args.seed
            )
            _, t_retry, _, _, _, _, _ = run_service(
                db,
                schema_graph,
                config,
                stream,
                args.workers,
                args.response_cache_mb,
                args.depth,
            )
            healthy_qps = max(
                healthy_qps, round(len(stream) / t_retry, 3)
            )
            overhead_ok = healthy_qps >= floor
        verdict = "ok" if overhead_ok else (
            "FAIL" if args.smoke else "WARN"
        )
        print(
            f"  healthy-path {healthy_qps:.2f} qps vs no-fault run "
            f"{reference_qps:.2f} qps (floor {floor:.2f}, {verdict})"
        )
        if not overhead_ok:
            if args.smoke:
                failures.append(
                    f"healthy-path qps {healthy_qps:.2f} fell more than "
                    f"{args.chaos_overhead_tolerance:.0%} below the "
                    f"no-fault run's {reference_qps:.2f}"
                )
            else:
                print(
                    "  (warning only outside --smoke: full-scale qps "
                    "across invocations is dominated by single-box "
                    "scheduler noise)"
                )
    else:
        print("  no comparable no-fault results JSON; overhead check skipped")

    chaos_payload = {
        "smoke": bool(args.smoke),
        "scale": args.scale,
        "stream_length": len(chaos_stream),
        "workers": args.workers,
        "kill_every": args.chaos_kill_every,
        "fault_plan": plan.describe(),
        "seconds": round(elapsed, 4),
        "restarts": stats["health"]["restarts"],
        "restarts_per_shard": restarts_per_shard,
        "retries": stats["retries"],
        "availability_pct": round(availability * 100.0, 3),
        "byte_identical": mismatches == 0,
        "healthy_qps": healthy_qps,
        "reference_qps": reference_qps,
        "healthy_within_tolerance": overhead_ok,
        "service_stats": stats,
    }
    CHAOS_RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    CHAOS_RESULTS_PATH.write_text(
        json.dumps(chaos_payload, indent=2) + "\n"
    )
    print(f"wrote {CHAOS_RESULTS_PATH}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "every admitted request survived the kill schedule byte-identical"
    )
    print("OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: small scale and stream, 2 workers",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="NBA dataset scale (default 0.1; smoke 0.04)")
    parser.add_argument("--length", type=int, default=None,
                        help="stream length (default 36; smoke 15)")
    parser.add_argument("--queries", type=int, default=None,
                        help="workload queries in the universe "
                        "(default 2; smoke 1)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker pool shards (default 2)")
    parser.add_argument("--response-cache-mb", type=float, default=64.0)
    parser.add_argument("--depth", type=int, default=8,
                        help="server-side per-shard queue bound before "
                        "shedding (default 8)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required service/serial throughput ratio")
    parser.add_argument("--chaos", action="store_true",
                        help="add the supervised-recovery pass (seeded "
                        "kill-every-Nth fault plan)")
    parser.add_argument("--chaos-kill-every", type=int, default=3,
                        help="kill each shard's worker on every Nth "
                        "request it executes (default 3)")
    parser.add_argument("--chaos-overhead-tolerance", type=float,
                        default=0.10,
                        help="allowed healthy-path qps drop vs the "
                        "no-fault run's JSON (default 0.10)")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = 0.04 if args.smoke else 0.1
    if args.length is None:
        args.length = 15 if args.smoke else 36
    if args.queries is None:
        args.queries = 1 if args.smoke else 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
