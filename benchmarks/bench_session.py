"""Benchmark: warm CajadeSession vs cold one-shot explanation runs.

The session API exists so an interactive analyst (or a serving tier)
pays the preprocessing cost of a query once: parse + provenance +
join-graph enumeration + the materialization trie + per-graph mining
finalists all persist across questions.  This benchmark measures that
amortization on a Qnba workload:

1. *cold one-shot*: a fresh ``CajadeSession`` per call, repeated
   ``--runs`` times; the best (fastest) run is the baseline, giving the
   cold path every benefit of OS/page-cache warmth;
2. *warm session*: one session; the first ask pays the cold cost, the
   **second ask of the same question** is answered from the mining
   memo alone (no APT is materialized again).  Asserts the warm second
   ask is >= 2x faster than the best cold run (the real factor is
   typically far higher) and that its ranked explanations are
   byte-identical to the cold path's;
3. *cross-question*: a different question (outlier on t1) against the
   same query — reuses parse/provenance/enumeration and engine context
   state, reports the observed timing and per-request engine counters;
4. *stream*: the same requests once more, one ``session.explain`` after
   another (one of them a repeat), verifying byte-identical output.

Usage:
    PYTHONPATH=src python benchmarks/bench_session.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import CajadeSession, ExplanationRequest
from repro.core.config import CajadeConfig
from repro.core.question import OutlierQuestion


def ranked_payload(result) -> str:
    """Everything the user sees, minus cache counters (which legitimately
    differ between warmths)."""
    payload = json.loads(result.to_json())
    payload.pop("apt_cache", None)
    return json.dumps(payload, sort_keys=True)


def run(args: argparse.Namespace) -> int:
    from repro.datasets import load_nba, query_by_name

    print(f"loading NBA (scale={args.scale}) ...", flush=True)
    db, schema_graph = load_nba(scale=args.scale, seed=5)
    workload = query_by_name(args.workload)
    config = CajadeConfig(
        max_join_edges=args.edges,
        top_k=10,
        seed=2,
    )
    print(f"{workload.name}: {workload.description}")

    # -- cold one-shot baseline ---------------------------------------
    cold_seconds = []
    cold_payload = None
    for i in range(args.runs):
        session = CajadeSession(db, schema_graph, config)
        start = time.perf_counter()
        result = session.explain(workload.sql, workload.question)
        cold_seconds.append(time.perf_counter() - start)
        cold_payload = ranked_payload(result)
        print(f"cold one-shot #{i + 1}: {cold_seconds[-1]:6.2f}s")
    t_cold = min(cold_seconds)

    # -- warm session --------------------------------------------------
    session = CajadeSession(db, schema_graph, config)
    start = time.perf_counter()
    first = session.explain(workload.sql, workload.question)
    t_first = time.perf_counter() - start
    start = time.perf_counter()
    second = session.explain(workload.sql, workload.question)
    t_warm = time.perf_counter() - start
    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    print(f"session ask #1 (cold): {t_first:6.2f}s  warm_query={first.warm_query}")
    print(
        f"session ask #2 (warm): {t_warm:6.3f}s  -> {speedup:.1f}x vs "
        f"best cold ({second.mined_graphs_reused}/"
        f"{second.join_graphs_mined} mined graphs reused)"
    )
    print(f"  warm engine delta: {second.engine.describe()}")

    if ranked_payload(second) != cold_payload:
        print("FAIL: warm-session explanations differ from cold one-shot")
        return 1
    print("warm second ask byte-identical to cold one-shot")
    if (
        second.engine.graphs != 0
        or second.mined_graphs_reused != second.join_graphs_mined
    ):
        print("FAIL: warm second ask did not run fully from the mining memo")
        return 1

    # -- cross-question on the same query ------------------------------
    outlier = OutlierQuestion(workload.question.primary)
    start = time.perf_counter()
    cross = session.explain(workload.sql, outlier)
    t_cross = time.perf_counter() - start
    print(
        f"cross-question (outlier on t1): {t_cross:6.2f}s  "
        f"warm_query={cross.warm_query}"
    )
    print(f"  engine delta: {cross.engine.describe()}")
    if not cross.warm_query:
        print("FAIL: cross-question did not reuse the query state")
        return 1

    # -- a stream of warm requests ---------------------------------------
    requests = [
        ExplanationRequest(workload.sql, workload.question),
        ExplanationRequest(workload.sql, outlier),
        ExplanationRequest(workload.sql, workload.question),
    ]
    start = time.perf_counter()
    responses = [session.explain(request) for request in requests]
    t_stream = time.perf_counter() - start
    print(f"{len(requests)} warm requests in a row: {t_stream:6.2f}s")
    for response in (responses[0], responses[2]):
        if ranked_payload(response) != cold_payload:
            print("FAIL: warm explanations differ from cold one-shot")
            return 1
    print("warm explanations byte-identical across warmth")
    print(session.stats.describe())

    if not args.quick and speedup < 2.0:
        print(f"FAIL: warm-session speedup {speedup:.2f}x < 2x")
        return 1
    print("OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: smaller workload, no speedup assertion",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="NBA dataset scale (default 0.1; quick 0.04)")
    parser.add_argument("--edges", type=int, default=2,
                        help="λ#edges for all runs (default 2)")
    parser.add_argument("--workload", default="Qnba1",
                        help="Qnba workload name (default Qnba1)")
    parser.add_argument("--runs", type=int, default=None,
                        help="cold one-shot repetitions (default 3; quick 1)")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = 0.04 if args.quick else 0.1
    if args.runs is None:
        args.runs = 1 if args.quick else 3
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
