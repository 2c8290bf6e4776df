"""Benchmark: out-of-core column store — O(dict) reopen, Fig-9 at scale.

Exercises the persistent memory-mappable column store end to end on the
NBA database:

- *cold ingest*: CSV parse + type inference + dictionary encoding via
  ``load_database`` — the price every prior session paid on startup;
- *save*: one-time ``Database.save`` writing the columnar cache;
- *reopen*: ``Database.open`` memory-mapping the code/numeric arrays
  with **lazy value dictionaries** — must be at least
  ``--min-reopen-speedup`` (default 10x) faster than cold ingest, and
  must load **zero** dictionary files at open time;
- *byte identity*: the user-study explanation (UQ1) is computed on the
  CSV-loaded in-memory database and on the memmap-backed opened
  database — the two ranked payloads must match byte for byte;
- *synthetic ~10x arm*: ``scale_up_database`` by ``--tenx-factor``,
  save/reopen the scaled store, and check the user-study SQL aggregate
  matches between the in-memory and memmap-backed copies.

Every step records wall-clock and resident-set readings through
``perf_harness.StepMeter``; the report's ``"peak_rss"`` object carries
the process high-water mark plus per-step before/after RSS.  Results go
to ``benchmarks/results/BENCH_outofcore.json`` (smoke runs write a
``_smoke`` sibling instead of clobbering a committed full run).

Usage:
    PYTHONPATH=src python benchmarks/bench_outofcore.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_harness import StepMeter

from repro.api import CajadeSession
from repro.core.config import CajadeConfig
from repro.db.csvio import load_database, save_database
from repro.db.database import Database

RESULTS_PATH = (
    Path(__file__).resolve().parent / "results" / "BENCH_outofcore.json"
)


def ranked_payload(result) -> str:
    """Everything the user sees, minus cache counters (which legitimately
    differ between execution strategies)."""
    payload = json.loads(result.to_json())
    payload.pop("apt_cache", None)
    return json.dumps(payload, sort_keys=True)


def explain_payload(db, config) -> str:
    from repro.datasets import user_study_query
    from repro.datasets.nba import nba_schema_graph

    workload = user_study_query()
    session = CajadeSession(db, nba_schema_graph(db), config)
    return ranked_payload(session.explain(workload.sql, workload.question))


def sql_rows(db) -> list[tuple]:
    """The user-study aggregate's result rows (hashable, order-preserved)."""
    from repro.datasets import user_study_query
    from repro.db.executor import execute
    from repro.db.parser import parse_sql

    result = execute(parse_sql(user_study_query().sql), db)
    return [tuple(row) for row in result.iter_rows()]


def run(args: argparse.Namespace) -> int:
    from repro.datasets import load_nba, scale_up_database

    meter = StepMeter()
    failures: list[str] = []

    print(f"generating NBA (scale={args.scale}) ...", flush=True)
    db_gen, _ = meter.measure(
        "generate", lambda: load_nba(scale=args.scale, seed=5)
    )

    with tempfile.TemporaryDirectory(prefix="outofcore_bench_") as tmp:
        csv_dir = Path(tmp) / "csv"
        col_dir = Path(tmp) / "colstore"
        meter.measure("write csv", lambda: save_database(db_gen, csv_dir))

        cold_seconds = []
        db_csv = None
        for _ in range(args.repeats):
            start = time.perf_counter()
            db_csv = meter.measure(
                "cold ingest (csv)", lambda: load_database(csv_dir)
            )
            cold_seconds.append(time.perf_counter() - start)
        assert db_csv is not None

        meter.measure("save columnar", lambda: db_csv.save(col_dir))

        reopen_seconds = []
        db_mm = None
        dicts_at_open = None
        for _ in range(args.repeats):
            start = time.perf_counter()
            db_mm = meter.measure(
                "reopen colstore", lambda: Database.open(col_dir)
            )
            reopen_seconds.append(time.perf_counter() - start)
            dicts_at_open = db_mm.column_store.dicts_loaded
        assert db_mm is not None

        cold = min(cold_seconds)
        reopen = min(reopen_seconds)
        speedup = cold / reopen if reopen > 0 else float("inf")
        print(
            f"cold ingest {cold:.3f}s -> reopen {reopen:.4f}s "
            f"= {speedup:.1f}x, {dicts_at_open} dictionary files loaded at open"
        )
        if dicts_at_open != 0:
            failures.append(
                f"open loaded {dicts_at_open} value dicts (expected 0)"
            )
        if speedup < args.min_reopen_speedup:
            failures.append(
                f"reopen only {speedup:.1f}x faster than cold ingest "
                f"(floor {args.min_reopen_speedup:g}x)"
            )

        config = CajadeConfig(
            num_selected_attrs=3,
            top_k=10,
            seed=2,
            max_join_edges=args.edges,
        )
        arms = {"in-memory": db_csv, "memmap": db_mm}
        payloads = {}
        for label, db in arms.items():
            payloads[label] = meter.measure(
                f"explain {label}", lambda db=db: explain_payload(db, config)
            )
            print(
                f"explain {label}: "
                f"{meter.seconds(f'explain {label}'):.2f}s"
            )
        byte_identical = payloads["memmap"] == payloads["in-memory"]
        if byte_identical:
            print("ranked explanations byte-identical: memmap on/off")
        else:
            failures.append(
                "explain memmap: ranked output differs from in-memory"
            )
        dicts_after = db_mm.column_store.dicts_loaded
        dict_total = len(db_mm.column_store.stores)
        print(
            f"dictionary files loaded after explain: {dicts_after}/{dict_total}"
        )

        tenx = {}
        if args.tenx_factor > 1:
            factor = args.tenx_factor
            print(f"synthetic x{factor} arm ...", flush=True)
            db_big = meter.measure(
                f"scale up x{factor}",
                lambda: scale_up_database(db_csv, factor),
            )
            big_dir = Path(tmp) / "colstore_big"
            meter.measure(
                f"save columnar x{factor}", lambda: db_big.save(big_dir)
            )
            start = time.perf_counter()
            db_big_mm = meter.measure(
                f"reopen colstore x{factor}", lambda: Database.open(big_dir)
            )
            big_reopen = time.perf_counter() - start
            big_dicts = db_big_mm.column_store.dicts_loaded
            if big_dicts != 0:
                failures.append(
                    f"x{factor} open loaded {big_dicts} dicts (expected 0)"
                )
            rows_mem = meter.measure(
                f"sql aggregate x{factor} in-memory", lambda: sql_rows(db_big)
            )
            rows_mm = meter.measure(
                f"sql aggregate x{factor} memmap", lambda: sql_rows(db_big_mm)
            )
            if rows_mem != rows_mm:
                failures.append(
                    f"x{factor} SQL aggregate differs between in-memory "
                    "and memmap databases"
                )
            tenx = {
                "factor": factor,
                "reopen_seconds": round(big_reopen, 4),
                "dicts_loaded_at_open": big_dicts,
                "sql_rows": len(rows_mm),
                "sql_identical": rows_mem == rows_mm,
            }
            print(
                f"x{factor}: reopen {big_reopen:.3f}s, "
                f"{big_dicts} dicts at open, "
                f"{len(rows_mm)} aggregate rows, "
                f"identical={rows_mem == rows_mm}"
            )

    report = {
        "benchmark": "bench_outofcore",
        "workload": "UQ1 (user study) + user-study SQL aggregate",
        "scale": args.scale,
        "edges": args.edges,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "cold_ingest_seconds": [round(s, 4) for s in cold_seconds],
        "reopen_seconds": [round(s, 4) for s in reopen_seconds],
        "reopen_speedup": round(speedup, 1),
        "min_reopen_speedup": args.min_reopen_speedup,
        "dicts_loaded_at_open": dicts_at_open,
        "dicts_loaded_after_explain": dicts_after,
        "dict_stores_total": dict_total,
        "explain_seconds": {
            label: meter.seconds(f"explain {label}") for label in arms
        },
        "byte_identical": byte_identical,
        "tenx": tenx,
        "peak_rss": meter.report(),
    }
    target = RESULTS_PATH
    if args.smoke and RESULTS_PATH.exists():
        try:
            committed = json.loads(RESULTS_PATH.read_text())
        except (ValueError, OSError):
            committed = {}
        if committed.get("smoke") is False:
            # Never clobber the committed full-run numbers with smoke
            # numbers; smoke output goes to a sibling (gitignored) file.
            target = RESULTS_PATH.with_name("BENCH_outofcore_smoke.json")
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {target}")

    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return 1
    print("OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI smoke mode: small scale, edges=1, x2 synthetic arm "
             "(byte-identity, O(dict) open, and the reopen-speedup "
             "floor still enforced)",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="NBA dataset scale (default 1.0; smoke 0.08)")
    parser.add_argument("--edges", type=int, default=None,
                        help="λ#edges for the explanations (default 2; "
                             "smoke 1)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="cold-ingest/reopen repeats (default 3; "
                             "smoke 2)")
    parser.add_argument("--tenx-factor", type=int, default=None,
                        help="synthetic scale-up factor (default 10; "
                             "smoke 2; 1 disables the arm)")
    parser.add_argument("--min-reopen-speedup", type=float, default=10.0,
                        help="reopen must beat cold CSV ingest by this "
                             "factor (default 10x)")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = 0.08 if args.smoke else 1.0
    if args.edges is None:
        args.edges = 1 if args.smoke else 2
    if args.repeats is None:
        args.repeats = 2 if args.smoke else 3
    if args.tenx_factor is None:
        args.tenx_factor = 2 if args.smoke else 10
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
