"""Benchmark: shared-prefix APT materialization, cache-on vs cache-off.

Reproduces the materialization side of the paper's Figure 8 workload:
the NBA user-study query over the (λ#edges × λF1-samp) grid, with
λ#edges swept 0..4.  Every grid cell materializes the APT of each
BFS-enumerated join graph of that size or smaller (per-size caps keep
the deepest points tractable; caps take the BFS prefix, so parents stay
in the set).  λF1-samp only affects mining, so the three F1 columns of
the paper's grid repeat the exact same materialization work — which is
the point of the comparison:

- *cache-off*: every cell rebuilds every APT from the provenance table
  through an engine with no trie (``cache_mb=0``) — no join is shared
  between graphs or cells;
- *cache-on*: one :class:`repro.engine.MaterializationEngine` is shared
  across the grid, so graphs extending an already-materialized prefix
  reuse its intermediate join, and re-visited graphs (smaller sweep
  points, repeated F1 columns) are full-plan trie hits.

Both modes are verified byte-identical (schema, rows, ``__pt_row_id``)
for every join graph at the deepest sweep point, and a full explanation
run is compared across cache-off / cache-on for byte-identical JSON
output and F-scores.  The full run asserts the
cache delivers at least a 2x materialization speedup over the grid;
``--quick`` keeps the correctness checks but skips the speedup
assertion (CI smoke mode).

Usage:
    PYTHONPATH=src python benchmarks/bench_apt_cache.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.api import CajadeSession
from repro.core.config import CajadeConfig
from repro.core.enumeration import enumerate_join_graphs
from repro.db.parser import parse_sql
from repro.db.provenance import ProvenanceTable
from repro.db.relation import Relation
from repro.engine import MaterializationEngine


def relations_identical(a: Relation, b: Relation) -> bool:
    """Byte-identical check: schema, row order, and every column."""
    if a.column_names != b.column_names or a.num_rows != b.num_rows:
        return False
    for name in a.column_names:
        left, right = a.column(name), b.column(name)
        if left.dtype != right.dtype:
            return False
        if left.dtype.kind == "f":
            if not np.array_equal(left, right, equal_nan=True):
                return False
        elif not np.array_equal(left, right):
            return False
    return True


def materialize_all(engine: MaterializationEngine, graphs, restrict) -> list:
    """``engine``'s APTs of ``graphs``, in input order."""
    apts: list = [None] * len(graphs)
    for index, apt in engine.materialize_iter(graphs, restrict):
        apts[index] = apt
    return apts


def run(args: argparse.Namespace) -> int:
    from repro.datasets import load_nba, user_study_query

    print(f"loading NBA (scale={args.scale}) ...", flush=True)
    db, schema_graph = load_nba(scale=args.scale, seed=5)
    workload = user_study_query()
    config = CajadeConfig(
        max_join_edges=args.edges,
        num_selected_attrs=3,
        top_k=10,
        seed=2,
    )

    query = parse_sql(workload.sql)
    pt = ProvenanceTable.compute(query, db)
    resolved = workload.question.resolve(pt)
    restrict = np.concatenate([resolved.row_ids1, resolved.row_ids2])

    caps = {3: args.cap3, 4: args.cap4}
    counts: dict[int, int] = {}
    graphs = []
    for graph in enumerate_join_graphs(schema_graph, query, pt, db, config):
        size = graph.num_edges
        if counts.get(size, 0) >= caps.get(size, 10**9):
            if size >= args.edges:
                break
            continue
        counts[size] = counts.get(size, 0) + 1
        graphs.append(graph)
    sizes = " ".join(f"{k}e:{v}" for k, v in sorted(counts.items()))
    print(f"{len(graphs)} join graphs up to size {args.edges} ({sizes})")

    # Warm-up (first-touch allocation and code paths), untimed.
    no_sharing = MaterializationEngine(pt, db, cache_mb=0)
    materialize_all(no_sharing, graphs[: min(len(graphs), 40)], restrict)

    # -- the Fig. 8 (λ#edges x λF1) grid ------------------------------
    # Cache-off and cache-on materialization run back-to-back inside
    # every grid cell so slow drift in machine speed (frequency scaling,
    # page-cache state) hits both modes equally instead of whichever
    # sweep happened to run later.
    sweep = list(range(args.edges + 1))
    f1_rates = [0.1, 0.3, 1.0]
    subsets = {
        k: [g for g in graphs if g.num_edges <= k] for k in sweep
    }

    engine = MaterializationEngine(pt, db, cache_mb=args.cache_mb)
    off_seconds = {k: 0.0 for k in sweep}
    on_seconds = {k: 0.0 for k in sweep}
    off_apts = on_apts = None
    for _rate in f1_rates:
        for k in sweep:
            start = time.perf_counter()
            apts = materialize_all(no_sharing, subsets[k], restrict)
            off_seconds[k] += time.perf_counter() - start
            if k == args.edges:
                off_apts = apts
            del apts

            start = time.perf_counter()
            apts = materialize_all(engine, subsets[k], restrict)
            on_seconds[k] += time.perf_counter() - start
            if k == args.edges:
                on_apts = apts
            del apts

    assert off_apts is not None and on_apts is not None
    mismatched = [
        g.structure()
        for g, off, on in zip(subsets[args.edges], off_apts, on_apts)
        if not relations_identical(off.relation, on.relation)
    ]
    if mismatched:
        print(f"FAIL: {len(mismatched)} APT mismatches: {mismatched[:3]}")
        return 1

    print(
        f"{'λ#edges':>8s} {'graphs':>7s} {'cells':>6s} "
        f"{'cache-off':>10s} {'cache-on':>10s}"
    )
    for k in sweep:
        print(
            f"{k:>8d} {len(subsets[k]):>7d} {len(f1_rates):>6d} "
            f"{off_seconds[k]:>9.2f}s {on_seconds[k]:>9.2f}s"
        )
    t_off = sum(off_seconds.values())
    t_on = sum(on_seconds.values())
    speedup = t_off / t_on if t_on > 0 else float("inf")
    print(
        f"{'total':>8s} {'':>7s} {'':>6s} {t_off:>9.2f}s {t_on:>9.2f}s "
        f"-> {speedup:.2f}x"
    )
    print(engine.stats.describe())
    print(
        f"all {len(subsets[args.edges])} APTs byte-identical across modes"
    )

    # -- end-to-end explanation equivalence ---------------------------
    explain_config = config.with_overrides(max_join_edges=args.explain_edges)
    runs = {
        "cache-off": explain_config.with_overrides(apt_cache_mb=0.0),
        "cache-on": explain_config,
    }
    outputs: dict[str, str] = {}
    for label, run_config in runs.items():
        start = time.perf_counter()
        result = CajadeSession(db, schema_graph, run_config).explain(
            workload.sql, workload.question
        )
        elapsed = time.perf_counter() - start
        # Compare everything the user sees except the cache counters,
        # which legitimately differ between cache-on and cache-off.
        payload = json.loads(result.to_json())
        payload.pop("apt_cache", None)
        outputs[label] = json.dumps(payload, sort_keys=True)
        scores = [f"{e.f_score:.4f}" for e in result.explanations[:3]]
        print(
            f"explain [{label:>12s}]: {elapsed:6.2f}s "
            f"top F-scores {' '.join(scores)}"
        )
    baseline = outputs["cache-off"]
    for label, payload in outputs.items():
        if payload != baseline:
            print(f"FAIL: {label} explanations differ from cache-off")
            return 1
    print("explanations and F-scores byte-identical across both modes")

    if not args.quick and speedup < 2.0:
        print(f"FAIL: cache speedup {speedup:.2f}x < 2x")
        return 1
    print("OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: smaller workload, no speedup assertion",
    )
    parser.add_argument("--scale", type=float, default=0.03,
                        help="NBA dataset scale (default 0.03)")
    parser.add_argument("--edges", type=int, default=None,
                        help="deepest λ#edges sweep point (default 4; "
                             "quick 3)")
    parser.add_argument("--explain-edges", type=int, default=None,
                        help="max join-graph size for the end-to-end "
                             "equivalence runs (default 2; quick 1)")
    parser.add_argument("--cap3", type=int, default=None,
                        help="BFS-prefix cap on size-3 graphs "
                             "(default 80; quick 60)")
    parser.add_argument("--cap4", type=int, default=40,
                        help="BFS-prefix cap on size-4 graphs")
    parser.add_argument("--cache-mb", type=float, default=2048.0,
                        help="engine cache budget for the sweep")
    args = parser.parse_args(argv)
    if args.edges is None:
        args.edges = 3 if args.quick else 4
    if args.explain_edges is None:
        args.explain_edges = 1 if args.quick else 2
    if args.cap3 is None:
        args.cap3 = 60 if args.quick else 80
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
