"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``generate``  — write a synthetic NBA or MIMIC database to a CSV
  directory (loadable with ``repro.db.csvio.load_database``);
- ``ingest``    — convert a CSV database into the memory-mappable
  column-store cache (``Database.save``), so later sessions reopen it
  in O(manifest) instead of re-parsing CSVs;
- ``explain``   — run CaJaDE on a CSV database with an inline SQL query
  and user question;
- ``workload``  — run one of the paper's named workload queries
  (Qnba1..5, Qmimic1..5) on a freshly generated dataset;
- ``serve``     — expose a CSV database as a concurrent explanation
  service over HTTP (``POST /explain``, ``GET /stats``): a sharded
  worker pool behind a coalescing front-end with a cross-request
  response cache.

Examples:

    python -m repro generate nba --scale 0.25 --out /tmp/nba
    python -m repro ingest /tmp/nba --out /tmp/nba_colstore
    python -m repro explain /tmp/nba --db-cache-dir /tmp/nba_colstore \
        --sql "SELECT COUNT(*) AS win, s.season_name FROM team t, game g, \
               season s WHERE t.team_id = g.winner_id AND \
               g.season_id = s.season_id AND t.team = 'GSW' \
               GROUP BY s.season_name" \
        --t1 season_name=2015-16 --t2 season_name=2012-13
    python -m repro workload Qmimic4 --scale 0.2
    python -m repro serve /tmp/nba --port 8321 --shards 2
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any

from .api import CajadeSession
from .core.config import CajadeConfig
from .core.question import ComparisonQuestion, OutlierQuestion
from .core.schema_graph import SchemaGraph
from .db.errors import DatabaseError


def _parse_tuple_spec(spec: list[str]) -> dict[str, Any]:
    """Parse ``name=value`` pairs.

    Values coerce in order: quoted string (``name="2015"`` stays the
    string ``2015``), ``true``/``false`` (case-insensitive) to bool,
    int, float, bare string.
    """
    out: dict[str, Any] = {}
    for item in spec:
        if "=" not in item:
            raise SystemExit(f"bad tuple spec {item!r}; expected name=value")
        name, raw = item.split("=", 1)
        out[name] = _coerce_value(raw)
    return out


def _coerce_value(raw: str) -> Any:
    if (
        len(raw) >= 2
        and raw[0] == raw[-1]
        and raw[0] in ("'", '"')
    ):
        return raw[1:-1]
    if raw.lower() == "true":
        return True
    if raw.lower() == "false":
        return False
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--edges", type=int, default=2,
                        help="λ#edges (default 2)")
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--f1-sample", type=float, default=0.3,
                        help="λF1-samp (default 0.3)")
    parser.add_argument("--sel-attrs", type=float, default=4,
                        help="λ#sel-attr (default 4)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--apt-cache-mb", type=float, default=256.0,
                        help="APT prefix-cache memory budget in MB "
                             "(default 256; 0 disables caching)")
    parser.add_argument("--sentences", action="store_true",
                        help="also print natural-language renderings")


def _config_from(args: argparse.Namespace) -> CajadeConfig:
    try:
        return CajadeConfig(
            max_join_edges=args.edges,
            top_k=args.top_k,
            f1_sample_rate=args.f1_sample,
            num_selected_attrs=args.sel_attrs,
            seed=args.seed,
            apt_cache_mb=args.apt_cache_mb,
        )
    except ValueError as exc:
        raise SystemExit(f"repro: invalid configuration: {exc}")


def _print_cache_stats(result) -> None:
    if result.engine is not None:
        print(result.engine.describe())


def _load_with_cache(database: str, cache_dir: str | None):
    """Load a CSV database, going through the column-store cache.

    With ``--db-cache-dir``: a populated cache directory is memory-mapped
    directly (``Database.open`` — no CSV parsing, and a dictionary file
    is read only when a question first needs its values); an
    empty/missing one is populated from the CSVs first,
    so the *next* start is the fast path.  Without the flag this is
    plain ``load_database``.
    """
    from pathlib import Path

    from .db.colstore import MANIFEST_NAME
    from .db.csvio import load_database
    from .db.database import Database

    if cache_dir is None:
        return load_database(database)
    cache = Path(cache_dir)
    if (cache / MANIFEST_NAME).exists():
        db = Database.open(cache)
        print(f"opened column store {cache} ({len(db.table_names)} tables)")
        return db
    db = load_database(database)
    db.save(cache)
    print(f"ingested {database} into column store {cache}")
    return db


def cmd_generate(args: argparse.Namespace) -> int:
    from .db.csvio import save_database

    if args.dataset == "nba":
        from .datasets import generate_nba

        db = generate_nba(scale=args.scale, seed=args.seed)
    else:
        from .datasets import generate_mimic

        db = generate_mimic(scale=args.scale, seed=args.seed)
    save_database(db, args.out)
    print(f"wrote {db} to {args.out}")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from .db.csvio import load_database

    db = load_database(args.database)
    db.save(args.out)
    print(f"wrote column store for {db} to {args.out}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    config = _config_from(args)
    db = _load_with_cache(args.database, args.db_cache_dir)
    schema_graph = SchemaGraph.from_database(db)
    session = CajadeSession(db, schema_graph, config)

    t1 = _parse_tuple_spec(args.t1)
    if args.t2:
        question: ComparisonQuestion | OutlierQuestion = ComparisonQuestion(
            t1, _parse_tuple_spec(args.t2)
        )
    else:
        question = OutlierQuestion(t1)
    result = session.explain(args.sql, question)
    print(result.describe())
    _print_cache_stats(result)
    if args.sentences:
        print()
        for explanation in result.explanations:
            print("-", explanation.to_sentence())
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from .datasets import load_mimic, load_nba, query_by_name

    config = _config_from(args)
    workload = query_by_name(args.name)
    if workload.dataset == "nba":
        db, schema_graph = load_nba(scale=args.scale, seed=args.seed)
    else:
        db, schema_graph = load_mimic(scale=args.scale, seed=args.seed)
    session = CajadeSession(db, schema_graph, config)
    print(f"{workload.name}: {workload.description}")
    print(f"question: {workload.question.describe()}")
    result = session.explain(workload.sql, workload.question)
    print(result.describe())
    _print_cache_stats(result)
    if args.sentences:
        print()
        for explanation in result.explanations:
            print("-", explanation.to_sentence())
    return 0


def _check_serve_flags(args: argparse.Namespace) -> None:
    """Refuse a bad ``serve`` flag before anything is loaded or saved."""
    floors = (
        ("--shards", args.shards, 1),
        ("--max-restarts", args.max_restarts, 0),
        ("--max-retries", args.max_retries, 0),
        ("--max-queue-depth", args.max_queue_depth, 0),
        ("--request-timeout", args.request_timeout, 0),
        ("--response-cache-mb", args.response_cache_mb, 0),
    )
    for flag, value, floor in floors:
        if not (math.isfinite(value) and value >= floor):
            raise SystemExit(
                f"repro: invalid {flag} {value}: must be a finite "
                f"number >= {floor}"
            )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serving import ExplanationService, ProcessPoolBackend, serve_http

    _check_serve_flags(args)
    config = _config_from(args)
    db = _load_with_cache(args.database, args.db_cache_dir)
    label = str(db)
    backend = ProcessPoolBackend(
        db,
        SchemaGraph.from_database(db),
        config,
        num_shards=args.shards,
        max_restarts=args.max_restarts,
    )
    # The workers open the store the backend saved; the parent answers
    # no question, so it keeps no database.
    del db

    async def run() -> None:
        import signal

        # Explicit signal handling rather than relying on asyncio.Runner's
        # KeyboardInterrupt cancellation: SIGTERM (the default `kill`) must
        # also shut down cleanly, or the daemon worker processes are
        # orphaned and the pool's temporary column store is left behind.
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        try:
            async with ExplanationService(
                backend,
                response_cache_mb=args.response_cache_mb,
                request_timeout=args.request_timeout or None,
                max_retries=args.max_retries,
                max_queue_depth=args.max_queue_depth or None,
            ) as service:
                server = await serve_http(
                    service, host=args.host, port=args.port
                )
                host, port = server.sockets[0].getsockname()[:2]
                print(
                    f"serving {label} on http://{host}:{port} "
                    "(POST /explain, GET /stats)"
                )
                # Flushed: a script reading a redirected stdout waits
                # for these lines to learn the port.
                print(
                    f"{backend.num_shards} workers mapping a "
                    f"{backend.shared_bytes / 1e6:.2f}MB column store",
                    flush=True,
                )
                async with server:
                    await stop.wait()
                    print("shutting down")
        finally:
            for sig in (signal.SIGINT, signal.SIGTERM):
                loop.remove_signal_handler(sig)

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CaJaDE: rich explanations for query answers using "
        "join graphs (SIGMOD 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("dataset", choices=["nba", "mimic"])
    gen.add_argument("--scale", type=float, default=0.25)
    gen.add_argument("--seed", type=int, default=11)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_generate)

    ing = sub.add_parser(
        "ingest", help="convert a CSV database to a column-store cache"
    )
    ing.add_argument("database", help="CSV database directory")
    ing.add_argument("--out", required=True,
                     help="column-store output directory (reopen with "
                          "--db-cache-dir, in O(manifest) time)")
    ing.set_defaults(func=cmd_ingest)

    exp = sub.add_parser("explain", help="explain a query answer")
    exp.add_argument("database", help="CSV database directory")
    exp.add_argument("--db-cache-dir", default=None,
                     help="column-store cache directory: memory-mapped "
                          "directly if populated, else populated from "
                          "the CSVs on first use")
    exp.add_argument("--sql", required=True)
    exp.add_argument(
        "--t1", nargs="+", required=True,
        metavar="NAME=VALUE", help="primary output tuple",
    )
    exp.add_argument(
        "--t2", nargs="+", default=None,
        metavar="NAME=VALUE",
        help="secondary output tuple (omit for an outlier question)",
    )
    _add_config_flags(exp)
    exp.set_defaults(func=cmd_explain)

    wl = sub.add_parser("workload", help="run a paper workload query")
    wl.add_argument("name", help="Qnba1..Qnba5 or Qmimic1..Qmimic5")
    wl.add_argument("--scale", type=float, default=0.2)
    _add_config_flags(wl)
    wl.set_defaults(func=cmd_workload)

    srv = sub.add_parser(
        "serve", help="serve explanations over HTTP (concurrent)"
    )
    srv.add_argument("database", help="CSV database directory")
    srv.add_argument("--db-cache-dir", default=None,
                     help="column-store cache directory: memory-mapped "
                          "directly if populated, else populated from "
                          "the CSVs on first use")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8321,
                     help="listen port (default 8321; 0 = any free port)")
    srv.add_argument("--shards", type=int, default=2,
                     help="worker pool processes, one per fingerprint "
                          "shard (default 2)")
    srv.add_argument("--response-cache-mb", type=float, default=64.0,
                     help="cross-request response cache budget in MB "
                          "(default 64; 0 disables replay)")
    srv.add_argument("--max-restarts", type=int, default=3,
                     help="consecutive worker failures a shard may "
                          "accumulate before quarantine (default 3)")
    srv.add_argument("--request-timeout", type=float, default=0.0,
                     help="default per-request deadline budget in "
                          "seconds (default 0 = unbounded; requests "
                          "may override via timeout_seconds)")
    srv.add_argument("--max-retries", type=int, default=2,
                     help="retry budget for retryable failures such "
                          "as worker death (default 2)")
    srv.add_argument("--max-queue-depth", type=int, default=64,
                     help="per-shard queue bound before shedding with "
                          "429 (default 64; 0 = unbounded)")
    _add_config_flags(srv)
    srv.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DatabaseError as exc:  # bad input data or SQL: one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
