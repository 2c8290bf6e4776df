"""Per-layer metrics of one traced run, from spans and counters.

Timings are *seconds per measured op* (or per call, for work that
happens once per set-up), so they do not depend on how many ops a
window held.  A layer a workload never enters reports 0.
"""

from __future__ import annotations

import statistics

from harness import Tracer, Window


def layer_values(
    tracer: Tracer,
    first: int,
    plain: Window,
    traced: Window,
    cpu_per_op: float,
    extras: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric; ``first`` is the traced window's first span."""
    spans = tracer.spans
    own = tracer.self_times()
    ops = traced.attempted
    counter = tracer.counters.get
    answers = counter("answers", 0)

    def per_call(name: str, start: int = 0) -> float:
        durations = [s[2] - s[1] for s in spans[start:] if s[0] == name]
        return statistics.fmean(durations) if durations else 0.0

    def per_op(name: str, self_time: bool = False) -> float:
        return sum(
            own[i] if self_time else spans[i][2] - spans[i][1]
            for i in range(first, len(spans))
            if spans[i][0] == name
        ) / ops

    def per_answer(name: str) -> float:
        return counter(name, 0) / answers if answers else 0.0

    def share(part: str, rest: str) -> float:
        total = counter(part, 0) + counter(rest, 0)
        return counter(part, 0) / total if total else 0.0

    answered = [i for i in tracer.answered if i >= first]
    answer_wall = sum(spans[i][2] - spans[i][1] for i in answered)
    memo_hit_ratio = (
        counter("mined_graphs_reused", 0) / counter("join_graphs_mined", 1)
    )
    select = per_op("core.diversity.select")
    execute_ms = 1e3 * per_call("serving.pool.execute", first)

    values = {
        "db.csvio.load_s": per_call("db.csvio.load"),
        "db.colstore.save_s": per_call("db.colstore.save"),
        "db.colstore.open_s": per_call("db.colstore.open"),
        "db.colstore.dicts_loaded_at_open": (
            counter("dicts_loaded_at_open", 0) / counter("opens", 1)
        ),
        "db.colstore.bytes_per_csv_byte": 0.0,
        "db.join_index.warm_s": per_call("db.join_index.warm"),
        "db.parser.parse_s": per_op("db.parser.parse"),
        "db.provenance.compute_s": per_op("db.provenance.compute"),
        "core.enumeration.s": per_op("core.enumeration"),
        "core.enumeration.join_graphs": per_answer("join_graphs_mined"),
        "core.feature_selection.s": per_op("core.feature_selection"),
        "ml.varclus.cluster_s": per_op("ml.varclus.cluster"),
        "ml.hist_forest.fit_s": per_op("ml.hist_forest.fit"),
        "ml.hist_forest.nodes_grown": per_answer("Hist forest nodes grown"),
        "core.lca.s": per_op("core.lca"),
        "core.lca.pairs_examined": per_answer("LCA pairs examined"),
        "core.fscore.s": per_op("core.fscore"),
        "core.refine.s": per_op("core.refine"),
        "core.kernel.mask_hit_ratio": share("Kernel mask hits", "Kernel mask misses"),
        "core.diversity.select_s": select,
        # An answer's wall minus everything attributed beneath it.
        "core.unattributed_s": (
            sum(own[i] for i in answered) / len(answered) if answered else 0.0
        ),
        # The StepTimer step bills provenance to materialization.
        "engine.materialize_s": per_op("engine.materialize", self_time=True),
        "engine.trie.hit_ratio": share("APT cache hits", "APT cache misses"),
        "engine.trie.evictions": per_answer("APT cache evictions"),
        "engine.trie.resident_mb": counter("trie_resident_bytes", 0) / 1e6,
        "api.session.register_s": per_call("api.session.register"),
        "api.session.memo_hit_ratio": memo_hit_ratio,
        # A repeated ask minus its rerank: what the session itself costs.
        "api.session.repeat_overhead_s": (
            answer_wall / len(answered) - select if memo_hit_ratio == 1.0 else 0.0
        ),
        "serving.shm.export_s": per_call("serving.shm.export"),
        "serving.shm.shared_mb": 0.0,
        "serving.pool.start_s": per_call("serving.pool.start"),
        "serving.pool.execute_ms": execute_ms,
        "serving.http_overhead_ms": per_answer("http_overhead_ms"),
        # Front-end latency a request spent outside its own batch.
        "serving.queue_wait_ms": (
            per_answer("server_ms") - execute_ms if execute_ms else 0.0
        ),
        "serving.serialize_s": per_op("serving.serialize"),
        "serving.payload_bytes": per_answer("payload_bytes"),
        "serving.batches": 0.0,
        "serving.requests_per_batch": 0.0,
        "serving.cache_hit_latency_ms": 0.0,
        "serving.cache_hits": 0.0,
        "serving.coalesced": 0.0,
        "cli.cold_process_s": 0.0,
        "raw.latency_p50_s": traced.quantile(0.5),
        "raw.latency_p90_s": traced.quantile(0.9),
        "raw.throughput_mean_ops_s": traced.verified / traced.wall,
        "proc.cpu_s_per_op": cpu_per_op,
        "trace.overhead_ratio": traced.latency_min() / plain.latency_min() - 1.0,
        "trace.unresolved_hooks": float(len(tracer.unresolved)),
    }
    values.update(extras)
    return values
