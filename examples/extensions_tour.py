"""Tour of the implemented §8 extensions.

1. Join discovery: profile a database for inclusion-dependency join
   candidates and widen the schema graph with them.
2. The functional-dependency guard: suppress degenerate explanations on
   attributes that merely alias the group key (the paper's Qmimic5
   ethnicity observation).
3. Natural-language and JSON rendering of explanations.
4. The materialization plan of a join graph and the cost estimate
   λqcost compares against its threshold.

Run:  python examples/extensions_tour.py
"""

from repro import CajadeConfig, CajadeSession
from repro.core.join_discovery import (
    augment_schema_graph,
    discover_join_candidates,
)
from repro.core.apt import build_plan
from repro.core.enumeration import estimate_apt_cost
from repro.datasets import load_mimic, query_by_name
from repro.db import ProvenanceTable, parse_sql


def main() -> None:
    db, schema_graph = load_mimic(scale=0.1)
    workload = query_by_name("Qmimic5")

    # -- 1. join discovery ------------------------------------------------
    candidates = discover_join_candidates(db, min_inclusion=0.95)
    print(f"discovered {len(candidates)} undeclared join candidates, e.g.:")
    for candidate in candidates[:5]:
        print("  ", candidate.describe())
    added = augment_schema_graph(schema_graph, candidates, limit=5)
    print(f"added {added} conditions to the schema graph\n")

    # -- 2. FD guard on the Qmimic5 ethnicity trap -------------------------
    for guard in (False, True):
        config = CajadeConfig(
            max_join_edges=2,
            top_k=5,
            f1_sample_rate=0.5,
            num_selected_attrs=4,
            exclude_group_determined=guard,
            seed=3,
        )
        session = CajadeSession(db, schema_graph, config)
        result = session.explain(workload.sql, workload.question)
        label = "with FD guard" if guard else "without FD guard"
        print(f"Qmimic5 top explanations ({label}):")
        for rank, explanation in enumerate(result.top(3), start=1):
            print(f"  {rank}. {explanation.describe()}")
        degenerate = [
            e
            for e in result.explanations
            for a in e.pattern.attributes
            if a.split(".")[-1] == "ethnicity"
        ]
        print(f"  → ethnicity-aliasing explanations: {len(degenerate)}\n")

    # -- 3. sentences + JSON ------------------------------------------------
    config = CajadeConfig(
        max_join_edges=1, top_k=3, f1_sample_rate=1.0, num_selected_attrs=4
    )
    result = CajadeSession(db, schema_graph, config).explain(
        workload.sql, workload.question
    )
    print("as sentences:")
    for explanation in result.explanations:
        print("  -", explanation.to_sentence())
    print("\nas JSON (first explanation):")
    import json

    print(json.dumps(result.explanations[0].to_dict(), indent=2, default=str)[:600])

    # -- 4. the plan λqcost prices -----------------------------------------
    graph = result.explanations[0].join_graph
    pt = ProvenanceTable.compute(parse_sql(workload.sql), db)
    print("\ntop explanation's join graph:")
    print(graph.describe())
    plan = build_plan(graph, pt)
    print("its materialization plan (the steps the engine runs):")
    for step in plan.joins:
        on = " AND ".join(f"{left} = {right}" for left, right in step.conditions)
        print(f"  join {step.table} AS {step.alias} ON {on}")
    for step in plan.filters:
        print("  filter " + " AND ".join(f"{a} = {b}" for a, b in step.pairs))
    cost = estimate_apt_cost(graph, pt, db)
    print(
        f"estimated cost {cost:.0f} tuples vs λqcost "
        f"{config.qcost_threshold:.0f}: "
        + ("kept" if cost <= config.qcost_threshold else "skipped")
    )


if __name__ == "__main__":
    main()
