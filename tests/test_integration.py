"""Integration tests: the full pipeline on generated datasets.

These run the actual workload queries end to end at small scale and
assert the *shape* of the paper's qualitative findings (Tables 4/6).
"""

import pytest

from repro import CajadeConfig, CajadeSession
from repro.datasets import query_by_name, user_study_query

CONFIG = CajadeConfig(
    max_join_edges=2,
    top_k=8,
    f1_sample_rate=0.5,
    num_selected_attrs=4,
    seed=3,
)


class TestNbaIntegration:
    def test_uq1_produces_contextual_explanations(self, nba_small):
        db, sg = nba_small
        wq = user_study_query()
        result = CajadeSession(db, sg, CONFIG).explain(wq.sql, wq.question)
        assert result.explanations
        contextual = [
            e for e in result.explanations if e.join_graph.num_edges > 0
        ]
        assert contextual, "context tables must contribute explanations"

    def test_qnba1_salary_or_stats_signal(self, nba_small):
        db, sg = nba_small
        wq = query_by_name("Qnba1")
        result = CajadeSession(db, sg, CONFIG).explain(wq.sql, wq.question)
        assert result.explanations
        used = set()
        for e in result.explanations[:5]:
            used |= {a.split(".")[-1] for a in e.pattern.attributes}
        # Paper Table 4 Qnba1: salary / tspct / usage / minutes patterns.
        assert used & {"salary", "tspct", "usage", "minutes", "points"}

    def test_explanations_are_scored_and_supported(self, nba_small):
        db, sg = nba_small
        wq = query_by_name("Qnba4")
        result = CajadeSession(db, sg, CONFIG).explain(wq.sql, wq.question)
        for e in result.explanations:
            assert 0.0 < e.f_score <= 1.0
            assert e.support.covered1 <= e.support.total1
            assert e.support.covered2 <= e.support.total2


class TestMimicIntegration:
    def test_qmimic2_emergency_signal(self, mimic_small):
        db, sg = mimic_small
        wq = query_by_name("Qmimic2")
        result = CajadeSession(db, sg, CONFIG).explain(wq.sql, wq.question)
        assert result.explanations
        top_descriptions = " ".join(
            e.pattern.describe() for e in result.explanations[:5]
        )
        # Paper Table 6 Qmimic2 top-1: admission_type=emergency [Medicare].
        assert "EMERGENCY" in top_descriptions or "age" in top_descriptions

    def test_qmimic3_stay_length_signal(self, mimic_small):
        db, sg = mimic_small
        wq = query_by_name("Qmimic3")
        result = CajadeSession(db, sg, CONFIG).explain(wq.sql, wq.question)
        assert result.explanations
        used = set()
        for e in result.explanations[:5]:
            used |= {a.split(".")[-1] for a in e.pattern.attributes}
        assert "hospital_stay_length" in used or "los" in used

    def test_single_table_query_still_augments(self, mimic_small):
        db, sg = mimic_small
        wq = query_by_name("Qmimic4")
        result = CajadeSession(db, sg, CONFIG).explain(wq.sql, wq.question)
        contextual = [
            e for e in result.explanations if e.join_graph.num_edges > 0
        ]
        assert contextual


class TestCrossCutting:
    def test_all_ten_queries_run(self, nba_small, mimic_small):
        fast = CONFIG.with_overrides(max_join_edges=1, top_k=3)
        from repro.datasets import all_queries

        for wq in all_queries():
            db, sg = nba_small if wq.dataset == "nba" else mimic_small
            result = CajadeSession(db, sg, fast).explain(
                wq.sql, wq.question
            )
            assert result.explanations, f"{wq.name} produced nothing"

    def test_results_deterministic_across_processes(self, nba_small):
        db, sg = nba_small
        wq = query_by_name("Qnba4")
        r1 = CajadeSession(db, sg, CONFIG).explain(wq.sql, wq.question)
        r2 = CajadeSession(db, sg, CONFIG).explain(wq.sql, wq.question)
        assert [e.pattern for e in r1.explanations] == [
            e.pattern for e in r2.explanations
        ]

    def test_cost_threshold_prunes(self, nba_small):
        db, sg = nba_small
        wq = query_by_name("Qnba4")
        tight = CONFIG.with_overrides(qcost_threshold=5000.0)
        loose = CONFIG.with_overrides(qcost_threshold=1e9)
        r_tight = CajadeSession(db, sg, tight).explain(wq.sql, wq.question)
        r_loose = CajadeSession(db, sg, loose).explain(wq.sql, wq.question)
        assert (
            r_tight.enumeration.invalid_cost
            > r_loose.enumeration.invalid_cost
        )
        assert r_tight.enumeration.valid < r_loose.enumeration.valid
