"""Unit tests for StepTimer."""

import time

import pytest

from repro.core.timing import (
    ALL_COUNTERS,
    ALL_STEPS,
    APT_CACHE_ENTRIES,
    APT_CACHE_EVICTIONS,
    APT_CACHE_HITS,
    APT_CACHE_MEDIAN_ENTRY_BYTES,
    APT_CACHE_MISSES,
    F_SCORE_CALC,
    StepTimer,
)


class TestStepTimer:
    def test_accumulates(self):
        timer = StepTimer()
        with timer.step(F_SCORE_CALC):
            time.sleep(0.01)
        with timer.step(F_SCORE_CALC):
            time.sleep(0.01)
        assert timer.seconds(F_SCORE_CALC) >= 0.02

    def test_unknown_step_zero(self):
        assert StepTimer().seconds("nope") == 0.0

    def test_add_manual(self):
        timer = StepTimer()
        timer.add("custom", 1.5)
        timer.add("custom", 0.5)
        assert timer.seconds("custom") == 2.0

    def test_total(self):
        timer = StepTimer()
        timer.add("a", 1.0)
        timer.add("b", 2.0)
        assert timer.total == 3.0

    def test_breakdown_canonical_order(self):
        timer = StepTimer()
        timer.add(ALL_STEPS[3], 1.0)
        timer.add(ALL_STEPS[0], 1.0)
        timer.add("extra", 1.0)
        keys = list(timer.breakdown())
        assert keys == [ALL_STEPS[0], ALL_STEPS[3], "extra"]

    def test_format_table_has_total(self):
        timer = StepTimer()
        timer.add("a", 1.0)
        text = timer.format_table()
        assert "total" in text
        assert "a" in text

    def test_exception_still_recorded(self):
        timer = StepTimer()
        try:
            with timer.step("risky"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert timer.seconds("risky") >= 0.0
        assert "risky" in timer.breakdown()


class TestCounters:
    def test_accumulates(self):
        timer = StepTimer()
        timer.count(APT_CACHE_HITS, 3)
        timer.count(APT_CACHE_HITS, 2)
        timer.count(APT_CACHE_MISSES)
        assert timer.counter(APT_CACHE_HITS) == 5
        assert timer.counter(APT_CACHE_MISSES) == 1

    def test_unknown_counter_zero(self):
        assert StepTimer().counter("nope") == 0

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            StepTimer().count(APT_CACHE_HITS, -1)

    def test_canonical_order_first(self):
        timer = StepTimer()
        timer.count("custom", 1)
        timer.count(APT_CACHE_EVICTIONS, 1)
        timer.count(APT_CACHE_HITS, 1)
        keys = list(timer.counters())
        assert keys == [APT_CACHE_HITS, APT_CACHE_EVICTIONS, "custom"]
        assert set(ALL_COUNTERS) >= {APT_CACHE_HITS, APT_CACHE_EVICTIONS}

    def test_format_table_shows_counters(self):
        timer = StepTimer()
        timer.add("a", 1.0)
        timer.count(APT_CACHE_HITS, 7)
        text = timer.format_table()
        assert APT_CACHE_HITS in text
        assert "7" in text

    def test_explain_populates_cache_counters(self, mini_db, mini_schema_graph):
        from repro import CajadeConfig, CajadeSession, ComparisonQuestion
        from tests.conftest import GSW_WINS_SQL

        config = CajadeConfig(
            max_join_edges=2, f1_sample_rate=1.0, num_selected_attrs=3
        )
        timer = StepTimer()
        CajadeSession(mini_db, mini_schema_graph, config).explain(
            GSW_WINS_SQL,
            ComparisonQuestion({"season": "2015-16"}, {"season": "2012-13"}),
            timer=timer,
        )
        assert timer.counter(APT_CACHE_MISSES) > 0
        assert APT_CACHE_MISSES in timer.counters()

    def test_gauges_overwrite_instead_of_accumulating(self):
        timer = StepTimer()
        timer.set_gauge(APT_CACHE_ENTRIES, 10)
        timer.set_gauge(APT_CACHE_ENTRIES, 7)
        assert timer.counter(APT_CACHE_ENTRIES) == 7
        assert APT_CACHE_ENTRIES in timer.counters()

    def test_batch_shared_timer_reports_latest_gauge(
        self, mini_db, mini_schema_graph
    ):
        """One timer across several requests must report the trie's
        latest entry count, not the sum over requests."""
        from repro import CajadeConfig, ComparisonQuestion
        from repro.api import CajadeSession
        from tests.conftest import GSW_WINS_SQL

        question = ComparisonQuestion(
            {"season": "2015-16"}, {"season": "2012-13"}
        )
        config = CajadeConfig(
            max_join_edges=2, f1_sample_rate=1.0, num_selected_attrs=3
        )
        session = CajadeSession(mini_db, mini_schema_graph, config)
        timer = StepTimer()
        session.explain(GSW_WINS_SQL, question, timer=timer)
        first = timer.counter(APT_CACHE_ENTRIES)
        session.explain(GSW_WINS_SQL, question, timer=timer)
        stats = session.engine_stats(GSW_WINS_SQL)
        assert stats is not None and stats.cache is not None
        assert timer.counter(APT_CACHE_ENTRIES) == stats.cache.entries
        assert timer.counter(APT_CACHE_ENTRIES) <= max(
            first, stats.cache.entries
        )

    def test_explain_populates_trie_entry_gauges(
        self, mini_db, mini_schema_graph
    ):
        """The session surfaces the trie's live entry count and median
        entry size as end-of-request StepTimer gauges."""
        from repro import CajadeConfig, ComparisonQuestion
        from repro.api import CajadeSession
        from tests.conftest import GSW_WINS_SQL

        question = ComparisonQuestion(
            {"season": "2015-16"}, {"season": "2012-13"}
        )
        config = CajadeConfig(
            max_join_edges=2, f1_sample_rate=1.0, num_selected_attrs=3
        )
        timer = StepTimer()
        CajadeSession(mini_db, mini_schema_graph, config).explain(
            GSW_WINS_SQL, question, timer=timer
        )
        assert timer.counter(APT_CACHE_ENTRIES) > 0
        assert timer.counter(APT_CACHE_MEDIAN_ENTRY_BYTES) > 0
        text = timer.format_table()
        assert APT_CACHE_ENTRIES in text
        assert APT_CACHE_MEDIAN_ENTRY_BYTES in text
