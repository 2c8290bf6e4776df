"""Tests for the session-oriented public API (repro.api)."""

import json

import pytest

from repro import (
    CajadeConfig,
    CajadeSession,
    ComparisonQuestion,
    ExplanationRequest,
    OutlierQuestion,
    query_fingerprint,
)
from repro.core.pattern import Pattern
from repro.core.timing import APT_CACHE_HITS, APT_CACHE_MISSES, StepTimer
from tests.conftest import GSW_WINS_SQL

QUESTION = ComparisonQuestion({"season": "2015-16"}, {"season": "2012-13"})
OUTLIER = OutlierQuestion({"season": "2015-16"})

CONFIG = CajadeConfig(
    max_join_edges=2,
    top_k=5,
    f1_sample_rate=1.0,
    lca_sample_rate=1.0,
    num_selected_attrs=4,
    seed=1,
)


def ranked_payload(result) -> str:
    """User-visible output minus cache counters (differ by warmth)."""
    payload = json.loads(result.to_json())
    payload.pop("apt_cache", None)
    return json.dumps(payload, sort_keys=True)


@pytest.fixture()
def session(mini_db, mini_schema_graph) -> CajadeSession:
    return CajadeSession(mini_db, mini_schema_graph, CONFIG)


def cold_payload(mini_db, mini_schema_graph, question, **knobs) -> str:
    """One-shot result from a fresh single-request session."""
    one_shot = CajadeSession(mini_db, mini_schema_graph, CONFIG)
    return ranked_payload(one_shot.explain(GSW_WINS_SQL, question, **knobs))


class TestSessionBasics:
    def test_returns_ranked_explanations(self, session):
        response = session.explain(GSW_WINS_SQL, QUESTION)
        assert response.explanations
        assert len(response.explanations) <= 5
        assert not response.warm_query
        assert response.fingerprint == query_fingerprint(GSW_WINS_SQL)
        assert response.total_seconds > 0

    def test_request_object_roundtrip(self, session):
        request = ExplanationRequest(GSW_WINS_SQL, QUESTION, top_k=2)
        response = session.explain(request)
        assert response.request is request
        assert len(response.explanations) <= 2

    def test_sql_and_request_both_given_rejected(self, session):
        request = ExplanationRequest(GSW_WINS_SQL, QUESTION)
        with pytest.raises(TypeError):
            session.explain(request, QUESTION)

    def test_sql_without_question_rejected(self, session):
        with pytest.raises(TypeError):
            session.explain(GSW_WINS_SQL)

    def test_timer_passed_in_is_used(self, session):
        timer = StepTimer()
        session.explain(GSW_WINS_SQL, QUESTION, timer=timer)
        assert timer.total > 0
        assert "Materialize APTs" in timer.breakdown()

    def test_context_manager(self, mini_db, mini_schema_graph):
        with CajadeSession(mini_db, mini_schema_graph, CONFIG) as session:
            session.explain(GSW_WINS_SQL, QUESTION)
            assert session.registered_queries
        assert not session.registered_queries  # close() drops state


class TestCrossQuestionReuse:
    """The tentpole guarantees: warm reuse, byte-identical results."""

    def test_second_explain_grows_cache_hits(self, session):
        first = session.explain(GSW_WINS_SQL, QUESTION)
        second = session.explain(GSW_WINS_SQL, QUESTION)
        # Every graph — mined, or found empty — is answered by the
        # mining memo, so the repeated ask materializes nothing: the
        # engine is not consulted at all and only the rerank runs.
        assert first.engine.graphs > 0
        assert second.engine.graphs == 0
        assert second.engine.steps_reused == 0
        assert second.engine.steps_computed == 0
        assert second.timer.counter(APT_CACHE_HITS) == 0
        assert second.timer.counter(APT_CACHE_MISSES) == 0
        assert second.warm_query
        assert second.join_graphs_mined == first.join_graphs_mined
        assert second.mined_graphs_reused == second.join_graphs_mined
        assert session.stats.mined_graphs_computed == first.join_graphs_mined

    def test_partly_memoized_ask_materializes_only_the_rest(self, session):
        first = session.explain(GSW_WINS_SQL, QUESTION)
        (memo,) = session._queries[first.fingerprint].mining_memo.values()
        dropped = max(memo)
        del memo[dropped]
        second = session.explain(GSW_WINS_SQL, QUESTION)
        assert second.engine.graphs == 1
        assert second.engine.steps_computed == 0  # served by the trie
        assert second.timer.counter(APT_CACHE_HITS) > 0
        assert second.join_graphs_mined == first.join_graphs_mined
        assert second.mined_graphs_reused == first.join_graphs_mined - 1
        assert ranked_payload(second) == ranked_payload(first)
        assert dropped in memo

    @pytest.mark.parametrize("use_diversity", [True, False])
    def test_memoized_ask_reranks_stored_codes(
        self, session, mini_db, mini_schema_graph, monkeypatch, use_diversity
    ):
        """The finalists were encoded when they entered the memo: a
        fully memoized ask reads no pattern's ``first_values`` or
        ``describe()``, and still answers like a fresh session."""
        knobs = {"overrides": {"use_diversity": use_diversity}}
        session.explain(GSW_WINS_SQL, QUESTION, **knobs)
        reads = {"first_values": 0, "describe": 0}
        first_values, describe = Pattern.first_values, Pattern.describe

        def counted_first_values(pattern):
            reads["first_values"] += 1
            return first_values.fget(pattern)

        def counted_describe(pattern):
            reads["describe"] += 1
            return describe(pattern)

        with monkeypatch.context() as patch:
            patch.setattr(
                Pattern, "first_values", property(counted_first_values)
            )
            patch.setattr(Pattern, "describe", counted_describe)
            second = session.explain(GSW_WINS_SQL, QUESTION, **knobs)
        assert second.mined_graphs_reused == second.join_graphs_mined > 0
        assert reads == {"first_values": 0, "describe": 0}
        assert ranked_payload(second) == cold_payload(
            mini_db, mini_schema_graph, QUESTION, **knobs
        )

    def test_empty_apts_are_memoized_too(self, nba_small):
        from repro.datasets.workloads import query_by_name

        db, schema_graph = nba_small
        workload = query_by_name("Qnba5")
        session = CajadeSession(
            db, schema_graph, CajadeConfig(max_join_edges=2)
        )
        first = session.explain(workload.sql, workload.question)
        # One join graph's APT has no rows: nothing to mine, nothing to
        # count — and nothing to materialize again on the repeat.
        assert first.engine.graphs == first.join_graphs_mined + 1
        second = session.explain(workload.sql, workload.question)
        assert second.engine.graphs == 0
        assert second.join_graphs_mined == first.join_graphs_mined
        assert second.mined_graphs_reused == first.join_graphs_mined
        assert ranked_payload(second) == ranked_payload(first)

    def test_warm_responses_byte_identical_serial(
        self, session, mini_db, mini_schema_graph
    ):
        cold = cold_payload(mini_db, mini_schema_graph, QUESTION)
        session.explain(GSW_WINS_SQL, QUESTION)
        warm = session.explain(GSW_WINS_SQL, QUESTION)
        assert ranked_payload(warm) == cold

    def test_warm_responses_byte_identical_parallel(
        self, session, mini_db, mini_schema_graph
    ):
        """A repeat whose request spells out an equal config is a memo
        hit: the memo is keyed by the effective config, not the request."""
        cold = cold_payload(mini_db, mini_schema_graph, QUESTION)
        session.explain(GSW_WINS_SQL, QUESTION)
        warm = session.explain(
            GSW_WINS_SQL, QUESTION, overrides={"seed": CONFIG.seed}
        )
        assert warm.mined_graphs_reused == warm.join_graphs_mined > 0
        assert ranked_payload(warm) == cold

    def test_different_question_same_query_reuses_state(self, session):
        session.explain(GSW_WINS_SQL, QUESTION)
        response = session.explain(GSW_WINS_SQL, OUTLIER)
        assert response.warm_query
        stats = session.stats
        assert stats.queries_registered == 1
        assert stats.query_state_hits == 1
        assert stats.enumeration_hits == 1

    def test_different_question_byte_identical_to_cold(
        self, session, mini_db, mini_schema_graph
    ):
        cold = cold_payload(mini_db, mini_schema_graph, OUTLIER)
        session.explain(GSW_WINS_SQL, QUESTION)  # warm with another question
        warm = session.explain(GSW_WINS_SQL, OUTLIER)
        assert ranked_payload(warm) == cold

    def test_swapped_question_sides_not_aliased(self, session):
        """t1/t2 swapped shares the restriction union but must not hit
        the other direction's mining memo."""
        forward = session.explain(GSW_WINS_SQL, QUESTION)
        swapped = session.explain(
            GSW_WINS_SQL,
            ComparisonQuestion(QUESTION.secondary, QUESTION.primary),
        )
        assert swapped.mined_graphs_reused == 0
        assert ranked_payload(forward) != ranked_payload(swapped)

    def test_mining_memo_disabled(self, mini_db, mini_schema_graph):
        session = CajadeSession(
            mini_db, mini_schema_graph, CONFIG, max_cached_minings=0
        )
        first = session.explain(GSW_WINS_SQL, QUESTION)
        second = session.explain(GSW_WINS_SQL, QUESTION)
        assert second.mined_graphs_reused == 0
        # Without the memo every graph is materialized again, each step
        # from the warm trie: hits grow past the cold run's and every
        # graph with a plan step is a full-plan hit (Ω0's empty plan
        # never counts as one).
        assert second.engine.steps_computed == 0
        assert second.engine.steps_reused > first.engine.steps_reused
        assert second.engine.full_hits == second.engine.graphs - 1
        assert second.timer.counter(APT_CACHE_HITS) > 0
        assert second.timer.counter(APT_CACHE_MISSES) == 0

    def test_query_state_lru_eviction(self, mini_db, mini_schema_graph):
        session = CajadeSession(
            mini_db, mini_schema_graph, CONFIG, max_cached_queries=1
        )
        session.explain(GSW_WINS_SQL, QUESTION)
        other_sql = GSW_WINS_SQL.replace(
            "COUNT(*) AS win", "COUNT(*) AS total"
        )
        session.explain(other_sql, QUESTION)
        response = session.explain(GSW_WINS_SQL, QUESTION)
        assert not response.warm_query  # evicted, recomputed
        assert session.stats.queries_evicted >= 2


class TestHistForestKnob:
    """The histogram learner is a bitwise twin of the CART oracle
    (``tests/oracles/cart_forest.py``), so ranked output is
    byte-identical with the oracle swapped in ("off")."""

    def test_knob_off_byte_identical(
        self, mini_db, mini_schema_graph, monkeypatch
    ):
        from tests.oracles import cart_forest

        on = cold_payload(mini_db, mini_schema_graph, QUESTION)
        cart_forest.swap_in(monkeypatch)
        off = cold_payload(mini_db, mini_schema_graph, QUESTION)
        assert on == off


class TestFingerprints:
    def test_whitespace_insensitive(self):
        spaced = GSW_WINS_SQL.replace(" ", "  ").replace(",", ", ")
        assert query_fingerprint(spaced) == query_fingerprint(GSW_WINS_SQL)

    def test_query_objects_supported(self, session):
        from repro.db import parse_sql

        query = parse_sql(GSW_WINS_SQL)
        response = session.explain(query, QUESTION)
        assert response.explanations
        # The parsed query carries its original text, so string and
        # Query forms share one session slot.
        followup = session.explain(GSW_WINS_SQL, QUESTION)
        assert followup.warm_query

    def test_register_is_idempotent(self, session):
        fp1 = session.register(GSW_WINS_SQL)
        fp2 = session.register(GSW_WINS_SQL)
        assert fp1 == fp2
        assert session.registered_queries == [fp1]
        assert session.engine_stats(GSW_WINS_SQL) is not None
        assert session.engine_stats("SELECT 1 AS x FROM game g") is None

    def test_non_neutral_field_still_splits_keys(self):
        """The mining key ignores the budget and nothing else."""
        from repro.api.session import mining_config_key

        assert mining_config_key(CONFIG) == mining_config_key(
            CONFIG.with_overrides(apt_cache_mb=CONFIG.apt_cache_mb + 1)
        )
        assert mining_config_key(CONFIG) != mining_config_key(
            CONFIG.with_overrides(seed=CONFIG.seed + 1)
        )


class TestRequestValidation:
    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown CajadeConfig"):
            ExplanationRequest(
                GSW_WINS_SQL, QUESTION, overrides={"not_a_knob": 1}
            )

    def test_session_level_override_rejected(self):
        with pytest.raises(ValueError, match="session-level"):
            ExplanationRequest(
                GSW_WINS_SQL, QUESTION, overrides={"apt_cache_mb": 0.0}
            )

    @pytest.mark.parametrize(
        "name, value",
        [
            ("use_kernel", False),
            ("kernel_verify", True),
            ("use_code_lca", False),
            ("use_hist_forest", False),
            ("late_materialization", False),
            ("join_strategy", "hash"),
            ("join_memo_entries", 64),
            ("kernel_cache_mb", 8.0),
            ("workers", 2),
        ],
    )
    def test_removed_strategy_toggles_rejected(self, name, value):
        """The seven byte-identical slow-path selectors, the mask memo's
        budget and the mining thread count are gone: naming one is an
        error, never a silently ignored (or honoured) key."""
        with pytest.raises(ValueError, match="unknown CajadeConfig"):
            ExplanationRequest(
                GSW_WINS_SQL, QUESTION, overrides={name: value}
            )
        with pytest.raises(TypeError):
            CajadeConfig(**{name: value})

    def test_bad_question_type_rejected(self):
        with pytest.raises(TypeError):
            ExplanationRequest(GSW_WINS_SQL, {"season": "2015-16"})

    def test_bad_sql_and_knob_types_rejected_eagerly(self):
        """Where the request is built — not in ``fingerprint`` or in
        whichever layer first reads the config."""
        with pytest.raises(TypeError, match="sql"):
            ExplanationRequest(5, QUESTION)
        with pytest.raises(TypeError, match="top_k"):
            ExplanationRequest(GSW_WINS_SQL, QUESTION, top_k="5")
        with pytest.raises(TypeError, match="use_diversity"):
            ExplanationRequest(
                GSW_WINS_SQL, QUESTION, overrides={"use_diversity": "no"}
            )
        with pytest.raises(ValueError, match="f1_sample_rate"):
            ExplanationRequest(GSW_WINS_SQL, QUESTION, f1_sample_rate=2)

    def test_config_for_merges_knobs(self):
        request = ExplanationRequest(
            GSW_WINS_SQL,
            QUESTION,
            top_k=3,
            overrides={"seed": 99},
        )
        config = request.config_for(CONFIG)
        assert config.top_k == 3
        assert config.seed == 99
        assert config.max_join_edges == CONFIG.max_join_edges
        assert CONFIG.top_k == 5  # base untouched

    def test_describe_mentions_knobs(self):
        request = ExplanationRequest(GSW_WINS_SQL, QUESTION, top_k=3)
        assert "top_k=3" in request.describe()
        assert "2015-16" in request.describe()


class TestQuestionBuilder:
    def test_fluent_chain_matches_direct_request(self, session):
        direct = session.explain(
            ExplanationRequest(GSW_WINS_SQL, QUESTION, top_k=3)
        )
        fluent = (
            session.ask(GSW_WINS_SQL)
            .why_higher(QUESTION.primary, QUESTION.secondary)
            .top_k(3)
            .run()
        )
        assert ranked_payload(fluent) == ranked_payload(direct)

    def test_outlier_and_knobs(self, session):
        response = (
            session.ask(GSW_WINS_SQL)
            .outlier({"season": "2015-16"})
            .edges(1)
            .f1_sample(1.0)
            .override(seed=5)
            .run()
        )
        assert response.explanations
        request = response.request
        assert request.max_join_edges == 1
        assert dict(request.overrides) == {"seed": 5}

    def test_build_without_question_raises(self, session):
        with pytest.raises(ValueError, match="no question"):
            session.ask(GSW_WINS_SQL).top_k(3).build()

    def test_why_lower_is_comparison(self, session):
        request = (
            session.ask(GSW_WINS_SQL)
            .why_lower(QUESTION.secondary, QUESTION.primary)
            .build()
        )
        assert isinstance(request.question, ComparisonQuestion)
        assert request.question.primary == QUESTION.secondary
