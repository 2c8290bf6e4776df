"""End-to-end identity of the sorted-window join step against the hash core.

``tests/test_join_strategies.py`` holds the per-step differential
harness.  These tests pin the same claim where users see it — whole
answers — by swapping the hash core (``IndexFrame.join``, the oracle) in
for every plan join step and comparing with the production pipeline:

- full CaJaDE ranked output;
- the Qnba user-study workload;
- the serving layer: same response bytes, same ``X-Cajade-Fingerprint``;
- the window counters surface in every request's timer;
- cache keys still split on fields that do change answers.
"""

from __future__ import annotations

import asyncio
import json

from repro import CajadeConfig, CajadeSession, ComparisonQuestion, ExplanationRequest
from repro.api.session import mining_config_key
from repro.core.timing import (
    JOIN_PERMUTATION_REUSES,
    JOIN_SEARCHSORTED_PROBES,
    JOIN_WINDOWS_BUILT,
)
from repro.db.window_join import SortedWindowStrategy
from repro.serving import ExplanationService, InlineBackend
from tests.conftest import GSW_WINS_SQL
from tests.test_join_strategies import HashCore

QUESTION = ComparisonQuestion({"season": "2015-16"}, {"season": "2012-13"})

BASE = CajadeConfig(
    max_join_edges=2,
    num_selected_attrs=3,
    f1_sample_rate=1.0,
    seed=4,
)


def hash_core_only(monkeypatch) -> None:
    """Run every plan join step on the hash core, never the window path."""
    monkeypatch.setattr(SortedWindowStrategy, "join_frame", HashCore.join_frame)


def _ranked_payload(response) -> str:
    payload = json.loads(response.to_json())
    payload.pop("apt_cache", None)
    return json.dumps(payload, sort_keys=True)


def _payload(db, schema_graph) -> str:
    session = CajadeSession(db, schema_graph, BASE)
    return _ranked_payload(session.explain(GSW_WINS_SQL, QUESTION))


# ----------------------------------------------------------------------
# Full-pipeline ranked-output identity
# ----------------------------------------------------------------------
class TestPipelineIdentity:
    def test_strategy_late_mat_workers_grid(
        self, mini_db, mini_schema_graph, monkeypatch
    ):
        window = _payload(mini_db, mini_schema_graph)
        hash_core_only(monkeypatch)
        assert _payload(mini_db, mini_schema_graph) == window

    def test_qnba_identity(self, nba_small, monkeypatch):
        """The Qnba user-study workload (Fig. 8's join-graph shapes)
        ranks identically with and without the window path."""
        from repro.datasets import user_study_query

        db, schema_graph = nba_small
        workload = user_study_query()
        config = CajadeConfig(
            max_join_edges=1,
            num_selected_attrs=3,
            f1_sample_rate=0.3,
            seed=2,
        )

        def payload() -> str:
            session = CajadeSession(db, schema_graph, config)
            return _ranked_payload(
                session.explain(workload.sql, workload.question)
            )

        window = payload()
        hash_core_only(monkeypatch)
        assert window == payload()

    def test_window_counters_surface_when_active(
        self, mini_db, mini_schema_graph, monkeypatch
    ):
        session = CajadeSession(mini_db, mini_schema_graph, BASE)
        response = session.explain(GSW_WINS_SQL, QUESTION)
        counters = response.timer.counters()
        assert counters.get(JOIN_WINDOWS_BUILT, 0) > 0
        assert counters.get(JOIN_SEARCHSORTED_PROBES, 0) > 0
        assert JOIN_PERMUTATION_REUSES in counters

        hash_core_only(monkeypatch)
        hash_session = CajadeSession(mini_db, mini_schema_graph, BASE)
        hash_response = hash_session.explain(GSW_WINS_SQL, QUESTION)
        assert hash_response.timer.counter(JOIN_WINDOWS_BUILT) == 0


# ----------------------------------------------------------------------
# Serving-layer identity
# ----------------------------------------------------------------------
class TestServingIdentity:
    def test_same_payload_and_fingerprint(
        self, mini_db, mini_schema_graph, monkeypatch
    ):
        async def serve():
            backend = InlineBackend(mini_db, mini_schema_graph, BASE)
            async with ExplanationService(backend) as service:
                return await service.submit(
                    ExplanationRequest(GSW_WINS_SQL, QUESTION)
                )

        window_response = asyncio.run(serve())
        hash_core_only(monkeypatch)
        hash_response = asyncio.run(serve())
        assert hash_response.payload == window_response.payload
        assert hash_response.fingerprint == window_response.fingerprint

    def test_non_neutral_field_still_splits_keys(self):
        """Sanity guard: neutrality is per-field, not a broken key."""
        assert mining_config_key(BASE) != mining_config_key(
            BASE.with_overrides(seed=BASE.seed + 1)
        )
