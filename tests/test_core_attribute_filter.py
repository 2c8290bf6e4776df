"""Unit tests for §3.1 attribute clustering + relevance filtering."""

import numpy as np
import pytest

from repro.core import (
    CajadeConfig,
    ComparisonQuestion,
    QualityEvaluator,
    filter_attributes,
)
from repro.db import ProvenanceTable, parse_sql
from tests.conftest import GSW_WINS_SQL, engine_apt
from tests.test_core_apt import star_join_graph


@pytest.fixture()
def setup(mini_db):
    pt = ProvenanceTable.compute(parse_sql(GSW_WINS_SQL), mini_db)
    question = ComparisonQuestion(
        {"season": "2015-16"}, {"season": "2012-13"}
    )
    resolved = question.resolve(pt)
    apt = engine_apt(star_join_graph(), pt, mini_db)
    evaluator = QualityEvaluator(apt, resolved.row_ids1, resolved.row_ids2)
    return apt, evaluator


class TestFilterAttributes:
    def test_keeps_discriminative_attributes(self, setup, rng):
        apt, evaluator = setup
        config = CajadeConfig(num_selected_attrs=2, seed=0)
        filtered = filter_attributes(apt, evaluator, config, rng)
        # pts separates the two seasons strongly (Curry 30+ vs 20).
        assert "player_game.pts" in filtered.numeric

    def test_respects_count(self, setup, rng):
        apt, evaluator = setup
        config = CajadeConfig(num_selected_attrs=2, seed=0)
        filtered = filter_attributes(apt, evaluator, config, rng)
        # At most 2 + a possible categorical fallback.
        assert len(filtered.numeric) + len(filtered.categorical) <= 3

    def test_categorical_fallback_present(self, setup, rng):
        apt, evaluator = setup
        config = CajadeConfig(num_selected_attrs=1, seed=0)
        filtered = filter_attributes(apt, evaluator, config, rng)
        assert filtered.categorical  # LCA phase needs one

    def test_passthrough_when_disabled(self, setup, rng):
        apt, evaluator = setup
        config = CajadeConfig(use_feature_selection=False)
        filtered = filter_attributes(apt, evaluator, config, rng)
        assert set(filtered.numeric) | set(filtered.categorical) == {
            a.name for a in apt.attributes
        }

    def test_relevance_scores_present(self, setup, rng):
        apt, evaluator = setup
        config = CajadeConfig(num_selected_attrs=3, seed=0)
        filtered = filter_attributes(apt, evaluator, config, rng)
        assert filtered.relevance
        assert all(v >= 0 for v in filtered.relevance.values())

    def test_clusters_cover_all_attributes(self, setup, rng):
        apt, evaluator = setup
        config = CajadeConfig(num_selected_attrs=3, seed=0)
        filtered = filter_attributes(apt, evaluator, config, rng)
        clustered = {m for c in filtered.clusters for m in c.members}
        assert clustered == {a.name for a in apt.attributes}

    def test_all_selected_sorted(self, setup, rng):
        apt, evaluator = setup
        config = CajadeConfig(num_selected_attrs=4, seed=0)
        filtered = filter_attributes(apt, evaluator, config, rng)
        combined = filtered.all_selected
        assert combined == sorted(filtered.numeric) + sorted(
            filtered.categorical
        )

    def test_deterministic(self, setup):
        apt, evaluator = setup
        config = CajadeConfig(num_selected_attrs=3, seed=0)
        f1 = filter_attributes(
            apt, evaluator, config, np.random.default_rng(7)
        )
        f2 = filter_attributes(
            apt, evaluator, config, np.random.default_rng(7)
        )
        assert f1.numeric == f2.numeric
        assert f1.categorical == f2.categorical


class TestGroupDeterminedGuard:
    """The §8 FD guard: drop attributes that alias the group key."""

    def test_is_group_determined_helper(self):
        import numpy as np
        from repro.core.attribute_filter import (
            _is_group_determined,
            _values_and_presence,
        )
        from tests.conftest import kernel_of

        labels = np.array([1, 1, 1, 2, 2], dtype=np.int64)
        columns = {
            "alias": np.array(
                ["era1", None, "era1", "era2", "era2"], dtype=object
            ),
            "varying": np.array(["a", "b", "a", "c", "c"], dtype=object),
            "shared": np.array(["x", "x", "x", "x", "x"], dtype=object),
            # A numeric attribute has no dictionary codes: its values
            # stand for themselves and NaN is its NULL.
            "numeric": np.array([7, np.nan, 7, 9, 9], dtype=np.float64),
            "numeric_varying": np.array([7, 8, 7, 9, 9], dtype=np.int64),
        }
        kernel = kernel_of(columns, np.arange(5), m1=3)
        assert kernel.match_codes("numeric") is None

        def determined(name):
            return _is_group_determined(
                *_values_and_presence(kernel, name), labels
            )

        assert determined("alias")
        assert not determined("varying")
        assert not determined("shared")  # same constant
        assert determined("numeric")
        assert not determined("numeric_varying")

    def test_guard_drops_alias_attribute_end_to_end(self, rng):
        import numpy as np
        from repro.db import ColumnType, Database, ProvenanceTable, TableSchema, parse_sql
        from repro.core import (
            CajadeConfig, ComparisonQuestion, QualityEvaluator,
            filter_attributes,
        )
        from repro.core.join_graph import JoinGraph

        db = Database("fd")
        rows = []
        for i in range(40):
            season = "s1" if i < 20 else "s2"
            era = "early" if season == "s1" else "late"  # aliases season
            rows.append((i, season, era, f"opp{i % 4}", i % 7))
        db.create_table(
            TableSchema.build(
                "game",
                {
                    "gid": ColumnType.INT,
                    "season": ColumnType.TEXT,
                    "era": ColumnType.TEXT,
                    "opponent": ColumnType.TEXT,
                    "margin": ColumnType.INT,
                },
                primary_key=("gid",),
            ),
            rows,
        )
        query = parse_sql(
            "SELECT season, COUNT(*) AS n FROM game GROUP BY season"
        )
        pt = ProvenanceTable.compute(query, db)
        resolved = ComparisonQuestion(
            {"season": "s1"}, {"season": "s2"}
        ).resolve(pt)
        apt = engine_apt(JoinGraph.initial({"game": "game"}), pt, db)
        evaluator = QualityEvaluator(
            apt, resolved.row_ids1, resolved.row_ids2
        )
        guarded = filter_attributes(
            apt, evaluator,
            CajadeConfig(num_selected_attrs=6, exclude_group_determined=True),
            rng,
        )
        unguarded = filter_attributes(
            apt, evaluator,
            CajadeConfig(num_selected_attrs=6, exclude_group_determined=False),
            rng,
        )
        assert "game.era" not in guarded.all_selected
        assert "game.era" in unguarded.all_selected
        assert "game.opponent" in guarded.all_selected

    def test_guard_keeps_varying_attributes(self, setup, rng):
        from repro.core import CajadeConfig, filter_attributes

        apt, evaluator = setup
        filtered = filter_attributes(
            apt, evaluator,
            CajadeConfig(num_selected_attrs=6, exclude_group_determined=True),
            rng,
        )
        # pts varies within each side → must survive the guard.
        assert "player_game.pts" in filtered.all_selected


class TestHistForestKnob:
    """Swapping the learner never changes the answer: the histogram
    forest is a bitwise twin of the CART oracle
    (``tests/oracles/cart_forest.py``), so the selected attributes and
    relevance scores match exactly."""

    def _filter(self, setup):
        apt, evaluator = setup
        config = CajadeConfig(num_selected_attrs=2, seed=0)
        return filter_attributes(
            apt, evaluator, config, np.random.default_rng(1234)
        )

    def test_on_off_identical_selection(self, setup, monkeypatch):
        from tests.oracles import cart_forest

        on = self._filter(setup)
        cart_forest.swap_in(monkeypatch)
        off = self._filter(setup)
        assert on.numeric == off.numeric
        assert on.categorical == off.categorical
        assert on.relevance == off.relevance  # exact float equality

    def test_hist_counters_recorded(self, setup):
        from repro.core.timing import (
            HIST_HISTOGRAMS_BUILT,
            HIST_NODES_GROWN,
            HIST_SPLITS_EVALUATED,
            StepTimer,
        )

        apt, evaluator = setup
        timer = StepTimer()
        filter_attributes(
            apt, evaluator,
            CajadeConfig(num_selected_attrs=2, seed=0),
            np.random.default_rng(1234),
            timer=timer,
        )
        assert timer.counter(HIST_NODES_GROWN) > 0
        assert timer.counter(HIST_HISTOGRAMS_BUILT) > 0
        assert timer.counter(HIST_SPLITS_EVALUATED) > 0
