"""Unit tests for CajadeConfig."""

import pytest

from repro.core import CajadeConfig


class TestDefaults:
    def test_paper_table1_defaults(self):
        config = CajadeConfig()
        assert config.max_join_edges == 3
        assert config.num_selected_attrs == 3
        assert config.max_numeric_predicates == 3
        assert config.lca_sample_rate == 0.1
        assert config.f1_sample_rate == 0.3
        assert config.lca_sample_cap == 1000

    def test_with_overrides_copies(self):
        base = CajadeConfig()
        changed = base.with_overrides(top_k=5)
        assert changed.top_k == 5
        assert base.top_k == 10


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"top_k": 0},
            {"max_join_edges": -1},
            {"lca_sample_rate": 0.0},
            {"lca_sample_rate": 1.5},
            {"f1_sample_rate": 0.0},
            {"recall_threshold": -0.1},
            {"recall_threshold": 1.1},
            {"num_fragments": 0},
            {"num_selected_attrs": 0},
            {"f1_sample_rate": 1.5},
            {"apt_cache_mb": -1.0},
            {"apt_cache_mb": -0.001},
            {"rf_num_trees": 0},
            {"rf_max_samples": 0},
            {"lca_sample_cap": 0},
            {"seed": -1},
            {"num_selected_attrs": float("inf")},
            {"num_selected_attrs": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CajadeConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"top_k": "5"},
            {"top_k": 5.0},  # an integral float is not an int
            {"top_k": True},  # nor is a bool
            {"seed": "abc"},
            {"seed": None},
            {"f1_sample_rate": "0.5"},
            {"f1_sample_rate": True},
            {"use_diversity": "no"},  # truthy: would run with it *on*
            {"use_diversity": 0},
        ],
    )
    def test_rejects_values_of_the_wrong_type(self, kwargs):
        (name,) = kwargs
        with pytest.raises(TypeError, match=name):
            CajadeConfig(**kwargs)
        with pytest.raises(TypeError, match=name):
            CajadeConfig().with_overrides(**kwargs)

    def test_an_int_is_a_fine_float(self):
        assert CajadeConfig(f1_sample_rate=1, qcost_threshold=10).f1_sample_rate == 1


class TestEngineKnobs:
    def test_defaults_to_serial(self):
        """One thread per question is the only mode, not a default."""
        config = CajadeConfig()
        assert not hasattr(config, "workers")
        assert config.apt_cache_mb == 256.0

    def test_zero_cache_allowed(self):
        assert CajadeConfig(apt_cache_mb=0.0).apt_cache_mb == 0.0


class TestSelectedAttrCount:
    def test_absolute_count(self):
        config = CajadeConfig(num_selected_attrs=3)
        assert config.selected_attr_count(10) == 3

    def test_capped_by_total(self):
        config = CajadeConfig(num_selected_attrs=5)
        assert config.selected_attr_count(2) == 2

    def test_fraction(self):
        config = CajadeConfig(num_selected_attrs=0.5)
        assert config.selected_attr_count(10) == 5

    def test_fraction_at_least_one(self):
        config = CajadeConfig(num_selected_attrs=0.01)
        assert config.selected_attr_count(10) == 1


class TestConfigSurface:
    """A new field or CLI switch is a reviewed decision, not a drive-by:
    every independent option doubles the configurations to keep
    byte-identical."""

    TABLE_1 = {
        "max_join_edges",  # λ#edges
        "num_selected_attrs",  # λ#sel-attr
        "max_numeric_predicates",  # λattrNum
        "lca_sample_rate",  # λpat-samp
        "f1_sample_rate",  # λF1-samp
        "recall_threshold",  # λrecall
        "num_fragments",  # λ#frag
        "qcost_threshold",  # λqcost
    }
    PAPER_TEXT = {
        "top_k",
        "check_pk_connectivity",
        "correlation_threshold",
        "rf_num_trees",
        "rf_max_depth",
        "rf_max_samples",
        "lca_sample_cap",
        "lca_pair_cap",
        "k_cat",
    }
    ABLATION_ARMS = {
        "use_feature_selection",
        "use_recall_pruning",
        "use_diversity",
        "exclude_group_determined",
    }
    BUDGETS = {"apt_cache_mb"}

    def test_exact_field_set(self):
        from dataclasses import fields

        from repro.api.session import _MINING_NEUTRAL_FIELDS

        names = {f.name for f in fields(CajadeConfig)}
        expected = (
            self.TABLE_1
            | self.PAPER_TEXT
            | self.ABLATION_ARMS
            | self.BUDGETS
            | {"seed"}
        )
        assert names == expected
        assert len(names) == 23
        # Only the budgets may leave answers alone; anything else keys
        # the mining memo and the serving caches.
        assert _MINING_NEUTRAL_FIELDS == self.BUDGETS

    def test_cli_lists_no_strategy_switch(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "--help"])
        text = capsys.readouterr().out
        assert "--apt-cache-mb" in text
        for switch in (
            "--workers",
            "--kernel-cache-mb",
            "--no-kernel",
            "--no-code-lca",
            "--no-hist-forest",
            "--no-late-mat",
            "--join-strategy",
        ):
            assert switch not in text
