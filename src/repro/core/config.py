"""CaJaDE configuration: the paper's λ parameters (Table 1) and defaults.

| Paper name        | Field here            | Paper default |
|-------------------|-----------------------|---------------|
| λ#edges           | max_join_edges        | 3             |
| λ#sel-attr        | num_selected_attrs    | 3             |
| λattrNum          | max_numeric_predicates| 3             |
| λpat-samp         | lca_sample_rate       | 0.1           |
| λF1-samp          | f1_sample_rate        | 0.3           |
| λrecall           | recall_threshold      | (not stated; 0.1) |
| λ#frag            | num_fragments         | (quartile example; 3) |
| λqcost            | qcost_threshold       | (not stated; 5e6 tuples) |

The paper additionally caps the LCA sample at 1000 rows (§5.3) and keeps
k_cat categorical patterns for refinement (Algorithm 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace


# Field annotation (a string under ``from __future__ import annotations``)
# -> the value types it admits; bool is checked apart, being an int.
_ACCEPTED_TYPES = {"int": int, "float": (int, float), "bool": bool}


@dataclass
class CajadeConfig:
    """All tunables of the CaJaDE pipeline.

    Attributes mirror Table 1 of the paper plus the implementation knobs
    its text mentions (LCA row cap, k_cat, random-forest shape, the
    attribute-correlation threshold for VARCLUS clustering).
    """

    # -- explanation output -------------------------------------------
    top_k: int = 10
    """Number of explanations returned per join graph (and globally)."""

    # -- join-graph enumeration (λ#edges, λqcost) ----------------------
    max_join_edges: int = 3
    """λ#edges: maximum number of edges in an enumerated join graph."""

    qcost_threshold: float = 5_000_000.0
    """λqcost: skip join graphs whose estimated materialization cost
    (total tuples flowing through the join pipeline) exceeds this."""

    check_pk_connectivity: bool = True
    """isValid's primary-key connectivity test (paper §4)."""

    # -- feature selection (§3.1) ---------------------------------------
    use_feature_selection: bool = True
    """Disable to reproduce the paper's 'w/o feature selection' arm."""

    num_selected_attrs: float = 3
    """λ#sel-attr: attributes kept by random-forest relevance ranking.
    Values >= 1 are a count; values in (0, 1) are a fraction."""

    correlation_threshold: float = 0.9
    """|corr| above which attributes are clustered together (VARCLUS)."""

    rf_num_trees: int = 12
    """Random-forest size for the relevance ranking."""

    rf_max_depth: int = 6
    """Random-forest per-tree depth cap."""

    rf_max_samples: int = 3000
    """Row cap for each bootstrap sample when APTs are large."""

    # -- LCA pattern candidates (§3.2, λpat-samp) -----------------------
    lca_sample_rate: float = 0.1
    """λpat-samp: fraction of the APT sampled for LCA generation."""

    lca_sample_cap: int = 1000
    """Absolute row cap on the LCA sample (paper §5.3)."""

    lca_pair_cap: int = 200_000
    """Cap on the number of row pairs the LCA cross product examines."""

    k_cat: int = 15
    """Number of categorical patterns kept for numeric refinement."""

    # -- quality computation (λF1-samp, λrecall) ------------------------
    f1_sample_rate: float = 0.3
    """λF1-samp: fraction of the APT sampled for F-score computation.
    1.0 means exact."""

    recall_threshold: float = 0.1
    """λrecall: patterns (and their refinements, by Proposition 3.1)
    below this recall are pruned."""

    use_recall_pruning: bool = True
    """Disable to ablate the Proposition 3.1 monotonicity pruning."""

    # -- numeric refinement (§3.4, λ#frag, λattrNum) --------------------
    num_fragments: int = 3
    """λ#frag: numeric domains are split into this many fragments; only
    fragment boundaries are used as thresholds.  1 means no numeric
    refinement: one fragment is the whole domain and has no boundary."""

    max_numeric_predicates: int = 3
    """λattrNum: maximum numeric predicates in one pattern."""

    # -- diversity reranking (§3.5) --------------------------------------
    use_diversity: bool = True
    """Disable to ablate the wscore diversity reranking."""

    # -- functional-dependency guard (paper §8 future work) ---------------
    exclude_group_determined: bool = False
    """Drop attributes that are constant within each question side with
    differing constants across sides — i.e. attributes functionally
    determined by the group key, such as Qmimic5's ethnicity column
    re-entering through patients_admit_info.  The paper flags these
    degenerate explanations as unavoidable without FD reasoning ("we plan
    to address this in future work"); this implements that guard.  Off by
    default because some legitimate paper explanations (e.g. team=MIA for
    the LeBron question) are side-constant too."""

    # -- engine: caching ------------------------------------------------
    apt_cache_mb: float = 256.0
    """Memory budget (MB) for the materialization engine's
    shared-prefix APT trie.  0 disables engine caching (every APT is
    rebuilt from the provenance table)."""

    # -- determinism ------------------------------------------------------
    seed: int = 7
    """Seed for every sampling step (LCA sample, F1 sample, forest)."""

    def __post_init__(self) -> None:
        # Values arrive from JSON bodies and CLI flags: each must be of
        # its annotated type (an int where a float is declared is fine;
        # a bool is not an int, an integral float is not an int).
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, bool) != (spec.type == "bool") or not (
                isinstance(value, _ACCEPTED_TYPES[spec.type])
            ):
                raise TypeError(
                    f"{spec.name} must be {spec.type}, got "
                    f"{type(value).__name__} {value!r}"
                )
        # Sizes below 1 would only fail deep inside mining.
        for name in (
            "top_k", "num_fragments", "rf_num_trees", "rf_max_samples",
            "lca_sample_cap",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.max_join_edges < 0:
            raise ValueError("max_join_edges must be >= 0")
        if not 0.0 < self.lca_sample_rate <= 1.0:
            raise ValueError("lca_sample_rate must be in (0, 1]")
        if not 0.0 < self.f1_sample_rate <= 1.0:
            raise ValueError("f1_sample_rate must be in (0, 1]")
        if not 0.0 <= self.recall_threshold <= 1.0:
            raise ValueError("recall_threshold must be in [0, 1]")
        if not 0.0 < self.num_selected_attrs < math.inf:
            raise ValueError("num_selected_attrs must be positive and finite")
        if self.apt_cache_mb < 0:
            raise ValueError("apt_cache_mb must be >= 0 (0 disables)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def with_overrides(self, **kwargs) -> "CajadeConfig":
        """A copy with some fields replaced (keeps configs immutable-ish)."""
        return replace(self, **kwargs)

    def selected_attr_count(self, total: int) -> int:
        """Resolve λ#sel-attr against the number of available attributes."""
        if self.num_selected_attrs < 1:
            count = int(round(total * self.num_selected_attrs))
        else:
            count = int(self.num_selected_attrs)
        return max(1, min(total, count))
