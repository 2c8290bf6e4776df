"""CaJaDE core: join-graph based rich explanations for query answers."""

from .apt import APTAttribute, AugmentedProvenanceTable
from .attribute_filter import FilteredAttributes, filter_attributes
from .config import CajadeConfig
from .diversity import dissimilarity, match_score, select_diverse_top_k, wscore
from .enumeration import (
    EnumerationStats,
    enumerate_join_graphs,
    estimate_apt_cost,
    extend_join_graph,
    has_pk_connectivity,
    is_valid,
)
from .explainer import Explanation, ExplanationResult
from .join_discovery import (
    JoinCandidate,
    augment_schema_graph,
    discover_join_candidates,
)
from .join_graph import PT_LABEL, JGEdge, JGNode, JoinGraph
from .kernel import MiningKernel
from .lca import lca_candidates_codes, pick_top_candidates
from .mining import MinedPattern, MiningResult, mine_apt
from .narrative import explanation_sentence, pattern_phrase, predicate_phrase
from .pattern import OP_EQ, OP_GE, OP_LE, Pattern, PatternPredicate
from .quality import PatternSupport, QualityEvaluator, QualityStats
from .question import ComparisonQuestion, OutlierQuestion, ResolvedQuestion
from .refinement import RefinementGenerator, numeric_fragments
from .schema_graph import JoinConditionSpec, SchemaEdge, SchemaGraph
from .timing import StepTimer

__all__ = [
    "APTAttribute",
    "AugmentedProvenanceTable",
    "CajadeConfig",
    "ComparisonQuestion",
    "dissimilarity",
    "enumerate_join_graphs",
    "EnumerationStats",
    "estimate_apt_cost",
    "Explanation",
    "ExplanationResult",
    "explanation_sentence",
    "extend_join_graph",
    "filter_attributes",
    "FilteredAttributes",
    "has_pk_connectivity",
    "is_valid",
    "JGEdge",
    "JGNode",
    "JoinCandidate",
    "augment_schema_graph",
    "discover_join_candidates",
    "JoinConditionSpec",
    "JoinGraph",
    "lca_candidates_codes",
    "match_score",
    "MiningKernel",
    "mine_apt",
    "MinedPattern",
    "MiningResult",
    "numeric_fragments",
    "OP_EQ",
    "OP_GE",
    "OP_LE",
    "OutlierQuestion",
    "Pattern",
    "pattern_phrase",
    "predicate_phrase",
    "PatternPredicate",
    "PatternSupport",
    "pick_top_candidates",
    "PT_LABEL",
    "QualityEvaluator",
    "QualityStats",
    "RefinementGenerator",
    "ResolvedQuestion",
    "SchemaEdge",
    "SchemaGraph",
    "select_diverse_top_k",
    "StepTimer",
    "wscore",
]
