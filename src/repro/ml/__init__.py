"""Machine-learning substrate: histogram forest, attribute clustering, metrics."""

from .hist_forest import (
    BinnedMatrix,
    FlatTree,
    HistRandomForestClassifier,
    bin_matrix,
)
from .metrics import (
    dcg,
    kendall_tau_distance,
    kendall_tau_distance_scores,
    ndcg,
    recall_at_k,
    top_k_match,
)
from .varclus import (
    association_matrix,
    cramers_v,
    AttributeCluster,
    cluster_attributes,
    correlation_matrix,
    encode_columns,
    pick_cluster_representatives,
)

__all__ = [
    "AttributeCluster",
    "association_matrix",
    "bin_matrix",
    "BinnedMatrix",
    "cluster_attributes",
    "cramers_v",
    "correlation_matrix",
    "dcg",
    "encode_columns",
    "FlatTree",
    "HistRandomForestClassifier",
    "kendall_tau_distance",
    "kendall_tau_distance_scores",
    "ndcg",
    "pick_cluster_representatives",
    "recall_at_k",
    "top_k_match",
]
