"""The explanation engine: shared-prefix APT materialization.

Layering: db → core → engine → api → cli.  The engine consumes the
canonical materialization plans of :mod:`repro.core.apt` and joins
them on :class:`~repro.db.frame.IndexFrame` index vectors;
:class:`repro.api.CajadeSession` drives it (one long-lived engine per
registered query) and the CLI surfaces its budget (``--apt-cache-mb``)
and cache statistics.
"""

from .engine import (
    EngineStats,
    MaterializationEngine,
    graph_rng,
    restriction_fingerprint,
)
from .trie import CacheStats, PrefixCache

__all__ = [
    "CacheStats",
    "EngineStats",
    "MaterializationEngine",
    "PrefixCache",
    "graph_rng",
    "restriction_fingerprint",
]
