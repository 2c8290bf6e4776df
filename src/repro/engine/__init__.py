"""The explanation engine: shared-prefix APT materialization + parallel mining.

Layering: db → core → engine → api → cli.  The engine consumes the
canonical materialization plans of :mod:`repro.core.apt` and the
sorted-window join step of :mod:`repro.db.window_join`;
:class:`repro.api.CajadeSession` drives it (one long-lived engine per
registered query) and the CLI surfaces its knobs (``--workers``,
``--apt-cache-mb``) and cache statistics.
"""

from .engine import EngineStats, MaterializationEngine, restriction_fingerprint
from .parallel import graph_rng, run_streaming
from .trie import CacheStats, PrefixCache

__all__ = [
    "CacheStats",
    "EngineStats",
    "MaterializationEngine",
    "PrefixCache",
    "graph_rng",
    "restriction_fingerprint",
    "run_streaming",
]
