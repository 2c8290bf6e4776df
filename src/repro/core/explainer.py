"""Explanation result types: the ranked output every layer shares.

The pipeline itself (parse → provenance → enumerate → materialize →
mine → rank, paper Algorithms 1+2) lives in
:class:`repro.api.CajadeSession`; this module keeps
:class:`Explanation` and :class:`ExplanationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import EngineStats
from .enumeration import EnumerationStats
from .join_graph import JoinGraph
from .pattern import Pattern
from .quality import PatternSupport, QualityStats
from .question import ResolvedQuestion
from .timing import StepTimer


@dataclass
class Explanation:
    """One ranked explanation E = (Ω, Φ, (c1, a1), (c2, a2)) — Definition 6."""

    join_graph: JoinGraph
    pattern: Pattern
    primary: int
    primary_label: str
    stats: QualityStats
    support: PatternSupport

    @property
    def f_score(self) -> float:
        return self.stats.f_score

    @property
    def precision(self) -> float:
        return self.stats.precision

    @property
    def recall(self) -> float:
        return self.stats.recall

    def describe(self) -> str:
        """One-line human-readable rendering of the explanation.

        Supports are printed primary-tuple first, matching the paper's
        (c1, a1), (c2, a2) convention.
        """
        s = self.support
        if self.primary == 1:
            coverage = (
                f"{s.covered1}/{s.total1} vs {s.covered2}/{s.total2}"
            )
        else:
            coverage = (
                f"{s.covered2}/{s.total2} vs {s.covered1}/{s.total1}"
            )
        return (
            f"{self.pattern.describe()} [{self.primary_label}] "
            f"(covers {coverage}; "
            f"F={self.f_score:.2f}, P={self.precision:.2f}, "
            f"R={self.recall:.2f}) via {self.join_graph.structure()}"
        )

    def describe_full(self) -> str:
        """Multi-line rendering including the join-graph conditions."""
        return "\n".join([self.describe(), self.join_graph.describe()])

    def to_sentence(self) -> str:
        """A paper-style natural-language sentence for this explanation."""
        from .narrative import explanation_sentence

        return explanation_sentence(self)

    def to_dict(self) -> dict:
        """A JSON-serializable record of this explanation."""
        return {
            "pattern": [
                {
                    "attribute": p.attribute,
                    "op": p.op,
                    "value": p.value
                    if not hasattr(p.value, "item")
                    else p.value.item(),
                }
                for p in self.pattern.predicates
            ],
            "primary": self.primary,
            "primary_label": self.primary_label,
            "f_score": self.f_score,
            "precision": self.precision,
            "recall": self.recall,
            "support": {
                "covered1": self.support.covered1,
                "total1": self.support.total1,
                "covered2": self.support.covered2,
                "total2": self.support.total2,
            },
            "join_graph": self.join_graph.structure(),
            "join_conditions": [
                str(edge.condition) for edge in self.join_graph.edges
            ],
            "sentence": self.to_sentence(),
        }


@dataclass
class ExplanationResult:
    """Everything one ``explain`` call produced."""

    explanations: list[Explanation]
    question: ResolvedQuestion
    timer: StepTimer
    enumeration: EnumerationStats
    join_graphs_mined: int
    engine: EngineStats | None = None

    def top(self, k: int | None = None) -> list[Explanation]:
        if k is None:
            return list(self.explanations)
        return self.explanations[:k]

    def describe(self, k: int | None = None) -> str:
        lines = [f"question: {self.question.question.describe()}"]
        for rank, explanation in enumerate(self.top(k), start=1):
            lines.append(f"{rank:2d}. {explanation.describe()}")
        return "\n".join(lines)

    def to_dict(self, k: int | None = None) -> dict:
        """The top-k explanations and enumeration counts as a
        JSON-serializable record: everything but the engine counters,
        which differ between a cold and a warm run of one question."""
        return {
            "question": self.question.question.describe(),
            "explanations": [e.to_dict() for e in self.top(k)],
            "join_graphs_mined": self.join_graphs_mined,
            "enumeration": {
                "generated": self.enumeration.generated,
                "valid": self.enumeration.valid,
                "skipped_pk": self.enumeration.invalid_pk,
                "skipped_cost": self.enumeration.invalid_cost,
                "duplicates": self.enumeration.duplicates,
            },
        }

    def to_json(self, k: int | None = None, indent: int = 2) -> str:
        """:meth:`to_dict` plus the ``apt_cache`` engine counters, as
        JSON (for tooling/UIs)."""
        import json

        payload = self.to_dict(k)
        if self.engine is not None:
            payload["apt_cache"] = {
                "steps_reused": self.engine.steps_reused,
                "steps_computed": self.engine.steps_computed,
                "full_hits": self.engine.full_hits,
                "evictions": (
                    self.engine.cache.evictions if self.engine.cache else 0
                ),
            }
        return json.dumps(payload, indent=indent, default=str)
