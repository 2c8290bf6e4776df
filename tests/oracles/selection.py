"""§3.1 without sharing: every join graph selects with a memo of its own.

Production hands all join graphs of a question one
:class:`~repro.core.attribute_filter.SelectionMemo`, so a forest or a
Cramér's V whose inputs an earlier graph already digested is read back
instead of recomputed.  The reference is what ran before that memo
existed — each graph clusters and fits from scratch — and it is reached
by construction, not by a switch: ``filter_attributes`` has one path, and
a memo no other graph ever wrote to cannot hit across graphs.
"""

from __future__ import annotations

from repro.core.attribute_filter import SelectionMemo, filter_attributes
from repro.core.timing import HIST_NODES_GROWN


def swap_in(monkeypatch) -> list[tuple[bytes, int]]:
    """Make ``mine_apt`` give every graph a fresh selection memo.

    Returns a list that fills, per graph whose selection reached the
    forest, with ``(forest key, nodes that fit grew)`` — every graph
    fits here, so grouping by key gives the cost of the distinct fits.
    """
    fits: list[tuple[bytes, int]] = []

    def unshared(apt, evaluator, config, rng, timer, memo):
        fresh = SelectionMemo()
        before = timer.counter(HIST_NODES_GROWN)
        filtered = filter_attributes(
            apt, evaluator, config, rng, timer=timer, memo=fresh
        )
        for key in fresh.relevance:
            fits.append((key, timer.counter(HIST_NODES_GROWN) - before))
        return filtered

    monkeypatch.setattr("repro.core.mining.filter_attributes", unshared)
    return fits
