"""The sorted-window join step behind the engine's APT plans.

One plan join step — ``frame ⋈ context`` on equality conditions — is
executed by :class:`SortedWindowStrategy`, which picks per step, from
what it can observe about the inputs, between two byte-identical
executions and decides what the engine's prefix trie caches for it:

* the *window path*: when the context side is the build side (strictly
  smaller, mirroring the hash core's swap rule) and the key pair is
  clean, the join becomes two ``np.searchsorted`` calls against the
  context column's shared :class:`~repro.db.relation.SortIndex` — no
  per-join hash build, no object gathers (TEXT probes gather int32 codes
  and translate them through a memoized code table).  The trie then
  caches a compact :class:`WindowEntry` — probe rows + int32
  ``(lo, hi)`` windows + the shared permutation handle — instead of the
  expanded index vectors; :meth:`WindowEntry.expand` reproduces the
  frame with the core's exact ``repeat``/``cumsum`` expansion.
* the *hash core*: every other step (multi-column keys, a context at
  least as large as the probe, mixed or bit-losing key types)
  runs :meth:`IndexFrame.join` →
  :func:`repro.db.executor.join_row_indices`, and the trie caches the
  int32-compacted index-vector frame.

Byte-identity with the hash core is structural: window probes reproduce
the core's code semantics (NULLs never match, value equality on TEXT,
float-cast guards on mixed numerics), the stable permutation keeps
equal-key build rows in ascending row order exactly like the core's
stable argsort, and every case the window path cannot mirror falls back
to the core itself.  The differential harness in
``tests/test_join_strategies.py`` asserts this over generated
adversarial inputs with :meth:`IndexFrame.join` as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExecutionError
from .executor import _unsafe_float_cast
from .frame import IndexFrame
from .relation import _INT32_MAX, Relation, SortIndex


@dataclass
class JoinStrategyStats:
    """Counters describing one :class:`SortedWindowStrategy`'s lifetime.

    ``windows_built`` counts join steps served by the window fast path,
    ``searchsorted_probes`` the probe rows ranged into windows,
    ``permutation_reuses`` the window joins whose sort permutation this
    strategy had already used (the permutation itself is built at most
    once per table column per process), and ``fallback_joins`` the steps
    routed to the shared hash core.
    """

    windows_built: int = 0
    searchsorted_probes: int = 0
    permutation_reuses: int = 0
    fallback_joins: int = 0


class WindowEntry:
    """A compact cached join step: probe rows + windows into a shared
    sort permutation.

    Instead of the expanded per-source index vectors (one int64 entry
    per *output* row per source), a window entry stores the probe side's
    row vectors compacted to int32 plus two int32 arrays of length
    ``probe_n`` — the ``[lo, hi)`` window of each probe row in the
    context column's sorted key order.  The permutation itself
    (``index.perm``/``index.keys``) is shared across every entry probing
    the same column, so caches charge it once via
    :attr:`shared_components` and each entry's marginal cost is
    :attr:`own_bytes`.

    :meth:`expand` reconstructs the joined frame with exactly the
    ``repeat``/``cumsum`` expansion of ``join_row_indices``; the
    strategy itself returns ``entry.expand()`` as the live result, so a
    later cache hit expands through the identical code path and is
    byte-identical by construction.
    """

    __slots__ = ("sources", "rows", "context", "index", "lo", "hi")

    def __init__(
        self,
        sources: tuple[Relation, ...],
        rows: tuple[np.ndarray | None, ...],
        context: Relation,
        index: SortIndex,
        lo: np.ndarray,
        hi: np.ndarray,
    ):
        self.sources = sources
        self.rows = rows
        self.context = context
        self.index = index
        self.lo = lo
        self.hi = hi

    @property
    def own_bytes(self) -> int:
        """Marginal bytes of this entry: windows + probe row vectors."""
        return (
            self.lo.nbytes
            + self.hi.nbytes
            + sum(idx.nbytes for idx in self.rows if idx is not None)
        )

    @property
    def shared_components(self) -> tuple[tuple[int, int], ...]:
        """``(token, nbytes)`` of arrays shared across entries.

        Caches holding several entries over the same sort permutation
        charge its bytes once per distinct token (see
        :meth:`repro.engine.trie.PrefixCache.put`).
        """
        return ((self.index.token, self.index.nbytes),)

    @property
    def estimated_bytes(self) -> int:
        """Standalone size (own + shared), for the plain cache protocol."""
        return self.own_bytes + self.index.nbytes

    def expand(self) -> IndexFrame:
        """Reconstruct the joined frame (the core's exact expansion)."""
        counts = self.hi.astype(np.int64) - self.lo
        probe_n = len(counts)
        total = int(counts.sum())
        probe_idx = np.repeat(np.arange(probe_n, dtype=np.int64), counts)
        if total:
            starts = np.repeat(self.lo.astype(np.int64), counts)
            segment_starts = np.repeat(np.cumsum(counts) - counts, counts)
            offsets = np.arange(total, dtype=np.int64) - segment_starts
            build_idx = self.index.perm[starts + offsets]
        else:
            build_idx = np.empty(0, dtype=np.int32)
        rows = tuple(
            probe_idx if idx is None else idx[probe_idx] for idx in self.rows
        ) + (build_idx,)
        return IndexFrame(self.sources + (self.context,), rows)

    def __repr__(self) -> str:
        return (
            f"WindowEntry({len(self.lo)} probe rows over "
            f"{len(self.sources)} sources, {self.own_bytes} own bytes)"
        )


def compact_frame(frame: IndexFrame) -> IndexFrame:
    """A frame with its row vectors cast to int32 where sources permit.

    Sorted-window entries index int32 code permutations; compacting the
    surrounding row vectors to match halves the trie's per-entry cost on
    the paths the window cannot serve (fallback joins, filter steps).
    Values are unchanged — gathers produce identical bytes — so this is
    a pure storage-width choice.
    """
    if all(idx is None or idx.dtype == np.int32 for idx in frame.rows):
        return frame
    if any(source.num_rows > _INT32_MAX for source in frame.sources):
        return frame
    rows = tuple(
        None if idx is None else idx.astype(np.int32, copy=False)
        for idx in frame.rows
    )
    return IndexFrame(frame.sources, rows)


class SortedWindowStrategy:
    """FK joins as searchsorted windows over shared sort permutations,
    with the hash core as the input-selected fallback."""

    def __init__(self) -> None:
        self.stats = JoinStrategyStats()
        # Tokens of permutations this strategy has already probed —
        # distinguishes "built (or first seen)" from "reused" in stats.
        self._seen_tokens: set[int] = set()

    def join_frame(
        self,
        frame: IndexFrame,
        context: "Relation | IndexFrame",
        conditions: "list[tuple[str, str]] | tuple[tuple[str, str], ...]",
    ) -> tuple[IndexFrame, object]:
        """Execute one join step; returns ``(result, cache_value)``.

        The cache value is a :class:`WindowEntry` on the fast path and
        the (int32-compacted) result frame on the fallback path.
        """
        # Mirror IndexFrame.join's validation (same errors, same order)
        # before committing to either path.
        if not conditions:
            raise ExecutionError("join requires at least one condition")
        right_names = (
            context.column_names
            if isinstance(context, (Relation, IndexFrame))
            else []
        )
        overlap = set(frame.column_names) & set(right_names)
        if overlap:
            raise ExecutionError(
                f"join would produce duplicate columns: {overlap}"
            )
        entry = self._window_entry(frame, context, conditions)
        if entry is None:
            self.stats.fallback_joins += 1
            result = compact_frame(frame.join(context, list(conditions)))
            return result, result
        self.stats.windows_built += 1
        return entry.expand(), entry

    # ------------------------------------------------------------------
    def _window_entry(
        self,
        frame: IndexFrame,
        context: "Relation | IndexFrame",
        conditions,
    ) -> WindowEntry | None:
        """Try the window fast path; ``None`` falls back to the core.

        Preconditions mirror the core exactly: the context must be the
        build side (``right_n < left_n`` is the core's strict swap
        rule), the key must be a single clean pair, and the probe's key
        type must reproduce the core's encoding semantics without an
        object path.
        """
        if len(conditions) != 1:
            return None
        if not isinstance(context, Relation):
            return None
        if context.num_rows >= frame.num_rows:
            return None
        left_col, right_col = conditions[0]
        index = context.sort_index(right_col)
        if index is None:
            return None
        reused = index.token in self._seen_tokens
        windows = self._probe_windows(frame, left_col, index)
        if windows is None:
            return None
        if reused:
            self.stats.permutation_reuses += 1
        else:
            self._seen_tokens.add(index.token)
        lo, hi = windows
        self.stats.searchsorted_probes += int(len(lo))
        rows = frame.rows
        if all(s.num_rows <= _INT32_MAX for s in frame.sources):
            rows = tuple(
                None if idx is None else idx.astype(np.int32, copy=False)
                for idx in rows
            )
        return WindowEntry(
            sources=frame.sources,
            rows=rows,
            context=context,
            index=index,
            lo=lo.astype(np.int32, copy=False),
            hi=hi.astype(np.int32, copy=False),
        )

    def _probe_windows(
        self, frame: IndexFrame, left_col: str, index: SortIndex
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-probe-row ``[lo, hi)`` windows into ``index``'s keys."""
        if index.encoding is not None:
            # TEXT build side: gather the probe's int32 codes (cheaper
            # than gathering objects) and translate them into build
            # codes.  A translated -1 (NULL or absent value) must never
            # land in the match-code array's leading -1 run, so it is
            # masked to an empty window.  A numeric probe has no codes:
            # the core's cross-dtype path answers it.
            pair = frame.column_encoding(left_col)
            if pair is None:
                return None
            probe_encoding, probe_rows = pair
            codes = (
                probe_encoding.codes
                if probe_rows is None
                else probe_encoding.codes[probe_rows]
            )
            build_codes = index.translation(probe_encoding)[codes]
            lo = np.searchsorted(index.keys, build_codes, side="left")
            hi = np.searchsorted(index.keys, build_codes, side="right")
            invalid = build_codes < 0
        else:
            # Numeric build side: probe raw values against the sorted
            # domain (NaN build rows sit past n_valid and are excluded).
            if frame.column_dtype(left_col).kind not in "if":
                return None
            probe = frame.column(left_col)
            keys = index.keys
            if probe.dtype != keys.dtype:
                # Mixed numerics compare under float semantics, exactly
                # like the core — unless a cast could lose bits, which
                # the core answers with its object path; fall back.
                if _unsafe_float_cast(probe) or _unsafe_float_cast(keys):
                    return None
            domain = keys[: index.n_valid]
            lo = np.searchsorted(domain, probe, side="left")
            hi = np.searchsorted(domain, probe, side="right")
            invalid = (
                np.isnan(probe) if probe.dtype.kind == "f" else None
            )
        if invalid is not None and invalid.any():
            lo = np.where(invalid, 0, lo)
            hi = np.where(invalid, 0, hi)
        return lo, hi
