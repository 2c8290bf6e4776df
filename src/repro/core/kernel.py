"""Dictionary-encoded columnar scoring kernel for pattern mining.

MineAPT's profile weight sits in scoring.  The kernel holds one APT as
arrays and scores patterns on them:

- **Dictionary encoding** — each categorical (TEXT) column is an
  ``int32`` code array gathered from its base table's encoding through
  the APT's index vectors; every equality test is one vectorized
  integer comparison.  NULL cells get the sentinel code ``-1``, which
  never equals a looked-up value code — "NULLs never match" (Def. 5).
  The *ml* view of the same codes (NULL keeps a code, first-occurrence
  numbering) feeds feature selection; numeric columns are float64.
- **Dense coverage slots** — ``__pt_row_id`` values are mapped once to
  dense slot indices with side-1 slots in ``[0, m1)`` and side-2 slots
  from ``m1`` up, and the kernel's masks keep their columns *sorted by
  slot*.  Coverage of a whole batch of match masks is then one
  ``logical_or.reduceat`` over the slot starts (which deduplicates
  fan-out) plus two contiguous counts — no scatter, no ``np.unique``, no
  dict lookups.
- **Batches of conjunctions** — a pattern is a row of indices into a
  matrix of predicate masks, and a batch of patterns is scored as
  ``masks[ids[:, 0]] & masks[ids[:, 1]] & …`` in chunks under a byte
  budget.  ``mask(Φ ∧ p) = mask(Φ) & mask(p)`` is what lets a whole
  level of Algorithm 1's refinement lattice be one 2-D AND (the
  delta-evaluation structure of the lattice; cf. Berkholz et al.'s
  FO+MOD delta views); boolean AND is associative, so any grouping of
  the conjuncts produces byte-identical masks.  Scoring one pattern is
  the batch of one.

The kernel never consumes randomness, and scoring keeps nothing between
calls — its arrays are per call.  The per-row definition it must equal
is the oracle in ``tests/oracles/coverage.py``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, Sequence

import numpy as np

from ..db.relation import TextDictionary
from .apt import AugmentedProvenanceTable
from .pattern import OP_EQ, OP_LE, Pattern, PatternPredicate

# A batch of conjunctions is scored in chunks so the live temporaries
# stay under this many bytes however wide a level of the search is (the
# no-feature-selection arm) and however long the APT: each (pattern, APT
# row) cell costs 3 bytes — the gathered operand, the running
# conjunction and the per-slot reduction.
_SCORE_CHUNK_BYTES = 16 * 2**20
_BYTES_PER_SCORE_CELL = 3


def _first_occurrence_renumber(codes: np.ndarray) -> np.ndarray:
    """Relabel int codes to first-occurrence numbering, vectorized.

    Produces exactly the codes the per-row dict loop assigns when it
    walks the rows in order: the first distinct code seen becomes 0, the
    next 1, and so on.  Used to turn gathered *base-table* codes into
    the first-occurrence ml encoding without touching object values.
    """
    if len(codes) == 0:
        return codes.astype(np.int32, copy=False)
    _, first_idx, inverse = np.unique(
        codes, return_index=True, return_inverse=True
    )
    inverse = inverse.reshape(-1)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(order), dtype=np.int32)
    rank[order] = np.arange(len(order), dtype=np.int32)
    return rank[inverse]


class MiningKernel:
    """Vectorized pattern evaluation over one (possibly sampled) APT.

    The kernel is mining's only reader of an APT's columns (§3.1–§3.4).
    Each minable attribute, in ``apt.attributes`` order, is gathered
    once through the frame's index vectors composed with ``rows``: a
    TEXT column as its base table's int32 dictionary codes (the value →
    code dictionary is shared with the table), any other column as
    float64 values with a validity mask.

    Parameters:
        apt: the APT whose minable attributes are gathered.
        rows: the evaluator's APT row subset (``None`` = every row).
        row_slot: per-row dense slot index of the row's provenance id
            (side-1 slots first, then side-2 — see module docstring).
        m1: number of side-1 slots (every slot from ``m1`` up is side 2).
    """

    def __init__(
        self,
        apt: AugmentedProvenanceTable,
        rows: np.ndarray | None,
        row_slot: np.ndarray,
        m1: int,
    ):
        self._index_slots(row_slot, m1)

        # Encoded storage: match codes (-1 = NULL, never matches), the
        # base column's dictionary (loaded only when read), base-table
        # ml codes (renumbered when feature selection asks) and float64
        # numeric views with validity masks.
        self._codes: dict[str, np.ndarray] = {}
        self._dicts: dict[str, TextDictionary] = {}
        self._ml_codes: dict[str, np.ndarray] = {}
        self._numeric: dict[str, np.ndarray] = {}
        self._numeric_valid: dict[str, np.ndarray | None] = {}
        self._ml_renumbered: dict[str, np.ndarray] = {}
        self._derived = False

        for attribute in apt.attributes:
            name = attribute.name
            source = apt.column_encoding(name, rows)
            if source is not None:
                self._gather_categorical(name, *source)
                continue
            values = apt.column_values(name, rows).astype(
                np.float64, copy=False
            )
            self._numeric[name] = values
            invalid = np.isnan(values)
            self._numeric_valid[name] = ~invalid if invalid.any() else None

    def _index_slots(self, row_slot: np.ndarray, m1: int) -> None:
        """Sort the rows by coverage slot, once: ``slot_order`` permutes
        APT rows into mask columns, ``_slot_starts`` marks where each
        *present* slot's run of columns begins (a slot none of whose
        rows survived the join has no run and is never covered), and the
        first ``_side1_runs`` runs belong to side 1."""
        row_slot = np.asarray(row_slot, dtype=np.int64)
        self._num_rows = len(row_slot)
        self.slot_order = np.argsort(row_slot, kind="stable")
        slots = row_slot[self.slot_order]
        # Slots are >= 0, so the first row always starts a run.
        self._slot_starts = np.flatnonzero(np.diff(slots, prepend=-1))
        self._side1_runs = int(
            np.searchsorted(slots[self._slot_starts], int(m1))
        )

    def _gather_categorical(
        self, name: str, encoding: Any, rows: np.ndarray | None
    ) -> None:
        """Adopt a table-level encoding gathered through index vectors.

        Subset gathers route through ``TextColumn.gather_match`` and
        copy only the gathered slice, so a disk-backed (memmap) code
        array never forces a whole-table match-code temporary just to
        serve one APT's rows.
        """
        if rows is None:
            base_codes = np.asarray(encoding.codes)
            match_codes = np.asarray(encoding.match_codes)
        else:
            base_codes = np.asarray(encoding.codes[rows])
            match_codes = encoding.gather_match(rows)
        self._codes[name] = match_codes
        self._ml_codes[name] = base_codes
        self._dicts[name] = encoding.dictionary

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    @classmethod
    def derived(
        cls,
        source: "MiningKernel",
        selector: np.ndarray,
        row_slot: np.ndarray,
        m1: int,
    ) -> "MiningKernel":
        """A kernel over a row-subset of ``source``'s universe.

        ``selector`` is a boolean mask over ``source``'s rows.  Encoding
        dictionaries are shared and code arrays sliced, so a λF1-samp
        evaluator skips the gather entirely (its rows are a subset of
        the exact evaluator's — same APT, smaller sampled provenance
        universe).
        """
        self = cls.__new__(cls)
        self._index_slots(row_slot, m1)
        self._codes = {k: v[selector] for k, v in source._codes.items()}
        self._dicts = dict(source._dicts)
        self._ml_codes = {
            k: v[selector] for k, v in source._ml_codes.items()
        }
        self._numeric = {k: v[selector] for k, v in source._numeric.items()}
        self._numeric_valid = {
            k: (None if v is None else v[selector])
            for k, v in source._numeric_valid.items()
        }
        self._ml_renumbered = {}
        self._derived = True
        return self

    def match_codes(self, attr: str) -> np.ndarray | None:
        """``int32`` codes of a categorical column; ``-1`` marks NULLs.
        ``None`` when the attribute is numeric."""
        return self._codes.get(attr)

    def ml_codes(self, attr: str) -> np.ndarray | None:
        """First-occurrence label encoding of a categorical column, NULL
        included (it keeps a code, so it still correlates) — the codes
        :mod:`repro.ml.varclus` and the forest's feature matrix read.

        The gathered codes carry base-table numbering; they are
        renumbered here (vectorized, memoized) to the first-occurrence
        ordering over this kernel's rows — code *numbering* matters for
        the random-forest feature matrix, unlike for matching or
        counting.

        Returns ``None`` for a numeric attribute, and on :meth:`derived`
        kernels: their sliced codes are not first-occurrence-numbered
        over the subset (feature selection runs on the exact
        evaluator's kernel, never a derived one)."""
        if self._derived:
            return None
        codes = self._ml_codes.get(attr)
        if codes is None:
            return None
        renumbered = self._ml_renumbered.get(attr)
        if renumbered is None:
            renumbered = _first_occurrence_renumber(codes)
            self._ml_renumbered[attr] = renumbered
        return renumbered

    @property
    def numeric_columns(self) -> Mapping[str, np.ndarray]:
        """Read-only name → float64 values of every numeric attribute
        (NaN is NULL) — what §3.1's correlation and forest and §3.4's
        fragment boundaries read."""
        return MappingProxyType(self._numeric)

    def valid(self, attr: str) -> np.ndarray:
        """Where a numeric attribute is not NULL, as a boolean mask."""
        valid = self._numeric_valid[attr]
        if valid is None:
            return np.ones(self._num_rows, dtype=bool)
        return valid

    def code_values(self, attr: str) -> list | None:
        """The inverse dictionary of a categorical column: a list whose
        index ``code`` holds the value that encoded to ``code``.

        Distinct codes decode to distinct values (``str``, or ``None``
        for the NULL cell's code), so patterns reconstructed from codes
        compare equal to patterns built from the raw column.  ``None``
        when the attribute is numeric.
        """
        dictionary = self._dicts.get(attr)
        return None if dictionary is None else dictionary.decode.tolist()

    def code_matrix(
        self, attrs: list[str], indices: np.ndarray | None = None
    ) -> np.ndarray:
        """A ``(num_rows, len(attrs))`` int32 matrix of the categorical
        ``attrs``' :meth:`match_codes` (NULLs are ``-1`` and never agree).

        ``indices`` selects a row subset *before* stacking, so a small
        λpat-samp sample over a large APT never materializes the full
        matrix.
        """
        columns = [self._codes[attr] for attr in attrs]
        if indices is not None:
            columns = [codes[indices] for codes in columns]
        if not columns:
            rows = self._num_rows if indices is None else len(indices)
            return np.empty((rows, 0), dtype=np.int32)
        return np.stack(columns, axis=1)

    # ------------------------------------------------------------------
    # Masks
    # ------------------------------------------------------------------
    def predicate_mask(self, attr: str, op: str, value: Any) -> np.ndarray:
        """The boolean match mask of one predicate, in APT row order.

        Byte-identical to ``PatternPredicate(attr, op, value)
        .matches_array(columns[attr])``.
        """
        codes = self._codes.get(attr)
        if codes is not None:
            if op != OP_EQ:
                raise ValueError(
                    f"operator {op} not allowed on categorical "
                    f"attribute {attr}"
                )
            # NULL compares equal to nothing; neither does a constant the
            # column never holds (a non-str constant among them).
            code = (
                None if value is None else self._dicts[attr].code_of.get(value)
            )
            if code is None:
                return np.zeros(self._num_rows, dtype=bool)
            return codes == np.int32(code)
        if attr not in self._numeric:
            raise KeyError(
                f"pattern attribute {attr!r} missing from the kernel's "
                "columns"
            )
        numeric = self._numeric[attr]
        with np.errstate(invalid="ignore"):
            if op == OP_EQ:
                mask = numeric == float(value)
            elif op == OP_LE:
                mask = numeric <= float(value)
            else:
                mask = numeric >= float(value)
        valid = self._numeric_valid[attr]
        if valid is not None:
            mask = mask & valid
        return mask

    def predicate_masks(
        self, predicates: Sequence[PatternPredicate], lead: int = 0
    ) -> np.ndarray:
        """A ``(lead + len(predicates), num_rows)`` boolean matrix: row
        ``lead + i`` is predicate ``i``'s mask with its columns in slot
        order; the ``lead`` rows before them are left for the caller."""
        masks = np.empty((lead + len(predicates), self._num_rows), dtype=bool)
        order = self.slot_order
        for row, p in enumerate(predicates, start=lead):
            masks[row] = self.predicate_mask(p.attribute, p.op, p.value)[order]
        return masks

    def encode(
        self, patterns: Sequence[Pattern]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Patterns as rows of indices into a matrix of predicate masks.

        Returns ``(masks, ids)``: ``masks[0]`` is all-True (the empty
        conjunction, which also pads short rows) and the rows after it
        are the batch's distinct predicates; ``ids[i]`` lists pattern
        ``i``'s predicates.  A NaN constant never equals itself, so it
        gets a row per occurrence — each of them all-False, as it must.
        """
        index: dict[PatternPredicate, int] = {}
        rows = [
            [index.setdefault(p, len(index) + 1) for p in pattern.predicates]
            for pattern in patterns
        ]
        masks = self.predicate_masks(list(index), lead=1)
        masks[0] = True
        width = max(map(len, rows), default=0)
        ids = np.zeros((len(rows), max(1, width)), dtype=np.int64)
        for i, row in enumerate(rows):
            ids[i, : len(row)] = row
        return masks, ids

    @staticmethod
    def conjunctions(masks: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """``masks[ids[:, 0]] & masks[ids[:, 1]] & …``, one row per id row."""
        out = masks[ids[:, 0]]
        for k in range(1, ids.shape[1]):
            out &= masks[ids[:, k]]
        return out

    # ------------------------------------------------------------------
    # Coverage
    # ------------------------------------------------------------------
    def score(
        self, masks: np.ndarray, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct covered provenance rows per side (Definition 7) of
        every conjunction ``ids`` spells over ``masks``, as two int64
        arrays.

        A provenance row is covered iff at least one of its APT rows
        matches: mask columns are sorted by slot, so an OR over each
        slot's run deduplicates fan-out and the side-1 runs come first.
        """
        cov1 = np.zeros(len(ids), dtype=np.int64)
        cov2 = np.zeros(len(ids), dtype=np.int64)
        if self._num_rows == 0:
            return cov1, cov2
        step = max(
            1, _SCORE_CHUNK_BYTES // (_BYTES_PER_SCORE_CELL * self._num_rows)
        )
        side1 = self._side1_runs
        for start in range(0, len(ids), step):
            chunk = slice(start, start + step)
            covered = np.logical_or.reduceat(
                self.conjunctions(masks, ids[chunk]), self._slot_starts, axis=1
            )
            cov1[chunk] = np.count_nonzero(covered[:, :side1], axis=1)
            cov2[chunk] = np.count_nonzero(covered[:, side1:], axis=1)
        return cov1, cov2

    def coverage(
        self, patterns: Sequence[Pattern]
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`score` of a batch of patterns."""
        return self.score(*self.encode(patterns))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._num_rows

    def __repr__(self) -> str:
        return (
            f"MiningKernel({self._num_rows} rows, "
            f"{len(self._codes)} encoded + {len(self._numeric)} numeric "
            f"columns)"
        )
