"""Histogram-based level-at-a-time random forest on dictionary codes.

The §3.1 relevance ranker.  It is an accelerated twin of the per-node
recursive CART forest kept as a test oracle in
``tests/oracles/cart_forest.py`` ("the reference learner" below), in its
all-features-per-split configuration:

    HistRandomForestClassifier(n_estimators=t, max_depth=d,
                               max_samples=s, random_state=r).fit(X, y)

reproduces

    RandomForestClassifier(n_estimators=t, max_depth=d, max_samples=s,
                           max_features=X.shape[1], random_state=r).fit(X, y)

**bit for bit** — identical bootstrap samples, tree structures, split
thresholds and feature importances (the twin contract) — while doing
asymptotically less work per split.  §3.1 reads only the importances
and the work counters, so this learner fits and ranks and has no
predict.  The reference learner re-sorts each node's rows
(``np.nanquantile``) and scans a rows x candidates boolean matrix per
feature per node; this learner:

- collapses each tree's bootstrap draws into weighted distinct
  (tree, row) entries — a node's split depends on the multiset of its
  rows, never on their order;
- dictionary-encodes every column once per forest into dense value
  ranks over the union of bootstrap rows ("bins") — integral columns
  (the kernel's ml codes among them) are detected and pass straight
  through on a sort-free ``np.bincount`` presence scan;
- grows ALL trees breadth-first in lockstep, one whole level at a time
  with no per-node Python: per level, one weighted ``np.bincount`` per
  feature chunk over ``(slot, feature, bin, label)`` keys builds every
  class histogram of every frontier node of every tree;
- scores the Gini gain of each quantile candidate's cut with the
  reference expression, its left-side counts two differences of one
  running sum over the level's histograms — so scoring costs slots x
  features x quantiles, whatever the columns' distinct values;
- recovers the reference learner's candidate thresholds — the
  node-local ``np.nanquantile`` cut points — exactly: an order
  statistic is a rank lookup into the node's sorted bins (its bin ids
  repeated by count), and the interpolation replicates numpy's
  virtual-index and ``_lerp`` arithmetic bit for bit;
- picks each node's split with one ``argmax`` over its (feature,
  quantile) gains in feature-major order: the first maximum is the
  reference's first strict improvement;
- stores fitted trees as flat arrays-of-nodes in depth-first preorder
  (feature/threshold/left/right), and adds each split's importance
  mass in that order, the reference's.

:func:`splittable_columns` names the columns that can ever win a split;
a fit on only those grows the same trees, so §3.1 fits (and memoizes)
the reduced matrix and replays the importances at its own width with
:meth:`HistRandomForestClassifier.importances_at`.

Labels must be 0 or 1 (``fit`` raises otherwise).  Bitwise equality
holds because every float produced along the way — node means (0/1
labels make ``np.mean`` an exact integer count divided by the node size,
the same IEEE division this learner performs on histogram counts),
quantile candidates, Gini gains, importance contributions — is computed
by the same numpy expressions over the same values; histogram counts
are integers, exact in float64.  One threshold is equal by value but
not by bits: in a column holding both ``-0.0`` and ``0.0`` the
reference's zero cut takes the sign of whichever zero its partition
leaves at the order statistic; the split and the importances are the
same.  Feature subsampling is the one
reference feature deliberately absent: it draws rng per node in
depth-first order, which no breadth-first learner can replay, and for
*relevance ranking* (the only thing §3.1 consumes) it only adds noise;
examining every feature costs this learner almost nothing because each
level's histogram pass covers all features anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Reference learner's strict-improvement floor for accepting a split.
_MIN_GAIN = 1e-12

# Nodes smaller than this are leaves (the reference's default).
_MIN_SAMPLES_SPLIT = 10

# Quantile candidate thresholds per feature per node (the reference's
# default).
_N_THRESHOLDS = 24
_QUANTILES = np.linspace(0.0, 1.0, _N_THRESHOLDS + 2)[1:-1]

# Integral columns whose value range fits under this cap keep the signs of
# their zeros in the uniques; a modest range among them is binned with a
# sort-free presence bincount instead of an np.unique sort.
_INT_RANGE_CAP = 1 << 20

# Budget of (slot, feature, bin) histogram columns per bincount call;
# features are chunked so histogram buffers stay a few tens of MB at
# worst even at the widest possible frontier.
_CHUNK_KEYS = 1 << 22


@dataclass
class BinnedMatrix:
    """Per-forest dictionary encoding of a float feature matrix.

    ``bins[i, j]`` is the dense value rank of ``X[i, j]`` among the
    finite values of column ``j``: ``-1`` for ``-inf`` (below every
    threshold), ``0..n_bins[j]-1`` the rank into ``uniques[j]``, and
    ``n_bins[j]`` for ``NaN``/``+inf`` (never ``<=`` any threshold).
    """

    bins: np.ndarray  # (n_rows, n_features) int32
    uniques: list[np.ndarray]  # per feature, sorted finite values
    n_bins: np.ndarray  # (n_features,) int64, len(uniques[j])

    @property
    def n_features(self) -> int:
        return self.bins.shape[1]


def bin_matrix(X: np.ndarray) -> BinnedMatrix:
    """Dictionary-encode each column of ``X`` into dense value ranks.

    The encoding is exact — one bin per distinct finite value — so no
    split information is lost to quantization.
    """
    X = np.asarray(X, dtype=np.float64)
    n_rows, n_features = X.shape
    bins = np.empty((n_rows, n_features), dtype=np.int32)
    uniques: list[np.ndarray] = []
    for j in range(n_features):
        col = X[:, j]
        finite = np.isfinite(col)
        uniq, fin_bins = _dense_ranks(col[finite])
        col_bins = np.full(n_rows, len(uniq), dtype=np.int32)
        col_bins[col == -np.inf] = -1
        col_bins[finite] = fin_bins
        bins[:, j] = col_bins
        uniques.append(uniq)
    return BinnedMatrix(
        bins=bins,
        uniques=uniques,
        n_bins=np.array([len(u) for u in uniques], dtype=np.int64),
    )


def _dense_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``values`` and the rank of each value among them.

    Integral values whose range is at most a few times their count (the
    kernel's ml codes among them) take a sort-free bincount presence
    scan, so codes pass straight through (re-ranked only to drop unused
    code slots); a presence array is sized by the range, so a wider one
    takes a sort.  Any other column takes one ``np.unique`` sort.
    """
    if len(values):
        lo = float(values.min())
        hi = float(values.max())
        # Both checks keep every value inside int64, so the cast is
        # exact on integral values and differs on any other.
        if hi - lo + 1.0 <= _INT_RANGE_CAP and abs(lo) < 2.0**62:
            ints = values.astype(np.int64)
            if np.array_equal(ints, values):
                if hi - lo < 4.0 * len(values) + 64:
                    ints -= int(lo)
                    present = np.bincount(ints) > 0
                    ranks = (np.cumsum(present) - 1)[ints]
                    size = int(present.sum())
                else:
                    distinct, ranks = np.unique(ints, return_inverse=True)
                    size = len(distinct)
                # The values themselves, so a -0.0 keeps its sign.
                uniq = np.empty(size)
                uniq[ranks] = values
                return uniq, ranks
    return np.unique(values, return_inverse=True)


def splittable_columns(X: np.ndarray) -> np.ndarray:
    """Ascending indices of the columns of ``X`` that can win a split.

    A column can split a node only if it holds two distinct finite
    values, or one beside ``NaN``/``+inf`` (the cut at that value sends
    the two apart).  A later column equal byte for byte to an earlier
    one ties it at every candidate of every node, and the first strict
    improvement never picks it.  So ``X[:, splittable_columns(X)]``
    grows the trees of ``X`` with its columns renumbered: same draws,
    same splits, same node counts.
    """
    X = np.asarray(X, dtype=np.float64)
    n_rows, n_features = X.shape
    if n_rows == 0 or n_features == 0:
        return np.arange(n_features)
    finite = np.isfinite(X)
    low = np.where(finite, X, np.inf).min(axis=0)
    high = np.where(finite, X, -np.inf).max(axis=0)
    above_all = (~finite & (X != -np.inf)).any(axis=0)
    can_split = finite.any(axis=0) & ((low != high) | above_all)
    columns = np.ascontiguousarray(X.T)
    as_bytes = columns.view(
        np.dtype((np.void, columns.itemsize * n_rows))
    ).ravel()
    first = np.zeros(n_features, dtype=bool)
    first[np.unique(as_bytes, return_index=True)[1]] = True
    return np.flatnonzero(first & can_split)


@dataclass
class FlatTree:
    """A fitted tree as flat arrays-of-nodes in depth-first preorder
    (index 0 is the root).

    ``feature[i] == -1`` marks a leaf.
    """

    feature: np.ndarray  # int32, -1 for leaves
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    feature_importances_: np.ndarray | None = field(default=None)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


class _Chunk:
    """One span of consecutive features of the histogram buffer.

    Feature ``j`` owns ``n_bins[j] + 2`` consecutive buffer columns —
    its ``-inf`` bin, its finite bins in value order, its ``NaN`` bin —
    in one layout over all features.  A chunk is features ``lo:hi``,
    ``stride`` columns from global column ``origin`` on; below,
    columns are chunk-local: feature ``lo + i``'s ``-inf`` column is
    ``offs[i]`` and its last finite column ``ends[i]``.  The chunk's
    finite bins, feature by feature, are its "finite columns":
    ``fin_cols`` addresses each, ``base_cols`` its feature's ``-inf``
    column, ``fin_start`` each feature's first, and ``uniq`` holds
    their values.
    """

    __slots__ = (
        "lo", "hi", "origin", "offs", "ends", "stride",
        "fin_cols", "base_cols", "fin_start", "uniq",
    )

    def __init__(self, lo: int, hi: int, origin: int, binned: BinnedMatrix):
        self.lo, self.hi, self.origin = lo, hi, origin
        nb = binned.n_bins[lo:hi]
        widths = nb + 2
        self.offs = np.concatenate([[0], np.cumsum(widths)[:-1]])
        self.ends = self.offs + nb
        self.stride = int(widths.sum())
        self.base_cols = np.repeat(self.offs, nb)
        self.fin_start = np.concatenate([[0], np.cumsum(nb)[:-1]])
        self.fin_cols = (
            self.base_cols + 1 + np.arange(int(nb.sum()))
            - np.repeat(self.fin_start, nb)
        )
        self.uniq = np.concatenate(
            [np.empty(0)] + binned.uniques[lo:hi]
        )


def _plan_chunks(binned: BinnedMatrix, worst_slots: int) -> list[_Chunk]:
    """Greedy feature chunks sized for the widest possible frontier."""
    budget = max(_CHUNK_KEYS // max(worst_slots, 1), 2)
    plans: list[_Chunk] = []
    lo = origin = stride = 0
    for j in range(binned.n_features):
        width = int(binned.n_bins[j]) + 2
        if j > lo and stride + width > budget:
            plans.append(_Chunk(lo, j, origin, binned))
            lo, origin, stride = j, origin + stride, 0
        stride += width
    if binned.n_features > lo:
        plans.append(_Chunk(lo, binned.n_features, origin, binned))
    return plans


class _Level:
    """The frontier nodes of one depth, across every tree.

    ``n`` / ``n_pos`` count each node's draws and positive draws;
    ``split`` lists, in order, the nodes that split — the k-th one's
    children are nodes ``2k`` and ``2k+1`` of the next level.
    """

    __slots__ = (
        "tree", "n", "n_pos", "feature", "threshold", "contribution",
        "split",
    )

    def __init__(self, tree: np.ndarray, n: np.ndarray, n_pos: np.ndarray):
        self.tree = tree
        self.n = n
        self.n_pos = n_pos
        size = len(tree)
        self.feature = np.full(size, -1, dtype=np.int64)
        self.threshold = np.zeros(size)
        self.contribution = np.zeros(size)
        self.split = np.empty(0, dtype=np.int64)


class HistRandomForestClassifier:
    """Histogram-based bagged forest, bit-identical to the reference.

    Parameters mirror the reference ``RandomForestClassifier``
    (``tests/oracles/cart_forest.py``) with ``max_features`` pinned to
    all features per split (see the module docstring for why).  Work
    counters for
    :class:`repro.core.timing.StepTimer`:

    - ``nodes_grown``: tree nodes materialized (internal + leaves);
    - ``histograms_built``: (node, feature) histograms accumulated;
    - ``splits_evaluated``: candidate thresholds scored.
    """

    def __init__(
        self,
        n_estimators: int = 12,
        max_depth: int = 6,
        max_samples: int | None = 3000,
        random_state: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_samples = max_samples
        self.random_state = random_state
        self.trees_: list[FlatTree] = []
        self.feature_importances_: np.ndarray | None = None
        self.nodes_grown = 0
        self.histograms_built = 0
        self.splits_evaluated = 0
        # Every split node of the forest, by tree then preorder.
        self._split_tree = np.empty(0, dtype=np.int64)
        self._split_feature = np.empty(0, dtype=np.int64)
        self._split_contribution = np.empty(0)

    # ------------------------------------------------------------------
    def fit(
        self, X: np.ndarray, y: np.ndarray
    ) -> "HistRandomForestClassifier":
        """Fit on float features ``X`` and 0/1 labels ``y``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if len(X) != len(y):
            raise ValueError("X and y must have the same number of rows")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must be 0 or 1")
        rng = np.random.default_rng(self.random_state)
        n_rows, n_features = X.shape
        n_trees = self.n_estimators
        sample_size = n_rows
        if self.max_samples is not None:
            sample_size = min(n_rows, self.max_samples)
        # The reference forest's only rng consumption in all-features
        # mode is one integers() draw per tree, in tree order.
        draws = np.stack(
            [
                rng.integers(0, n_rows, size=sample_size)
                for _ in range(n_trees)
            ]
        )

        # Bin once per forest, over the union of bootstrap rows only —
        # rows no tree ever samples are never encoded — and collapse
        # each tree's draws into weighted distinct (tree, row) entries.
        present = np.zeros(n_rows, dtype=bool)
        present[draws.ravel()] = True
        union_rows = np.flatnonzero(present)
        n_union = len(union_rows)
        pos_of_row = np.cumsum(present) - 1
        keys = (
            np.arange(n_trees)[:, None] * n_union + pos_of_row[draws]
        ).ravel()
        counts = np.bincount(keys, minlength=n_trees * n_union)
        entries = np.flatnonzero(counts)
        tree, pos = np.divmod(entries, n_union)
        binned = bin_matrix(X[union_rows])

        self.nodes_grown = 0
        self.histograms_built = 0
        self.splits_evaluated = 0
        levels = self._grow_forest(
            binned,
            pos,
            counts[entries],
            y[union_rows][pos] == 1.0,
            tree,
            sample_size,
        )
        self._store(levels, n_trees, n_features)
        return self

    # ------------------------------------------------------------------
    def importances_at(
        self, columns: np.ndarray, width: int
    ) -> np.ndarray:
        """Forest importances over ``width`` columns, fitted column ``j``
        landing at ``columns[j]`` and zeros elsewhere.

        Bitwise what a fit on the ``width``-column matrix gives when the
        other columns never win a split (:func:`splittable_columns`):
        the normalizing sums run at that width, and ``np.sum``'s
        pairwise order depends on it.
        """
        return self._importances(np.asarray(columns), width)[1]

    def _importances(
        self, columns: np.ndarray, width: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-tree and forest importances, reference arithmetic: each
        tree adds its split contributions in preorder, then normalizes;
        the forest sums the trees in order, then normalizes."""
        per_tree = np.zeros((self.n_estimators, width))
        # add.at is unbuffered: repeated cells accumulate in index
        # order, which is the reference's preorder.
        np.add.at(
            per_tree,
            (self._split_tree, columns[self._split_feature]),
            self._split_contribution,
        )
        forest = np.zeros(width)
        for raw in per_tree:
            total = raw.sum()
            if total > 0:
                raw[:] = raw / total
            forest += raw
        total = forest.sum()
        if total > 0:
            return per_tree, forest / total
        return per_tree, np.zeros(width)

    # ------------------------------------------------------------------
    def _grow_forest(
        self,
        binned: BinnedMatrix,
        rows: np.ndarray,
        weight: np.ndarray,
        positive: np.ndarray,
        tree: np.ndarray,
        per_tree: int,
    ) -> list[_Level]:
        """Grow every tree breadth-first, all frontiers in lockstep.

        Entry ``i`` is row ``rows[i]`` of ``binned`` drawn ``weight[i]``
        times into tree ``tree[i]``'s bootstrap sample (``per_tree``
        draws), with label ``positive[i]``.  A level is a handful of
        array passes whatever its width: entries carry the index of
        their node in the level, and routing only relabels each with its
        child's.
        """
        n_trees = self.n_estimators
        chunks = _plan_chunks(
            binned,
            min(len(weight), n_trees * per_tree // _MIN_SAMPLES_SPLIT),
        )
        # Each entry's bin as its column in the one buffer layout.
        widths = binned.n_bins + 2
        n_columns = int(widths.sum())
        first_col = np.concatenate([[0], np.cumsum(widths)[:-1]])
        cols = np.take(
            (first_col + binned.bins + 1).astype(
                np.int32 if n_columns < 2**31 else np.int64
            ),
            rows,
            axis=0,
        )
        weight = weight.astype(np.float64)

        node = tree
        level = _Level(
            np.arange(n_trees),
            np.full(n_trees, per_tree, dtype=np.int64),
            np.bincount(tree, weights=weight * positive, minlength=n_trees)
            .astype(np.int64),
        )
        levels = [level]
        self.nodes_grown += n_trees
        for _depth in range(self.max_depth):
            # -- leaf gating -------------------------------------------
            # A node's positive fraction is the reference's np.mean over
            # 0/1 labels: the same IEEE division of the same counts.
            fraction = level.n_pos / level.n
            is_open = (
                (level.n >= _MIN_SAMPLES_SPLIT)
                & (fraction != 0.0)
                & (fraction != 1.0)
            )
            open_nodes = np.flatnonzero(is_open)
            if not len(open_nodes):
                break
            n_slots = len(open_nodes)
            # Only an open node's entries can route anywhere.
            slot_of_node = np.full(len(level.n), -1, dtype=np.int64)
            slot_of_node[open_nodes] = np.arange(n_slots)
            inside = np.flatnonzero(slot_of_node[node] >= 0)
            node = node[inside]
            cols = np.take(cols, inside, axis=0)
            weight, positive = weight[inside], positive[inside]
            slot = slot_of_node[node]

            # -- histograms of the open nodes, scored chunk by chunk ----
            self.histograms_built += n_slots * binned.n_features
            f = fraction[open_nodes]
            parent = 2.0 * f * (1.0 - f)
            n = level.n[open_nodes].astype(np.float64)
            n_pos = level.n_pos[open_nodes].astype(np.float64)
            best = _Best(n_slots)
            for chunk in chunks:
                hist = _count(chunk, cols, weight, positive, slot, n_slots)
                self._score_chunk(chunk, hist, n, n_pos, parent, best)

            # -- split winners, route entries --------------------------
            won = np.flatnonzero(best.gain > _MIN_GAIN)
            if not len(won):
                break
            nodes = open_nodes[won]
            level.split = nodes
            level.feature[nodes] = best.feature[won]
            level.threshold[nodes] = best.threshold[won]
            level.contribution[nodes] = best.gain[won] * n[won] / per_tree
            self.nodes_grown += 2 * len(won)

            # An entry goes right when its column lies past the cut's.
            child_of_node = np.full(len(level.n), -1, dtype=np.int64)
            child_of_node[nodes] = 2 * np.arange(len(won))
            cut_col = np.zeros(len(level.n), dtype=np.int64)
            cut_col[nodes] = first_col[best.feature[won]] + 1 + best.cut[won]
            child = child_of_node[node]
            kept = np.flatnonzero(child >= 0)
            node = node[kept]
            cols = np.take(cols, kept, axis=0)
            weight, positive = weight[kept], positive[kept]
            go_right = (
                cols.ravel()[
                    np.arange(len(kept)) * cols.shape[1]
                    + level.feature[node]
                ]
                > cut_col[node]
            )
            node = child[kept] + go_right
            n_left = best.n_left[won].astype(np.int64)
            pos_left = best.pos_left[won].astype(np.int64)
            level = _Level(
                np.repeat(level.tree[nodes], 2),
                np.stack([n_left, level.n[nodes] - n_left], 1).ravel(),
                np.stack([pos_left, level.n_pos[nodes] - pos_left], 1)
                .ravel(),
            )
            levels.append(level)
        return levels

    # ------------------------------------------------------------------
    def _score_chunk(
        self,
        chunk: _Chunk,
        hist: np.ndarray,
        n: np.ndarray,
        n_pos: np.ndarray,
        parent: np.ndarray,
        best: "_Best",
    ) -> None:
        """Score every candidate split of every chunk feature, all slots,
        and keep each slot's first strict improvement in ``best``.

        ``hist[slot, label, column]`` holds the slot's negative and
        positive counts in each of the chunk's columns.  Only the
        reference ``_best_split`` float expressions are used, in the
        same order, over the same counts.
        """
        n_slots = len(n)
        n_chunk = chunk.hi - chunk.lo
        nf = len(chunk.fin_cols)
        # One running sum through every slot, label and column: the
        # counts in a span of one row are a difference of two entries.
        cum = np.cumsum(hist)
        cum3 = cum.reshape(hist.shape)
        # Finite values per (slot, feature): the reference's candidates
        # exist only where there are two.
        fin = np.take(cum3, chunk.ends, axis=2) - np.take(
            cum3, chunk.offs, axis=2
        )
        n_fin = fin[:, 0] + fin[:, 1]
        slots, feats = np.nonzero(n_fin >= 2)
        if not len(slots):
            return
        self.splits_evaluated += len(slots) * _N_THRESHOLDS

        # Candidate thresholds: numpy's linear-method virtual index over
        # the node's finite values, its order statistics by rank lookup
        # into the node's sorted finite bins (each (slot, finite bin)
        # cell repeated by its count), then numpy's _lerp with its
        # gamma >= 0.5 rewrite.
        counts = np.take(hist, chunk.fin_cols, axis=2)
        counts = (counts[:, 0] + counts[:, 1]).astype(np.int64).ravel()
        cells = np.repeat(np.arange(n_slots * nf), counts)
        start = np.cumsum(counts) - counts
        size = n_fin[slots, feats].astype(np.int64)
        virtual = (size - 1)[:, None] * _QUANTILES
        below = np.floor(virtual)
        gamma = virtual - below
        row_base = (slots * nf)[:, None]
        rank = below.astype(np.int64)
        at = start[slots * nf + chunk.fin_start[feats]][:, None] + rank
        fin_a = cells[at] - row_base
        fin_b = cells[at + 1] - row_base
        a = chunk.uniq[fin_a]
        b = chunk.uniq[fin_b]
        diff = b - a
        cand = np.where(
            gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma
        )
        # The reference partitions on `col <= cand`.  No value of the
        # node lies strictly between the two order statistics, so the
        # cut is after bin a — or after b when the interpolation lands
        # exactly on b's value.
        cut = np.where(cand == b, fin_b, fin_a)

        # The left side of a cut is the feature's -inf bin through the
        # cut's bin.
        at = (slots * (2 * chunk.stride))[:, None]
        hist = hist.ravel()
        end = at + chunk.fin_cols[cut]
        base = at + chunk.base_cols[cut]
        neg_left = cum[end] - cum[base] + hist[base]
        end += chunk.stride
        base += chunk.stride
        pos_left = cum[end] - cum[base] + hist[base]
        n_left = neg_left + pos_left
        node_n = n[slots][:, None]
        n_right = node_n - n_left
        with np.errstate(invalid="ignore", divide="ignore"):
            p_left = pos_left / n_left
            p_right = (n_pos[slots][:, None] - pos_left) / n_right
            child = (
                n_left * 2.0 * p_left * (1.0 - p_left)
                + n_right * 2.0 * p_right * (1.0 - p_right)
            ) / node_n
        gain = parent[slots][:, None] - child
        gain[(n_left == 0) | (n_right == 0)] = -np.inf

        # One argmax per slot over its (feature, quantile) gains in
        # feature-major order: the first maximum is the reference's
        # first strict improvement.
        scores = np.full((n_slots, n_chunk * _N_THRESHOLDS), -np.inf)
        scores.reshape(n_slots, n_chunk, _N_THRESHOLDS)[slots, feats] = gain
        pick = np.argmax(scores, axis=1)
        top = scores[np.arange(n_slots), pick]
        better = np.flatnonzero(top > best.gain)
        if not len(better):
            return
        feature, q = np.divmod(pick[better], _N_THRESHOLDS)
        row = np.full((n_slots, n_chunk), -1, dtype=np.int64)
        row[slots, feats] = np.arange(len(slots))
        row = row[better, feature]
        best.gain[better] = top[better]
        best.feature[better] = chunk.lo + feature
        best.threshold[better] = cand[row, q]
        best.cut[better] = cut[row, q] - chunk.fin_start[feature]
        best.n_left[better] = n_left[row, q]
        best.pos_left[better] = pos_left[row, q]

    # ------------------------------------------------------------------
    def _store(
        self, levels: list[_Level], n_trees: int, n_features: int
    ) -> None:
        """Number every node by tree, then depth-first preorder, and
        build ``trees_`` and the importances from the levels."""
        sizes = [len(level.n) for level in levels]
        offset = np.concatenate([[0], np.cumsum(sizes)])
        total = int(offset[-1])
        left = np.full(total, -1, dtype=np.int64)
        for depth, level in enumerate(levels[:-1]):
            left[offset[depth] + level.split] = offset[depth + 1] + 2 * (
                np.arange(len(level.split))
            )
        # Subtree sizes bottom-up, then preorder positions top-down:
        # a left child follows its parent, a right child its sibling's
        # subtree.
        subtree = np.ones(total, dtype=np.int64)
        for depth in range(len(levels) - 1, -1, -1):
            nodes = offset[depth] + levels[depth].split
            children = left[nodes]
            subtree[nodes] += subtree[children] + subtree[children + 1]
        preorder = np.zeros(total, dtype=np.int64)
        for depth, level in enumerate(levels):
            nodes = offset[depth] + level.split
            children = left[nodes]
            preorder[children] = preorder[nodes] + 1
            preorder[children + 1] = preorder[nodes] + 1 + subtree[children]

        tree = np.concatenate([level.tree for level in levels])
        order = np.lexsort((preorder, tree))
        feature = np.concatenate([level.feature for level in levels])[order]
        threshold = np.concatenate([level.threshold for level in levels])[
            order
        ]
        contribution = np.concatenate(
            [level.contribution for level in levels]
        )[order]
        internal = left[order] >= 0
        left_local = np.where(internal, preorder[left[order]], -1)
        right_local = np.where(internal, preorder[left[order] + 1], -1)
        tree = tree[order]

        split = feature >= 0
        self._split_tree = tree[split]
        self._split_feature = feature[split]
        self._split_contribution = contribution[split]
        per_tree, self.feature_importances_ = self._importances(
            np.arange(n_features), n_features
        )
        bounds = np.concatenate(
            [[0], np.cumsum(np.bincount(tree, minlength=n_trees))]
        )
        self.trees_ = []
        for t in range(n_trees):
            nodes = slice(bounds[t], bounds[t + 1])
            self.trees_.append(
                FlatTree(
                    feature=feature[nodes].astype(np.int32),
                    threshold=threshold[nodes],
                    left=left_local[nodes].astype(np.int32),
                    right=right_local[nodes].astype(np.int32),
                    feature_importances_=per_tree[t],
                )
            )


def _count(
    chunk: _Chunk,
    cols: np.ndarray,
    weight: np.ndarray,
    positive: np.ndarray,
    slot: np.ndarray,
    n_slots: int,
) -> np.ndarray:
    """``(n_slots, 2, stride)`` negative and positive counts of each slot
    in each of the chunk's columns: one weighted bincount, the label
    folded into the key."""
    stride = chunk.stride
    keys = (slot * (2 * stride) + positive * stride - chunk.origin)[
        :, None
    ] + cols[:, chunk.lo : chunk.hi]
    return np.bincount(
        keys.ravel(),
        weights=np.repeat(weight, chunk.hi - chunk.lo),
        minlength=2 * n_slots * stride,
    ).reshape(n_slots, 2, stride)


class _Best:
    """Each slot's best split so far: its gain, feature, threshold, the
    cut's bin within the feature, and the left side's counts."""

    __slots__ = (
        "gain", "feature", "threshold", "cut", "n_left", "pos_left",
    )

    def __init__(self, n_slots: int):
        self.gain = np.full(n_slots, -np.inf)
        self.feature = np.zeros(n_slots, dtype=np.int64)
        self.threshold = np.zeros(n_slots)
        self.cut = np.zeros(n_slots, dtype=np.int64)
        self.n_left = np.zeros(n_slots)
        self.pos_left = np.zeros(n_slots)
