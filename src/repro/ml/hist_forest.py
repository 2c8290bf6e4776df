"""Histogram-based frontier-at-a-time random forest on dictionary codes.

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

- dictionary-encodes every column once per forest into dense value
  ranks over the union of bootstrap rows ("bins") — integral columns
  (the kernel's ml codes among them) are detected and pass straight
  through on a sort-free ``np.bincount`` presence scan;
- grows ALL trees breadth-first in lockstep (frontier-at-a-time, the
  frontier spanning every tree): per depth, composite
  ``slot * stride + bin`` keys feed one ``np.bincount`` pass per
  feature chunk that builds every (tree, node, feature, bin) class
  histogram at once;
- recovers the reference learner's candidate thresholds — the
  node-local ``np.nanquantile`` cut points — exactly from cumulative
  histograms: an order statistic is a ``searchsorted`` into the
  cumulative counts, and the interpolation replicates numpy's
  virtual-index and ``_lerp`` arithmetic bit for bit;
- scores the Gini gain of every candidate split of every frontier node
  of every tree from the cumulative histograms with the reference
  expression, preserving float op order and the
  first-strict-improvement tie-breaks of the per-node reference loop;
- stores fitted trees as flat arrays-of-nodes
  (feature/threshold/left/right/contribution).

Labels must be 0 or 1 (``fit`` raises otherwise).  Bitwise equality
holds because every float produced along the way — node means (0/1
labels make ``np.mean`` an exact integer count divided by the node size,
the same IEEE division this learner performs on histogram counts),
quantile candidates, Gini gains, importance contributions (replayed in
the reference's depth-first preorder) — is computed by the same numpy
expressions over the same values.  Feature subsampling is the one
reference feature deliberately absent: it draws rng per node in
depth-first order, which no breadth-first learner can replay, and for
*relevance ranking* (the only thing §3.1 consumes) it only adds noise;
examining every feature costs this learner almost nothing because each
depth's histogram pass covers all features anyway.
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

# Integral columns whose value range fits under this cap are binned with
# a sort-free presence bincount instead of an np.unique sort.
_INT_RANGE_CAP = 1 << 20

# Budget of composite (slot, feature, bin) keys per bincount call;
# features are chunked so histogram buffers stay a few tens of MB at
# worst even at the deepest, widest frontier.
_CHUNK_KEYS = 1 << 22

# Per-(slot, feature) offset floor for the batched searchsorted over
# cumulative histograms; the multiplier used is the max of this and the
# bootstrap sample size, so offsets always exceed any per-node count.
_SEG = 1 << 21


def gini_impurity(positive_fraction: float) -> float:
    """Gini impurity of a binary distribution."""
    p = positive_fraction
    return 2.0 * p * (1.0 - p)


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

    Integral values with a modest range (the kernel's ml codes among
    them) take a sort-free bincount presence scan, so codes pass
    straight through (re-ranked only to drop unused code slots); any
    other column takes one ``np.unique`` sort.
    """
    if len(values):
        lo = float(values.min())
        hi = float(values.max())
        # Both checks keep every value inside int64, so the cast is
        # exact on integral values and differs on any other.
        if hi - lo + 1.0 <= _INT_RANGE_CAP and abs(lo) < 2.0**62:
            ints = values.astype(np.int64)
            if np.array_equal(ints, values):
                ints -= int(lo)
                present = np.bincount(ints) > 0
                uniq = np.flatnonzero(present) + int(lo)
                return uniq.astype(np.float64), (np.cumsum(present) - 1)[ints]
    return np.unique(values, return_inverse=True)


@dataclass
class FlatTree:
    """A fitted tree as flat arrays-of-nodes (index 0 is the root).

    ``feature[i] == -1`` marks a leaf.  ``contribution[i]`` is the
    importance mass ``gain * n_node / n_sample`` of split node ``i``,
    replayed in depth-first preorder by :meth:`importances` so the
    float accumulation order matches the recursive reference learner.
    """

    feature: np.ndarray  # int32, -1 for leaves
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32
    right: np.ndarray  # int32
    contribution: np.ndarray  # float64, 0.0 for leaves
    feature_importances_: np.ndarray | None = field(default=None)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def importances(self, n_features: int) -> np.ndarray:
        """Per-feature importance, normalized to sum to 1 (or zeros)."""
        raw = np.zeros(n_features)
        stack = [0]
        while stack:
            node = stack.pop()
            if self.feature[node] < 0:
                continue
            raw[self.feature[node]] += self.contribution[node]
            stack.append(int(self.right[node]))
            stack.append(int(self.left[node]))
        total = raw.sum()
        if total > 0:
            return raw / total
        return np.zeros(n_features)


class _TreeBuilder:
    """Append-only node arrays for one growing tree."""

    __slots__ = (
        "feature", "threshold", "left", "right", "contribution",
    )

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.contribution: list[float] = []

    def new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.contribution.append(0.0)
        return len(self.feature) - 1

    def build(self) -> FlatTree:
        return FlatTree(
            feature=np.array(self.feature, dtype=np.int32),
            threshold=np.array(self.threshold),
            left=np.array(self.left, dtype=np.int32),
            right=np.array(self.right, dtype=np.int32),
            contribution=np.array(self.contribution),
        )


class _Frontier:
    """One frontier node: a contiguous segment of the order array."""

    __slots__ = ("start", "end", "tree", "node", "depth", "n_pos")

    def __init__(
        self,
        start: int,
        end: int,
        tree: int,
        node: int,
        depth: int,
        n_pos: int,
    ):
        self.start = start
        self.end = end
        self.tree = tree
        self.node = node
        self.depth = depth
        self.n_pos = n_pos


class _ChunkPlan:
    """Per-forest layout of one feature chunk's histogram buffer.

    A chunk's buffer row (one per frontier slot) is ``stride`` wide:
    feature ``feats[i]`` owns columns ``offs[i] .. offs[i]+nb[i]+1`` —
    its ``-inf`` bin, ``nb[i]`` finite bins, and its ``NaN`` bin.
    ``fin_cols``/``base_cols`` address every finite bin and its
    feature's ``-inf`` column so within-feature cumulative counts are
    two gathers and a subtract; ``uniq`` concatenates the features'
    sorted unique values in the same finite-bin order.
    """

    __slots__ = (
        "feats", "offs", "stride", "nb", "fin_cols", "base_cols",
        "fin_start", "uniq", "n_fin_total",
    )

    def __init__(self, feats: list[int], binned: BinnedMatrix):
        self.feats = np.array(feats, dtype=np.int64)
        nb = binned.n_bins[self.feats]
        widths = nb + 2
        self.offs = np.concatenate([[0], np.cumsum(widths)[:-1]])
        self.stride = int(widths.sum())
        self.nb = nb
        self.fin_cols = np.concatenate(
            [
                off + 1 + np.arange(n)
                for off, n in zip(self.offs, nb)
            ]
        ).astype(np.int64) if nb.sum() else np.empty(0, dtype=np.int64)
        self.base_cols = np.repeat(self.offs, nb)
        self.fin_start = np.concatenate([[0], np.cumsum(nb)[:-1]])
        self.uniq = (
            np.concatenate([binned.uniques[j] for j in feats])
            if nb.sum()
            else np.empty(0, dtype=np.float64)
        )
        self.n_fin_total = int(nb.sum())


def _plan_chunks(
    binned: BinnedMatrix, worst_slots: int
) -> list[_ChunkPlan]:
    """Greedy feature chunks sized for the worst-case frontier width."""
    budget = max(_CHUNK_KEYS // max(worst_slots, 1), 2)
    plans: list[_ChunkPlan] = []
    current: list[int] = []
    stride = 0
    for j in range(binned.n_features):
        width = int(binned.n_bins[j]) + 2
        if current and stride + width > budget:
            plans.append(_ChunkPlan(current, binned))
            current, stride = [], 0
        current.append(j)
        stride += width
    if current:
        plans.append(_ChunkPlan(current, binned))
    return plans


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
        sample_size = n_rows
        if self.max_samples is not None:
            sample_size = min(n_rows, self.max_samples)
        # The reference forest's only rng consumption in all-features
        # mode is one integers() draw per tree, in tree order.
        all_indices = np.stack(
            [
                rng.integers(0, n_rows, size=sample_size)
                for _ in range(self.n_estimators)
            ]
        )

        # Bin once per forest, over the union of bootstrap rows only —
        # rows no tree ever samples are never encoded.
        present = np.zeros(n_rows, dtype=bool)
        present[all_indices.ravel()] = True
        union_rows = np.flatnonzero(present)
        pos_of_row = np.cumsum(present) - 1
        binned = bin_matrix(X[union_rows])

        self.nodes_grown = 0
        self.histograms_built = 0
        self.splits_evaluated = 0
        builders = self._grow_forest(
            binned,
            pos_of_row[all_indices.ravel()],
            y[all_indices.ravel()] == 1.0,
            sample_size,
        )
        self.trees_ = []
        importances = np.zeros(n_features)
        for builder in builders:
            tree = builder.build()
            tree.feature_importances_ = tree.importances(n_features)
            self.trees_.append(tree)
            importances += tree.feature_importances_
        total = importances.sum()
        if total > 0:
            self.feature_importances_ = importances / total
        else:
            self.feature_importances_ = np.zeros(n_features)
        return self

    # ------------------------------------------------------------------
    def _grow_forest(
        self,
        binned: BinnedMatrix,
        sample_pos: np.ndarray,
        pos01: np.ndarray,
        per_tree: int,
    ) -> list[_TreeBuilder]:
        """Grow every tree breadth-first, all frontiers in lockstep.

        ``sample_pos`` maps each bootstrap draw of each tree (tree
        blocks of ``per_tree`` draws, in draw order, with duplicates)
        to its row in ``binned``; ``pos01`` (the draw's label is 1) is
        in the same order.  The ``order`` array is permuted per level so
        each node's rows stay contiguous *and in bootstrap order* — the
        partition matches the reference learner's
        ``X[mask]``/``X[~mask]`` recursion exactly.
        """
        n_total = len(sample_pos)
        n_features = binned.n_features
        n_trees = n_total // per_tree
        sample_bins = binned.bins[sample_pos]  # (n_total, F) int32
        quantiles = np.linspace(0.0, 1.0, _N_THRESHOLDS + 2)[1:-1]

        worst_slots = min(
            n_trees << max(self.max_depth - 1, 0),
            max(n_total // _MIN_SAMPLES_SPLIT, 1),
            n_total,
        )
        plans = _plan_chunks(binned, worst_slots)

        builders = [_TreeBuilder() for _ in range(n_trees)]
        order = np.arange(n_total)
        frontier = [
            _Frontier(
                t * per_tree,
                (t + 1) * per_tree,
                t,
                builders[t].new_node(),
                0,
                int(pos01[t * per_tree : (t + 1) * per_tree].sum()),
            )
            for t in range(n_trees)
        ]
        self.nodes_grown += n_trees

        while frontier:
            # -- leaf gating -------------------------------------------
            # A node's positive fraction is the reference's np.mean over
            # 0/1 labels: the same IEEE division of the same counts.
            splittable: list[_Frontier] = []
            parents: list[float] = []
            for seg in frontier:
                n_node = seg.end - seg.start
                fraction = seg.n_pos / n_node
                if (
                    seg.depth >= self.max_depth
                    or n_node < _MIN_SAMPLES_SPLIT
                    or fraction in (0.0, 1.0)
                ):
                    continue
                splittable.append(seg)
                parents.append(gini_impurity(fraction))
            if not splittable:
                break
            n_slots = len(splittable)
            lengths = np.array(
                [seg.end - seg.start for seg in splittable],
                dtype=np.int64,
            )
            active = np.concatenate(
                [order[seg.start : seg.end] for seg in splittable]
            )
            slot_of = np.repeat(
                np.arange(n_slots, dtype=np.int64), lengths
            )
            active_bins = sample_bins[active]
            positive = pos01[active]
            node_pos = np.array(
                [seg.n_pos for seg in splittable], dtype=np.int64
            )
            parent_impurity = np.array(parents)

            best_gain = np.full((n_slots, n_features), -np.inf)
            best_threshold = np.zeros((n_slots, n_features))
            best_pos = np.zeros((n_slots, n_features), dtype=np.int64)
            best_pos_left = np.zeros(
                (n_slots, n_features), dtype=np.int64
            )
            self.histograms_built += n_slots * n_features

            # -- one composite-key bincount pass per feature chunk -----
            for plan in plans:
                keys = (
                    slot_of[:, None] * plan.stride
                    + plan.offs[None, :]
                    + (active_bins[:, plan.feats] + 1)
                )
                total_hist = np.bincount(
                    keys.ravel(), minlength=n_slots * plan.stride
                ).reshape(n_slots, plan.stride)
                pos_hist = np.bincount(
                    keys[positive].ravel(),
                    minlength=n_slots * plan.stride,
                ).reshape(n_slots, plan.stride)
                self._score_chunk(
                    plan,
                    total_hist,
                    pos_hist,
                    lengths,
                    node_pos,
                    parent_impurity,
                    quantiles,
                    max(_SEG, per_tree + 1),
                    best_gain,
                    best_threshold,
                    best_pos,
                    best_pos_left,
                )

            # -- first-strict-improvement winner per node --------------
            # Replays the reference feature loop: features ascending,
            # update only on strict improvement over the running best.
            running = np.full(n_slots, _MIN_GAIN)
            winner = np.full(n_slots, -1, dtype=np.int64)
            for f in range(n_features):
                better = best_gain[:, f] > running
                running[better] = best_gain[better, f]
                winner[better] = f

            # -- split winners, route rows stably ----------------------
            next_frontier: list[_Frontier] = []
            for s, seg in enumerate(splittable):
                f = int(winner[s])
                if f < 0:
                    continue
                builder = builders[seg.tree]
                n_node = seg.end - seg.start
                builder.feature[seg.node] = f
                builder.threshold[seg.node] = float(
                    best_threshold[s, f]
                )
                builder.contribution[seg.node] = (
                    float(running[s]) * n_node / per_tree
                )
                # Copy before the in-place writes below: the left-half
                # assignment would otherwise mutate this view before
                # the right half is gathered from it.
                seg_order = order[seg.start : seg.end].copy()
                go_left = sample_bins[seg_order, f] < best_pos[s, f]
                n_left = int(go_left.sum())
                order[seg.start : seg.start + n_left] = seg_order[
                    go_left
                ]
                order[seg.start + n_left : seg.end] = seg_order[
                    ~go_left
                ]
                left_id = builder.new_node()
                right_id = builder.new_node()
                builder.left[seg.node] = left_id
                builder.right[seg.node] = right_id
                self.nodes_grown += 2
                pos_left = int(best_pos_left[s, f])
                next_frontier.append(
                    _Frontier(
                        seg.start,
                        seg.start + n_left,
                        seg.tree,
                        left_id,
                        seg.depth + 1,
                        pos_left,
                    )
                )
                next_frontier.append(
                    _Frontier(
                        seg.start + n_left,
                        seg.end,
                        seg.tree,
                        right_id,
                        seg.depth + 1,
                        seg.n_pos - pos_left,
                    )
                )
            frontier = next_frontier

        return builders

    # ------------------------------------------------------------------
    def _score_chunk(
        self,
        plan: _ChunkPlan,
        total_hist: np.ndarray,
        pos_hist: np.ndarray,
        lengths: np.ndarray,
        node_pos: np.ndarray,
        parent_impurity: np.ndarray,
        quantiles: np.ndarray,
        seg_mult: int,
        best_gain: np.ndarray,
        best_threshold: np.ndarray,
        best_pos: np.ndarray,
        best_pos_left: np.ndarray,
    ) -> None:
        """Score every candidate split of every chunk feature, all slots.

        Only the reference ``_best_split`` float expressions are used,
        in the same order, over the same counts.  The candidate
        thresholds are the reference's per-node ``np.nanquantile`` cut
        points, rebuilt from order statistics: one batched
        ``searchsorted`` over all (slot, feature) cumulative-count
        segments (offset into disjoint integer ranges) finds the
        neighbouring order-statistic bins, and numpy's virtual-index /
        ``_lerp`` arithmetic interpolates between their values.
        """
        if plan.n_fin_total == 0:
            return
        n_slots = len(lengths)
        n_chunk = len(plan.feats)
        nf = plan.n_fin_total
        neg_total = total_hist[:, plan.offs]  # (n_slots, Fc)
        neg_pos = pos_hist[:, plan.offs]
        cs_t = np.cumsum(total_hist, axis=1)
        cs_p = np.cumsum(pos_hist, axis=1)
        # Within-feature cumulative counts over finite bins only.
        fin_t = cs_t[:, plan.fin_cols] - cs_t[:, plan.base_cols]
        fin_p = cs_p[:, plan.fin_cols] - cs_p[:, plan.base_cols]
        last_cols = np.clip(plan.fin_start + plan.nb - 1, 0, nf - 1)
        n_fin = np.where(plan.nb > 0, fin_t[:, last_cols], 0)
        valid_seg = n_fin >= 2  # (n_slots, Fc)
        if not valid_seg.any():
            return

        # Candidate thresholds: virtual index (n-1)*q, neighbouring
        # order statistics, then numpy's _lerp with its gamma >= 0.5
        # rewrite.  Order statistics come from one searchsorted over
        # every (slot, feature) segment at once: segment values and
        # probes are offset into disjoint integer ranges.
        vi = (n_fin - 1)[:, :, None] * quantiles[None, None, :]
        prev = np.floor(vi)
        gamma = vi - prev
        prev_i = prev.astype(np.int64)
        seg_of_col = (
            np.arange(n_slots, dtype=np.int64)[:, None] * n_chunk
            + np.repeat(np.arange(n_chunk, dtype=np.int64), plan.nb)[
                None, :
            ]
        )
        flat = (fin_t + seg_of_col * seg_mult).ravel()
        seg3 = (
            np.arange(n_slots, dtype=np.int64)[:, None, None] * n_chunk
            + np.arange(n_chunk, dtype=np.int64)[None, :, None]
        ) * seg_mult
        probes = np.concatenate(
            [(prev_i + seg3).ravel(), (prev_i + 1 + seg3).ravel()]
        )
        idx = np.searchsorted(flat, probes, side="right")
        row_base = (
            np.arange(n_slots, dtype=np.int64)[:, None, None] * nf
        )
        half = prev_i.size
        col_a = np.clip(
            idx[:half].reshape(prev_i.shape) - row_base, 0, nf - 1
        )
        col_b = np.clip(
            idx[half:].reshape(prev_i.shape) - row_base, 0, nf - 1
        )
        a = plan.uniq[col_a]
        b = plan.uniq[col_b]
        diff = b - a
        cand = a + diff * gamma
        flip = gamma >= 0.5
        cand[flip] = b[flip] - diff[flip] * (1 - gamma[flip])

        # The reference partitions on `col <= cand`.  Every bin
        # strictly between the two order-statistic bins is empty in
        # this node, so the left-side counts are the cumulative counts
        # at bin a — or at bin b when the interpolation lands exactly
        # on b's value.
        col = np.where(cand == b, col_b, col_a)
        gather = (row_base + col).ravel()
        n_left_i = fin_t.ravel()[gather].reshape(col.shape) + neg_total[
            :, :, None
        ]
        pos_left = fin_p.ravel()[gather].reshape(col.shape) + neg_pos[
            :, :, None
        ]
        n_left = n_left_i.astype(np.float64)
        n = lengths.astype(np.float64)[:, None, None]
        total_pos = node_pos.astype(np.float64)[:, None, None]
        n_right = n - n_left
        valid = (
            (n_left > 0) & (n_right > 0) & valid_seg[:, :, None]
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            p_left = pos_left / n_left
            p_right = (total_pos - pos_left) / n_right
            child = (
                n_left * 2.0 * p_left * (1.0 - p_left)
                + n_right * 2.0 * p_right * (1.0 - p_right)
            ) / n
        gain = parent_impurity[:, None, None] - child
        gain[~valid] = -np.inf
        self.splits_evaluated += int(valid_seg.sum()) * len(quantiles)

        best_q = np.argmax(gain, axis=2)[:, :, None]
        feats = plan.feats
        best_gain[:, feats] = np.take_along_axis(
            gain, best_q, axis=2
        )[:, :, 0]
        best_threshold[:, feats] = np.take_along_axis(
            cand, best_q, axis=2
        )[:, :, 0]
        best_col = np.take_along_axis(col, best_q, axis=2)[:, :, 0]
        best_pos[:, feats] = best_col - plan.fin_start[None, :] + 1
        best_pos_left[:, feats] = np.take_along_axis(
            pos_left, best_q, axis=2
        )[:, :, 0]
