"""Decision trees as flat node tables, grown depth by depth in batches for both families.

A tree is a `NodeTable` numbered in preorder, left child before right,
so every child index exceeds its parent's. `grow` grows a batch of trees
together, such as every tree of a forest or every class tree of a
boosting round, breadth first. Columns are ranked once (`rank_columns`)
and every frontier node keeps its rows sorted by rank for each feature.
One pass per depth takes prefix sums of per-row statistics along the
candidate features of every splittable node of every tree and scores
every value boundary at its midpoint: class counts give the weighted
Gini impurity (CART, below), gradient and hessian sums the second-order
gain (gbt.py). The split nodes' rows are then stably partitioned into
their children's, so no depth sorts again. This is XGBoost's exact
greedy split finder on presorted column blocks, grown depthwise (Chen &
Guestrin 2016, section 4.1); the nodes are renumbered to preorder last.

Ties resolve to the lowest feature index, then the lowest threshold, so
a tree is a pure function of (X, its rows, statistics, params, rng
state), whichever batch grows it. A CART node may split at zero impurity
decrease as long as it is impure and a valid cut exists; both children
are then strictly smaller, which keeps growth finite and lets depth-2
trees represent XOR.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .._checks import integer, labelled_rows

LEAF = -1  # feature and child index of a leaf
#: Most nodes of a table whose one-row queries test every node, at about 5 ns a node. On
#: a 2-core Xeon VM one row took 0.36-0.66x the walk's time on 800-3000 nodes in 20-50
#: trees, 0.93x on 3900 in 100 and 1.25x on 14700 in 100; temporaries stay in 32 KiB.
_ONE_ROW_NODES = 4096


@dataclass
class NodeTable:
    """One or more trees as parallel per-node arrays.

    Rows with x[feature] <= threshold go `left`, others `right`; leaves
    have feature, left and right LEAF. `value` has one row per node: the
    class histogram of its training rows (CART) or (weight, g_sum, h_sum)
    (boosted trees, which also keep each split's `gain`, 0 at leaves).
    Tree t runs from roots[t] up to the next root. Every tree reads rows
    of feature_count features. A table is never changed once built.

    `apply` walks every tree for every row at once, one predicated step
    per level (Asadi, Lin & de Vries 2014): every walk takes a step, and a
    leaf steps to itself. The walk ends because every child index exceeds
    its parent's inside its own tree, which the grower's preorder gives
    and the model loader checks. Its step table (`_walk`) is built on the
    first batch `apply`, 50 bytes per node. One row on at most
    _ONE_ROW_NODES nodes tests every node once, then follows pointers
    (QuickScorer, Lucchese et al. 2015), from `_next`, 25 bytes per node,
    built on the first such query. Both are read-only and never in a file.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    feature_count: int
    gain: np.ndarray | None = None

    @cached_property
    def _walk(self) -> tuple:
        """(split mask, split feature with leaves 0, threshold, step), two slots
        per node, so a walk carries 2 * node: step[2 * node] is 2 * its right
        child, step[2 * node + 1] 2 * its left, a leaf's both 2 * itself."""
        split = self.feature != LEAF
        step = np.repeat(2 * np.arange(len(split)), 2)
        step[0::2][split], step[1::2][split] = 2 * self.right[split], 2 * self.left[split]
        walk = (*(np.repeat(a, 2) for a in (split, np.where(split, self.feature, 0),
                                            self.threshold)), step)
        for a in walk:
            a.flags.writeable = False
        return walk

    @cached_property
    def _next(self) -> tuple:
        """(split feature with leaves 0, left, right, leaf mask), a leaf's
        left and right being itself: a row's next node from every node."""
        leaf, at = self.feature == LEAF, np.arange(len(self.feature))
        arrays = (np.where(leaf, 0, self.feature), np.where(leaf, at, self.left),
                  np.where(leaf, at, self.right), leaf)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def apply(self, X) -> np.ndarray:
        """Node index of the leaf each row reaches in each tree: rows x trees.
        Walks are tested for a split node every 4 steps; a leaf steps to itself.
        One row on a table of at most _ONE_ROW_NODES nodes takes its next node
        from every node at once (NaN goes right), then one gather per level."""
        (n, d), trees = X.shape, len(self.roots)
        if n == 1 and len(self.feature) <= _ONE_ROW_NODES:
            feature, left, right, leaf = self._next
            nxt = np.where(X.take(feature) <= self.threshold, left, right)
            node = nxt.take(self.roots)  # a fresh array, never the table's own roots
            while not leaf.take(node).all():
                for _ in range(4):
                    node = nxt.take(node)
            return node.reshape(1, trees)
        split, feature, threshold, step = self._walk
        flat, cell = X.ravel(), (np.arange(n) * d).repeat(trees)
        node = (2 * self.roots)[None].repeat(n, axis=0).ravel()
        while split[node].any():
            for _ in range(4):
                node = step[node + (flat[cell + feature[node]] <= threshold[node])]
        return (node // 2).reshape(n, trees)


def stack_tables(tables) -> NodeTable:
    """One table holding every tree of `tables`, in order."""
    offsets = np.cumsum([0] + [len(t.feature) for t in tables[:-1]])

    def joined(name, shift=False):
        parts = [getattr(t, name) for t in tables]
        if shift:
            parts = [np.where(p == LEAF, LEAF, p + o) for p, o in zip(parts, offsets)]
        return np.concatenate(parts)

    return NodeTable(
        joined("feature"), joined("threshold"), joined("left", True), joined("right", True),
        joined("value"), np.concatenate([t.roots + o for t, o in zip(tables, offsets)]),
        tables[0].feature_count, None if tables[0].gain is None else joined("gain"),
    )


def rank_columns(X) -> np.ndarray:
    """Dense rank of every value within its column, features x rows.

    Equal values share a rank, so a stable sort by rank orders rows by
    value, ties by row. Below 2**15 rows ranks fit int16, sorted by radix.
    X is finite: the trainers pass it through labelled_rows first.
    """
    order = np.argsort(X, axis=0, kind="stable")
    values = np.take_along_axis(X, order, axis=0)
    dense = np.zeros(X.shape, dtype=np.int64)
    np.cumsum(values[1:] > values[:-1], axis=0, out=dense[1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=0)
    return np.ascontiguousarray(ranks.T, dtype=np.int16 if len(X) < 2**15 else np.int32)


#: Sorted-block cells, rows x (features + 1), of one group of trees grown together.
_GROUP_CELLS = 1 << 20
#: Candidate cells scored at once: every scoring temporary stays under
#: 128 KiB, so it stays in cache and needs no freshly mapped pages.
_CHUNK = 12_000


def _ranges(starts, lengths) -> np.ndarray:
    """The concatenated ranges [s, s + l) for every start s and length l."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if ends.size else 0)


def grow(X, ranks, criterion, samples=None, max_depth=None, min_leaf=1, pick=None) -> NodeTable:
    """Grow criterion.trees trees depth by depth, all at once; one table in tree order.

    Tree t trains on X rows samples[t] (all of X when samples is None), its
    row j being batch row t * n + j. `ranks` is rank_columns(X). A frontier
    node keeps a block of its rows sorted by rank for every feature, then
    ascending. Each depth scores the candidate features of every splittable
    node in one pass, then stably partitions the blocks of the split nodes
    into their children's, so rows are sorted once. Trees are grown in
    groups of as many as fit _GROUP_CELLS; each depends only on its own
    rows, statistics and draws.

    The criterion gives each node's value row and whether it may split
    (`node(rows, row_node, sizes)`, rows ascending by node), every cut's
    score, higher being better (`scores`, see _Gini), and the `floor` a
    node's best score must exceed for its cut to be taken. `pick(counts)`
    draws the candidate features of a depth's splittable nodes, counts[t]
    of them in tree t, tree by tree and left to right; by default every
    feature is a candidate.
    """
    d, trees = X.shape[1], criterion.trees
    shared = None  # every tree's sorted rows, when every tree has all of X
    if samples is None:
        shared = np.argsort(ranks, axis=1, kind="stable")
        samples = np.broadcast_to(np.arange(len(X)), (trees, len(X)))
    n = samples.shape[1]
    step, tables = max(1, _GROUP_CELLS // ((d + 1) * n)), []
    for first in range(0, trees, step):
        tree = np.arange(first, min(first + step, trees))
        blocks = np.empty((tree.size, d + 1, n), dtype=np.intp)
        blocks[:, :d] = shared if shared is not None else np.argsort(
            ranks[:, samples[tree]], axis=2, kind="stable").transpose(1, 0, 2)
        blocks[:, d] = np.arange(n)
        blocks += n * tree[:, None, None]  # batch rows
        tables.append(_grow_group(X, ranks, criterion, samples.ravel(), blocks.ravel(), tree,
                                  max_depth, min_leaf, pick))
    return stack_tables(tables)


def _grow_group(X, ranks, criterion, x_row, seg, tree, max_depth, min_leaf, pick) -> NodeTable:
    """grow() for the trees `tree`, whose root blocks are `seg`; x_row maps
    every batch row to its row of X."""
    d, n = X.shape[1], x_row.size // criterion.trees
    size, parent = np.full(tree.size, n), np.full(tree.size, LEAF)
    side = np.zeros(tree.size, dtype=int)
    lr = np.arange(tree.size)  # left-to-right rank within the depth, tree by tree
    levels, depth, first_id = [], 0, 0  # first_id: breadth-first id of the depth's first node
    while tree.size:
        start = np.cumsum((d + 1) * size) - (d + 1) * size
        rows = seg[_ranges(start + d * size, size)]
        row_node = np.repeat(np.arange(tree.size), size)
        value, splittable = criterion.node(rows, row_node, size)
        feature, threshold, gain = np.full(tree.size, LEAF), *np.zeros((2, tree.size))
        levels.append((parent, side, value, feature, threshold, gain))
        ok = splittable & (size >= 2 * min_leaf) & (max_depth is None or depth < max_depth)
        searched = np.flatnonzero(ok)[np.argsort(lr[ok], kind="stable")]
        if searched.size == 0:
            break
        feats = (np.broadcast_to(np.arange(d), (searched.size, d)) if pick is None
                 else pick(np.bincount(tree[searched], minlength=criterion.trees)))
        work = np.cumsum(size[searched] * feats.shape[1])
        runs = np.unique(np.searchsorted(work, np.arange(0, work[-1], _CHUNK), side="right"))
        split, f, cut_at, score = (np.concatenate(column) for column in zip(*(
            _best_cuts(X, ranks, x_row, seg, start, size, value, searched[lo:hi], feats[lo:hi],
                       criterion, min_leaf)
            for lo, hi in zip(runs, np.append(runs[1:], searched.size)))))
        if split.size == 0:
            break
        feature[split], threshold[split], gain[split] = f, cut_at, score
        split.sort()  # children follow their parents' block order
        moving = np.isin(row_node, split)
        r, rn = rows[moving], row_node[moving]
        left = X[x_row[r], feature[rn]] <= threshold[rn]
        code = np.zeros(x_row.size, dtype=np.int8)  # per batch row: 1 goes left, 2 right
        code[r] = 2 - left
        routed = code[seg]
        n_left = np.bincount(rn[left], minlength=tree.size)[split]
        seg = np.concatenate([seg[routed == 1], seg[routed == 2]])  # stable: lefts, then rights
        parent, side = np.tile(first_id + split, 2), np.repeat([0, 1], split.size)
        first_id, depth = first_id + tree.size, depth + 1
        tree, size = np.tile(tree[split], 2), np.concatenate([n_left, size[split] - n_left])
        lr = np.argsort(np.argsort(np.tile(2 * lr[split], 2) + side))
    return _preorder(levels, d)


def _best_cuts(X, ranks, x_row, seg, start, size, value, nodes, feats, criterion, min_leaf):
    """(node, feature, threshold, score) of the taken best cut of each of
    `nodes`, whose candidate features are the rows of feats."""
    m = feats.shape[1]
    seg_feat, seg_len = feats.ravel(), np.repeat(size[nodes], m)  # node by node
    u = seg[_ranges(np.repeat(start[nodes], m) + seg_feat * seg_len, seg_len)]
    xr = x_row[u]
    rank = ranks.ravel()[np.repeat(seg_feat * ranks.shape[1], seg_len) + xr]
    seg_start = np.cumsum(seg_len) - seg_len
    cut = rank[:-1] < rank[1:]  # a value boundary after this position
    cut[seg_start[1:] - 1] = False
    ci = np.flatnonzero(cut)
    per_seg = np.diff(np.searchsorted(ci, seg_start), append=ci.size)
    if min_leaf > 1:
        n_left = ci + 1 - np.repeat(seg_start, per_seg)
        keep = (n_left >= min_leaf) & (np.repeat(seg_len, per_seg) - n_left >= min_leaf)
        per_seg = np.bincount(np.repeat(np.arange(per_seg.size), per_seg)[keep],
                              minlength=per_seg.size)
        ci = ci[keep]
    cuts = per_seg.reshape(-1, m).sum(axis=1)  # per node; ci ascends by node
    scores = criterion.scores(u, m, size[nodes], ci, np.repeat(seg_start, per_seg), cuts,
                              value[nodes])
    has = np.flatnonzero(cuts)  # first maximum per node: lowest feature, then threshold
    top = np.maximum.reduceat(scores, (np.cumsum(cuts) - cuts)[has]) if has.size else scores
    best = np.flatnonzero(scores == np.repeat(top, cuts[has]))
    cut_node = np.searchsorted(np.cumsum(cuts), best, side="right")
    first = np.diff(cut_node, prepend=-1) != 0
    best, cut_node = best[first], cut_node[first]
    taken = scores[best] - criterion.floor > 0.0
    best, cut_node = best[taken], cut_node[taken]
    c, f = ci[best], seg_feat[np.searchsorted(np.cumsum(per_seg), best, side="right")]
    lo, hi = X[xr[c], f], X[xr[c + 1], f]
    threshold = (lo + hi) / 2.0  # unless that rounds up to hi: keep both children non-empty
    return nodes[cut_node], f, np.where(threshold >= hi, lo, threshold), scores[best]


def _preorder(levels, feature_count) -> NodeTable:
    """The breadth-first `levels` of some trees, numbered in preorder tree by tree."""
    parent, side, value, feature, threshold, gain = (np.concatenate(c) for c in zip(*levels))
    ends = np.cumsum([len(level[0]) for level in levels])
    kids = np.full((len(parent), 2), LEAF)
    kids[parent[ends[0]:], side[ends[0]:]] = np.arange(ends[0], len(parent))
    size = np.ones(len(parent), dtype=np.int64)
    for lo, hi in zip(ends[-2::-1], ends[:0:-1]):  # subtree sizes, deepest level first
        np.add.at(size, parent[lo:hi], size[lo:hi])
    pre = np.cumsum(size[:ends[0]]) - size[:ends[0]]  # roots
    pre = np.concatenate([pre, np.empty(len(parent) - ends[0], dtype=np.int64)])
    for lo, hi in zip(ends[:-1], ends[1:]):
        p = parent[lo:hi]
        pre[lo:hi] = pre[p] + 1 + side[lo:hi] * size[kids[p, 0]]
    at = np.argsort(pre)  # breadth-first id of each preorder slot
    kids = np.where(kids[at] == LEAF, LEAF, pre[kids[at]])
    return NodeTable(feature[at], threshold[at], kids[:, 0], kids[:, 1], value[at],
                     pre[:ends[0]], feature_count, gain[at])


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_leaf: int = 1
    feature_subsample: int | None = None  # features considered per split

    def __post_init__(self):  # plain ints: the model file's meta is JSON
        for name, low in (("max_depth", 0), ("min_leaf", 1), ("feature_subsample", 1)):
            value = getattr(self, name)
            if value is not None or name == "min_leaf":
                object.__setattr__(self, name, integer(value, name, low))


class _Gini:
    """CART criterion: class histograms, weighted Gini impurity of the children.

    A cut's score is sum_c L_c^2 / n_L + sum_c R_c^2 / n_R over the class
    counts of its children, taken as one quotient of exact integers, so
    equal weighted impurities score equal. Labels are per batch row.
    """

    floor = -np.inf  # every best cut is taken

    def __init__(self, y, n_classes, trees=1):
        self.k, self.trees = n_classes, trees
        self.y = y.astype(np.min_scalar_type(n_classes - 1))  # small labels sort by radix

    def node(self, rows, row_node, sizes):
        counts = np.bincount(row_node * self.k + self.y[rows], minlength=sizes.size * self.k)
        counts = counts.reshape(sizes.size, self.k)
        return counts, (counts > 0).sum(axis=1) > 1

    def scores(self, rows, width, sizes, ci, base, cuts, counts):
        """Score of every cut. `rows` holds `width` sorted segments of sizes[i]
        rows for each node i; cut ci (ascending) falls after rows[ci] in the
        segment that starts at rows[base]; node i has cuts[i] cuts and value
        row counts[i]."""
        seg = np.repeat(np.arange(sizes.size * width), np.repeat(sizes, width))
        y = self.y[rows]
        order = np.argsort(y, kind="stable")  # by class, then position: segments stay runs
        key = seg * self.k + y
        ordered = key[order]
        run = np.ones(key.size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=run[1:])
        at = np.arange(key.size)
        seen = np.empty_like(at)  # earlier rows of the same class in the segment
        seen[order] = at - np.maximum.accumulate(np.where(run, at, 0))
        squares = np.zeros(key.size + 1, dtype=np.int64)  # running sum_c L_c^2
        np.cumsum(2 * seen + 1, out=squares[1:])
        cross = np.zeros(key.size + 1, dtype=np.int64)  # running sum_c N_c L_c
        np.cumsum(counts.ravel()[seg // width * self.k + y], out=cross[1:])
        n_left = ci + 1 - base
        left_sq = squares[ci + 1] - squares[base]
        right_sq = (np.repeat((counts**2).sum(axis=1), cuts) - 2 * (cross[ci + 1] - cross[base])
                    + left_sq)
        n_right = np.repeat(sizes, cuts) - n_left
        return (left_sq * n_right + right_sq * n_left) / (n_left * n_right)


def _picker(d, m, rngs):
    """`grow`'s candidate draw: at each depth, tree t's generator draws one
    key per (splittable node, feature); a node's candidates are the
    features of its m lowest keys, ascending."""
    if m is None or m >= d:
        return None

    def pick(counts):
        keys = np.concatenate([rng.random((count, d)) for rng, count in zip(rngs, counts) if count])
        return np.sort(np.argsort(keys, axis=1, kind="stable")[:, :m], axis=1)

    return pick


def grow_cart(X, y, n_classes, params: TreeParams, rngs, samples=None) -> NodeTable:
    """One CART tree per generator in `rngs`, grown together, tree t on X
    rows samples[t] (all of X when samples is None). X and y are checked by
    the caller; X is ranked once for every tree."""
    table = grow(
        X, rank_columns(X),
        _Gini(y if samples is None else y[samples].ravel(), n_classes, len(rngs)), samples,
        params.max_depth, params.min_leaf, _picker(X.shape[1], params.feature_subsample, rngs),
    )
    table.gain = None  # a CART split's score is not kept
    return table


def train_tree(X, y, params: TreeParams | None = None, rng=None, n_classes=None) -> NodeTable:
    """Grow one CART tree. Deterministic given the rng state. Inputs are
    checked by labelled_rows.
    """
    X, y, n_classes = labelled_rows(X, y, n_classes)
    return grow_cart(X, y, n_classes, params or TreeParams(), [rng or np.random.default_rng(0)])
