"""Decision trees as flat node tables, grown by one split scan for both families.

A tree is a `NodeTable` numbered in preorder, left child before right,
so every child index exceeds its parent's. Columns are ranked once
(`rank_columns`); each node sorts its rows by rank for all candidate
features at once, and the scan takes prefix sums of per-row statistics
along them and scores every value boundary at its midpoint: class counts
give the weighted Gini impurity (CART, below), gradient and hessian sums
the second-order gain (gbt.py). This is XGBoost's exact greedy split
finder (Chen & Guestrin 2016).

Ties resolve to the lowest feature index, then the lowest threshold, so
a tree is a pure function of (X, statistics, params, rng state). A CART
node may split at zero impurity decrease as long as it is impure and a
valid cut exists; both children are then strictly smaller, which keeps
growth finite and lets depth-2 trees represent XOR.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from ..errors import UsageError
from ._checks import labelled_rows, query_rows

LEAF = -1  # feature and child index of a leaf


@dataclass
class NodeTable:
    """One or more trees as parallel per-node arrays.

    Rows with x[feature] <= threshold go `left`, others `right`; leaves
    have feature, left and right LEAF. `value` has one row per node: the
    class histogram of its training rows (CART) or (weight, g_sum, h_sum)
    (boosted trees, which also keep each split's `gain`, 0 at leaves).
    Tree t runs from roots[t] up to the next root. Every tree reads rows
    of feature_count features.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    feature_count: int
    gain: np.ndarray | None = None

    def apply(self, X) -> np.ndarray:
        """Node index of the leaf each row reaches in each tree: rows x trees."""
        trees = len(self.roots)
        node = np.tile(self.roots, X.shape[0])
        live = np.arange(node.size)
        while live.size:
            at = node[live]
            f = self.feature[at]
            split = f != LEAF
            live, at, f = live[split], at[split], f[split]
            go_left = X[live // trees, f] <= self.threshold[at]
            node[live] = np.where(go_left, self.left[at], self.right[at])
        return node.reshape(X.shape[0], trees)


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


def _best_split(X, ranks, rows, feats, criterion, value, min_leaf):
    """Best (score, feature, threshold) over every value boundary of the
    candidate features, or None when no valid cut exists."""
    rank = ranks[feats[:, None], rows]
    order = np.argsort(rank, axis=1, kind="stable")
    ordered = rows[order]  # candidate features x node rows, by value then row
    rank = np.take_along_axis(rank, order, axis=1)
    fi, ci = np.nonzero(rank[:, :-1] < rank[:, 1:])  # cut after sorted position ci
    if min_leaf > 1:
        keep = (ci + 1 >= min_leaf) & (len(rows) - 1 - ci >= min_leaf)
        fi, ci = fi[keep], ci[keep]
    if fi.size == 0:
        return None
    scores = criterion.scores(ordered, fi, ci, value)
    best = int(np.argmax(scores))  # first maximum: lowest feature, then lowest threshold
    f, c = feats[fi[best]], ci[best]
    lo, hi = X[ordered[fi[best], c], f], X[ordered[fi[best], c + 1], f]
    threshold = float((lo + hi) / 2.0)
    if threshold >= hi:  # adjacent floats or overflow: keep both children non-empty
        threshold = float(lo)
    return float(scores[best]), int(f), threshold


def grow(X, ranks, criterion, max_depth=None, min_leaf=1, pick_features=None) -> NodeTable:
    """Grow one tree in preorder, left child before right, from an explicit stack.

    `ranks` is rank_columns(X). The criterion gives each node's value row
    and whether it may split (`node(rows)`), every candidate cut's score,
    higher being better (`scores(ordered, fi, ci, value)`), and whether
    the best cut is taken (`accept(score)`). `pick_features()` draws a
    splitting node's candidate features; by default all.
    """
    nodes = []  # [feature, threshold, left, right, value, gain]
    stack = [(None, 0, 0, np.arange(X.shape[0]))]
    while stack:
        parent, side, depth, rows = stack.pop()  # rows ascending
        if parent is not None:
            nodes[parent][side] = len(nodes)
        value, splittable = criterion.node(rows)
        nodes.append([LEAF, 0.0, LEAF, LEAF, value, 0.0])
        if not splittable or len(rows) < 2 * min_leaf:
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        feats = pick_features() if pick_features else np.arange(X.shape[1])
        best = _best_split(X, ranks, rows, feats, criterion, value, min_leaf)
        if best is None or not criterion.accept(best[0]):
            continue
        node = nodes[-1]
        node[5], node[0], node[1] = best
        go_left = X[rows, node[0]] <= node[1]
        stack.append((len(nodes) - 1, 3, depth + 1, rows[~go_left]))
        stack.append((len(nodes) - 1, 2, depth + 1, rows[go_left]))
    feature, threshold, left, right, values, gains = zip(*nodes)
    return NodeTable(
        np.array(feature), np.array(threshold), np.array(left), np.array(right),
        np.array(values), np.zeros(1, dtype=np.int64), X.shape[1], np.array(gains),
    )


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_leaf: int = 1
    feature_subsample: int | None = None  # features considered per split

    def __post_init__(self):
        if self.max_depth is not None and (
                not isinstance(self.max_depth, numbers.Integral) or self.max_depth < 0):
            raise UsageError(f"max_depth must be None or an integer >= 0, got {self.max_depth!r}")
        if not isinstance(self.min_leaf, numbers.Integral) or self.min_leaf < 1:
            raise UsageError(f"min_leaf must be an integer >= 1, got {self.min_leaf!r}")


class _Gini:
    """CART criterion: class histograms, weighted Gini impurity of the children."""

    def __init__(self, y, n_classes):
        self.y, self.k = y, n_classes

    def node(self, rows):
        counts = np.bincount(self.y[rows], minlength=self.k)
        return counts, 1.0 - float(((counts / len(rows)) ** 2).sum()) != 0.0

    def scores(self, ordered, fi, ci, counts):
        """Negated weighted impurity of the two children at each cut."""
        f, n = ordered.shape
        prefix = np.zeros((n, f, self.k), dtype=np.int32)  # one-hots, then class prefixes
        cells = (np.arange(n)[:, None] * f + np.arange(f)) * self.k + self.y[ordered].T
        prefix.reshape(-1)[cells] = 1
        np.cumsum(prefix, axis=0, out=prefix)
        left = np.take(prefix.reshape(-1, self.k), ci * f + fi, axis=0).astype(np.float64)
        right = counts - left
        n_left = (ci + 1).astype(np.float64)
        n_right = n - n_left
        left /= n_left[:, None]
        right /= n_right[:, None]
        gini_left = 1.0 - np.square(left, out=left).sum(axis=1)
        gini_right = 1.0 - np.square(right, out=right).sum(axis=1)
        return -((n_left * gini_left + n_right * gini_right) / n)

    def accept(self, score):
        return True


def _pick_features(d, params: TreeParams, rng) -> np.ndarray:
    m = params.feature_subsample
    if m is None or m >= d:
        return np.arange(d)
    return np.sort(rng.choice(d, size=m, replace=False))


def train_tree(
    X, y, params: TreeParams | None = None, rng=None, n_classes=None, ranks=None
) -> NodeTable:
    """Grow one CART tree. Deterministic given the rng state. `ranks`, when
    given, is rank_columns(X), or a superset's ranks taken at X's rows.
    Inputs are checked by labelled_rows.
    """
    X, y, n_classes = labelled_rows(X, y, n_classes)
    params = params or TreeParams()
    rng = rng or np.random.default_rng(0)
    tree = grow(
        X, rank_columns(X) if ranks is None else ranks, _Gini(y, n_classes),
        params.max_depth, params.min_leaf, lambda: _pick_features(X.shape[1], params, rng),
    )
    tree.gain = None  # a CART split's score is not kept
    return tree


def tree_predict(tree: NodeTable, X) -> np.ndarray:
    """Labels from a table's first tree: argmax of each leaf histogram,
    ties to the lowest class."""
    leaves = tree.apply(query_rows(X, tree.feature_count))[:, 0]
    return np.argmax(tree.value[leaves], axis=1).astype(np.int64)
