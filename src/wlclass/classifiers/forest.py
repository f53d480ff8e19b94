"""Bagged CART forests with sqrt-feature subsampling and majority vote.

Tree t gets its own generator derived from (seed, t). It draws the
tree's bootstrap sample, then its candidate features depth by depth, so
each tree depends on (seed, t) alone: the model is byte-identical across
runs, and a smaller forest is a prefix of a larger one. All the trees
grow together (tree.grow) into one node table, and prediction walks all
of them at once; one row on a table of at most 4096 nodes is labelled
from its next node at every node instead (NodeTable.apply).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .._checks import integer, labelled_rows, query_rows
from .tree import NodeTable, TreeParams, grow_cart
from .tree import train_tree  # noqa: F401  perfbench/tracer.py hooks it by this module's name


@dataclass
class ForestModel:
    table: NodeTable  # every tree; value rows are class histograms
    seed: int
    class_count: int
    max_depth: int | None = None
    min_leaf: int = 1
    node_labels: np.ndarray = field(init=False, repr=False)  # argmax of each value row

    def __post_init__(self):
        self.node_labels = np.argmax(self.table.value, axis=1)

    @property
    def feature_count(self) -> int:
        return self.table.feature_count

    @property
    def n_trees(self) -> int:
        return len(self.table.roots)

    def predict(self, X) -> np.ndarray:
        """Majority vote over trees; ties go to the lowest class index."""
        return np.argmax(forest_votes(self, X), axis=1).astype(np.int64)


def train_forest(
    X,
    y,
    n_trees: int,
    seed: int,
    max_depth: int | None = None,
    min_leaf: int = 1,
    n_classes: int | None = None,
) -> ForestModel:
    """Train n_trees CART trees on size-N bootstrap samples. Inputs are
    checked by labelled_rows.

    Raises:
        UsageError: n_trees, seed, max_depth or min_leaf not an integer in range.
    """
    n_trees, seed = integer(n_trees, "n_trees", 1), integer(seed, "seed", 0)
    X, y, n_classes = labelled_rows(X, y, n_classes)
    d = X.shape[1]
    params = TreeParams(
        max_depth=max_depth,
        min_leaf=min_leaf,
        feature_subsample=max(1, int(math.sqrt(d))),
    )
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, t])) for t in range(n_trees)]
    samples = np.stack([rng.integers(0, len(y), size=len(y)) for rng in rngs])
    return ForestModel(
        table=grow_cart(X, y, n_classes, params, rngs, samples),
        seed=seed,
        class_count=n_classes,
        max_depth=params.max_depth,
        min_leaf=params.min_leaf,
    )


def forest_votes(model: ForestModel, X) -> np.ndarray:
    """Per-class vote counts, one row per input row."""
    X = query_rows(X, model.feature_count)
    n, k = X.shape[0], model.class_count
    cells = model.node_labels.take(model.table.apply(X))
    if n > 1:  # row r votes in cells r * k + label
        cells = cells + np.arange(n)[:, None] * k
    return np.bincount(cells.ravel(), minlength=n * k).reshape(n, k)
