"""Bagged CART forests with sqrt-feature subsampling and majority vote.

Each tree gets its own generator derived from (seed, tree_index), so the
model is byte-identical across runs. The trees are stacked into one node
table, and prediction walks all of them at once.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import UsageError
from ._checks import labelled_rows, query_rows
from .tree import NodeTable, TreeParams, rank_columns, stack_tables, train_tree


@dataclass
class ForestModel:
    table: NodeTable  # every tree; value rows are class histograms
    n_trees: int
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

    def predict(self, X) -> np.ndarray:
        return predict_forest(self, X)


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
        UsageError: n_trees < 1, or max_depth or min_leaf out of range.
    """
    if n_trees < 1:
        raise UsageError(f"n_trees must be >= 1, got {n_trees}")
    X, y, n_classes = labelled_rows(X, y, n_classes)
    d = X.shape[1]
    params = TreeParams(
        max_depth=max_depth,
        min_leaf=min_leaf,
        feature_subsample=max(1, int(math.sqrt(d))),
    )
    ranks = rank_columns(X)  # ranked once; each bootstrap sample takes its columns
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        sample = rng.integers(0, len(y), size=len(y))
        trees.append(train_tree(X[sample], y[sample], params, rng=rng, n_classes=n_classes,
                                ranks=ranks[:, sample]))
    return ForestModel(
        table=stack_tables(trees),
        n_trees=n_trees,
        seed=seed,
        class_count=n_classes,
        max_depth=max_depth,
        min_leaf=min_leaf,
    )


def forest_votes(model: ForestModel, X) -> np.ndarray:
    """Per-class vote counts, one row per input row."""
    X = query_rows(X, model.feature_count)
    n, k = X.shape[0], model.class_count
    labels = model.node_labels[model.table.apply(X)]
    cells = (np.arange(n)[:, None] * k + labels).ravel()
    return np.bincount(cells, minlength=n * k).reshape(n, k)


def predict_forest(model: ForestModel, X) -> np.ndarray:
    """Majority vote over trees; ties go to the lowest class index."""
    return np.argmax(forest_votes(model, X), axis=1).astype(np.int64)
