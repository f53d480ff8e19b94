"""Regularized gradient-boosted regression trees with a softmax objective.

Every boosting round fits one tree per class to the current gradient and
hessian statistics (g = p - y, h = p(1 - p)). Split gain follows the
second-order formulation: recorded gain is
half [G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda)], and a
split is accepted only when that exceeds gamma. Leaf weights apply the
l1 soft threshold: -sign(G) max(|G|-alpha, 0) / (H+lambda). Per-feature
importance (split counts and summed gains) is derived from the trees.

The class trees of a round share X, its one rank encoding and the
round's probabilities, so they grow together as one tree.grow batch.
Every node's sums and prefix sums add the same numbers in the same order
as growing each tree alone would. The model keeps all trees in one node
table.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .._checks import integer, labelled_rows, query_rows, real
from ..errors import ShapeMismatchError
from .tree import LEAF, NodeTable, grow, rank_columns, stack_tables


@dataclass(frozen=True)
class GbtParams:
    rounds: int = 40
    learning_rate: float = 0.3
    max_depth: int = 6
    gamma: float = 0.0  # minimum loss reduction to split; inf never splits
    alpha: float = 0.0  # l1 on leaf weights
    reg_lambda: float = 1.0  # l2 on leaf weights
    base_score: float = 0.0

    def __post_init__(self):  # plain values: the model file's meta is JSON
        checked = {
            "rounds": integer(self.rounds, "rounds", 1),
            "learning_rate": real(self.learning_rate, "learning_rate", 0, above=True),
            "max_depth": integer(self.max_depth, "max_depth", 0),
            "gamma": math.inf if self.gamma == math.inf else real(self.gamma, "gamma", 0),
            "alpha": real(self.alpha, "alpha", 0),
            "reg_lambda": real(self.reg_lambda, "reg_lambda", 0),
            "base_score": real(self.base_score, "base_score"),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)


@dataclass
class GbtModel:
    table: NodeTable  # every tree, round by round, class by class
    params: GbtParams
    class_count: int
    train_loss: list  # per-round multiclass log-loss

    @property
    def rounds(self) -> np.ndarray:
        """rounds[r][c] is the root node of the round-r tree for class c."""
        return self.table.roots.reshape(-1, self.class_count)

    @property
    def feature_count(self) -> int:
        return self.table.feature_count

    @cached_property
    def split_counts(self) -> np.ndarray:  # per feature, over all trees
        split = self.table.feature != LEAF
        return np.bincount(self.table.feature[split], minlength=self.feature_count)

    @cached_property
    def split_gains(self) -> np.ndarray:  # per feature, summed recorded gain
        split = self.table.feature != LEAF
        return np.bincount(self.table.feature[split], weights=self.table.gain[split],
                           minlength=self.feature_count)

    def predict_scores(self, X) -> np.ndarray:
        X = query_rows(X, self.feature_count)
        scores = np.full((X.shape[0], self.class_count), self.params.base_score)
        weights = self.table.value[self.table.apply(X), 0].reshape(
            X.shape[0], len(self.rounds), self.class_count)
        for r in range(len(self.rounds)):  # round by round, as in training
            scores += self.params.learning_rate * weights[:, r]
        return scores

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_scores(X), axis=1).astype(np.int64)


def _leaf_weight(g, h, alpha, lam):
    """-sign(g) max(|g| - alpha, 0) / (h + lam), 0 where h + lam is not positive."""
    denom = h + lam
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = -np.copysign(np.maximum(np.abs(g) - alpha, 0.0), g) / denom
    return np.where(denom > 0.0, weight, 0.0)


def _gain_term(g, h, lam):
    denom = h + lam
    return np.where(denom > 0.0, g * g / np.where(denom > 0.0, denom, 1.0), 0.0)


class _Gain:
    """Boosting criterion: leaf weights from (g, h) sums, second-order split
    gain, taken above gamma. g and h have one row per class tree. A node's
    sums run over its rows in ascending order, and a prefix sum along one
    feature's order within one node, as if each tree were grown alone."""

    def __init__(self, g, h, params: GbtParams):
        self.g, self.h, self.params, self.trees = g.ravel(), h.ravel(), params, len(g)
        self.floor = params.gamma

    def node(self, rows, row_node, sizes):
        g, h, ends = self.g[rows], self.h[rows], np.cumsum(sizes).tolist()
        sums = np.array([(g[lo:hi].sum(), h[lo:hi].sum()) for lo, hi in zip([0] + ends[:-1], ends)])
        weight = _leaf_weight(sums[:, 0], sums[:, 1], self.params.alpha, self.params.reg_lambda)
        return np.column_stack([weight, sums]), np.ones(sizes.size, dtype=bool)

    def scores(self, rows, width, sizes, ci, base, cuts, value):
        """Recorded gain at each cut; see _Gini.scores for the arguments."""
        g, h, lo = self.g[rows], self.h[rows], 0
        for size in sizes.tolist():  # prefix sums along each candidate feature of each node
            for stat in (g, h):
                block = stat[lo:lo + width * size].reshape(width, size)
                np.cumsum(block, axis=1, out=block)
            lo += width * size
        lam = self.params.reg_lambda
        g_prefix, h_prefix = g[ci], h[ci]
        gain = _gain_term(g_prefix, h_prefix, lam)
        gain += _gain_term(np.repeat(value[:, 1], cuts) - g_prefix,
                           np.repeat(value[:, 2], cuts) - h_prefix, lam)
        gain -= np.repeat(_gain_term(value[:, 1], value[:, 2], lam), cuts)
        gain *= 0.5
        return gain


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _log_loss(proba: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(proba[np.arange(len(y)), y], 1e-15, 1.0)
    return float(-np.log(p).mean())


def train_gbt(X, y, params: GbtParams | None = None, n_classes: int | None = None) -> GbtModel:
    """Boost class_count regression trees per round on softmax gradients.
    Inputs are checked by labelled_rows; the softmax needs at least two
    classes, so a single-label y trains two.
    """
    X, y, n_classes = labelled_rows(X, y, n_classes)
    n_classes = max(n_classes, 2)
    params = params or GbtParams()
    n = X.shape[0]
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    scores = np.full((n, n_classes), params.base_score)
    ranks = rank_columns(X)  # every tree splits the same X
    rounds, losses = [], []
    for _ in range(params.rounds):
        proba = _softmax(scores).T  # the round's class trees are grown together
        trees = grow(X, ranks, _Gain(proba - onehot.T, proba * (1.0 - proba), params),
                     max_depth=params.max_depth)
        scores += params.learning_rate * trees.value[trees.apply(X), 0]
        rounds.append(trees)
        losses.append(_log_loss(_softmax(scores), y))
    return GbtModel(table=stack_tables(rounds), params=params, class_count=n_classes,
                    train_loss=losses)


def feature_importance_report(model: GbtModel, feature_names) -> list:
    """Features that split at least once, ranked by count then total gain.

    Returns (name, split_count, total_gain) tuples.
    """
    if len(feature_names) != model.feature_count:
        raise ShapeMismatchError(
            f"{len(feature_names)} names for {model.feature_count} features"
        )
    ranked = [
        (name, int(count), float(gain))
        for name, count, gain in zip(feature_names, model.split_counts, model.split_gains)
        if count > 0
    ]
    ranked.sort(key=lambda item: (-item[1], -item[2], item[0]))
    return ranked
