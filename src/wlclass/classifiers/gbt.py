"""Regularized gradient-boosted regression trees with a softmax objective.

Every boosting round fits one tree per class to the current gradient and
hessian statistics (g = p - y, h = p(1 - p)). Split gain follows the
second-order formulation: recorded gain is
half [G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda)], and a
split is accepted only when that exceeds gamma. Leaf weights apply the
l1 soft threshold: -sign(G) max(|G|-alpha, 0) / (H+lambda). Split counts
and gains accumulate into per-feature importance.

Trees come from tree.grow over one rank encoding of X that every tree shares,
and the model keeps them stacked in one node table.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatchError, UsageError
from ._checks import labelled_rows, query_rows
from .tree import LEAF, NodeTable, grow, rank_columns, stack_tables


@dataclass(frozen=True)
class GbtParams:
    rounds: int = 40
    learning_rate: float = 0.3
    max_depth: int = 6
    gamma: float = 0.0  # minimum loss reduction to split
    alpha: float = 0.0  # l1 on leaf weights
    reg_lambda: float = 1.0  # l2 on leaf weights
    base_score: float = 0.0

    def __post_init__(self):
        if not isinstance(self.rounds, numbers.Integral) or self.rounds < 1:
            raise UsageError(f"rounds must be an integer >= 1, got {self.rounds!r}")
        if not isinstance(self.max_depth, numbers.Integral) or self.max_depth < 0:
            raise UsageError(f"max_depth must be an integer >= 0, got {self.max_depth!r}")
        if self.learning_rate <= 0:
            raise UsageError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.alpha < 0 or self.reg_lambda < 0 or self.gamma < 0:
            raise UsageError("regularization constants must be non-negative")


@dataclass
class GbtModel:
    table: NodeTable  # every tree, round by round, class by class
    params: GbtParams
    class_count: int
    split_counts: np.ndarray  # per feature
    split_gains: np.ndarray  # per feature, accumulated recorded gain
    train_loss: list  # per-round multiclass log-loss

    @property
    def rounds(self) -> np.ndarray:
        """rounds[r][c] is the root node of the round-r tree for class c."""
        return self.table.roots.reshape(-1, self.class_count)

    @property
    def feature_count(self) -> int:
        return self.table.feature_count

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


def _leaf_weight(g: float, h: float, alpha: float, lam: float) -> float:
    denom = h + lam
    if denom <= 0.0:
        return 0.0
    shrunk = max(abs(g) - alpha, 0.0)
    return -math.copysign(shrunk, g) / denom


def _gain_term(g, h, lam):
    denom = h + lam
    return np.where(denom > 0.0, g * g / np.where(denom > 0.0, denom, 1.0), 0.0)


class _Gain:
    """Boosting criterion: leaf weights from (g, h) sums, second-order split gain."""

    def __init__(self, g, h, params: GbtParams):
        self.g, self.h, self.params = g, h, params

    def node(self, rows):
        g_sum, h_sum = float(self.g[rows].sum()), float(self.h[rows].sum())
        weight = _leaf_weight(g_sum, h_sum, self.params.alpha, self.params.reg_lambda)
        return (weight, g_sum, h_sum), True

    def scores(self, ordered, fi, ci, value):
        """Recorded gain at each cut."""
        _, g_total, h_total = value
        lam = self.params.reg_lambda
        parent_term = float(_gain_term(np.array(g_total), np.array(h_total), lam))
        cuts = fi * ordered.shape[1] + ci
        g_prefix = np.cumsum(self.g[ordered], axis=1).ravel().take(cuts)
        h_prefix = np.cumsum(self.h[ordered], axis=1).ravel().take(cuts)
        return 0.5 * (
            _gain_term(g_prefix, h_prefix, lam)
            + _gain_term(g_total - g_prefix, h_total - h_prefix, lam)
            - parent_term
        )

    def accept(self, gain):
        return gain - self.params.gamma > 0.0


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
    n, d = X.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0
    scores = np.full((n, n_classes), params.base_score)
    ranks = rank_columns(X)  # every tree splits the same X
    trees, losses = [], []
    for _ in range(params.rounds):
        proba = _softmax(scores)
        for c in range(n_classes):
            g = proba[:, c] - onehot[:, c]
            h = proba[:, c] * (1.0 - proba[:, c])
            tree = grow(X, ranks, _Gain(g, h, params), params.max_depth)
            scores[:, c] += params.learning_rate * tree.value[tree.apply(X)[:, 0], 0]
            trees.append(tree)
        losses.append(_log_loss(_softmax(scores), y))
    table = stack_tables(trees)
    split = table.feature[table.feature != LEAF]
    return GbtModel(
        table=table,
        params=params,
        class_count=n_classes,
        split_counts=np.bincount(split, minlength=d),
        split_gains=np.bincount(split, weights=table.gain[table.feature != LEAF], minlength=d),
        train_loss=losses,
    )


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
