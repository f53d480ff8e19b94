import hashlib

import numpy as np
import pytest

from wlclass.classifiers import (
    ForestModel,
    GbtParams,
    NodeTable,
    TreeParams,
    deserialize_model,
    forest_votes,
    predict,
    serialize_model,
    stack_tables,
    train_forest,
    train_gbt,
    train_tree,
)
from wlclass.classifiers import tree as tree_module
from wlclass.classifiers.tree import LEAF
from wlclass.cli import main, write_feature_set
from wlclass.errors import EmptyInputError, ShapeMismatchError, UsageError


def is_leaf(tree, node):
    return tree.feature[node] == LEAF


def tree_labels(tree, X):
    """Labels of a one-tree table, through a one-tree forest's predict."""
    return ForestModel(table=tree, seed=0, class_count=tree.value.shape[1]).predict(X)


def tree_nodes(table, t):
    """Node index range of tree t of a stacked table."""
    bounds = list(table.roots) + [len(table.feature)]
    return range(bounds[t], bounds[t + 1])


def tree_arrays(table, t):
    """Tree t of a stacked table as (feature, threshold, left, right, value),
    its children numbered from its own root."""
    nodes = tree_nodes(table, t)
    left, right = (np.where(c[nodes] == LEAF, LEAF, c[nodes] - nodes.start)
                   for c in (table.left, table.right))
    return table.feature[nodes], table.threshold[nodes], left, right, table.value[nodes]


def assert_same_tree(a, b):
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def walk_leaf(table, root, x):
    """Follow one row from a root to its leaf, one node at a time."""
    node = root
    while not is_leaf(table, node):
        go_left = x[table.feature[node]] <= table.threshold[node]
        node = table.left[node] if go_left else table.right[node]
    return node


def gini_scan_oracle(X, y, n_classes):
    """Brute-force best split: lowest weighted impurity, ties to lowest feature then threshold."""
    n = len(y)

    def gini(labels):
        if len(labels) == 0:
            return 0.0
        counts = np.bincount(labels, minlength=n_classes)
        return 1.0 - ((counts / len(labels)) ** 2).sum()

    best = None
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for a, b in zip(values[:-1], values[1:]):
            threshold = (a + b) / 2.0
            mask = X[:, f] <= threshold
            weighted = (mask.sum() * gini(y[mask]) + (~mask).sum() * gini(y[~mask])) / n
            if best is None or weighted < best[0]:
                best = (weighted, f, threshold)
    return best


class TestTree:
    def test_single_class_is_leaf(self):
        tree = train_tree(np.random.default_rng(0).normal(size=(10, 3)), np.zeros(10))
        assert is_leaf(tree, 0)
        assert tree.value[0][0] == 10

    def test_one_dimensional_threshold(self):
        tree = train_tree(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([0, 0, 1, 1]))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 2.5
        assert is_leaf(tree, tree.left[0]) and is_leaf(tree, tree.right[0])

    def test_root_split_matches_scan_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            n = int(rng.integers(6, 40))
            d = int(rng.integers(1, 5))
            n_classes = int(rng.integers(2, 4))
            X = np.round(rng.normal(size=(n, d)), 2)
            y = rng.integers(0, n_classes, size=n)
            if len(np.unique(y)) < 2:
                continue
            tree = train_tree(X, y, n_classes=n_classes)
            expected = gini_scan_oracle(X, y, n_classes)
            if expected is None:
                assert is_leaf(tree, 0)
            else:
                assert (tree.feature[0], tree.threshold[0]) == (expected[1], expected[2])

    def test_xor_fits_at_depth_two(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        tree = train_tree(X, y, TreeParams(max_depth=2))
        np.testing.assert_array_equal(tree_labels(tree, X), y)

    def test_memorizes_consistent_data(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 5, size=60)
        tree = train_tree(X, y)
        np.testing.assert_array_equal(tree_labels(tree, X), y)

    def test_routing_consistency(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        tree = train_tree(X, y)

        def walk(node, idx):
            assert tree.value[node].sum() == len(idx)
            if is_leaf(tree, node):
                return
            assert np.isfinite(tree.threshold[node])
            go_left = X[idx, tree.feature[node]] <= tree.threshold[node]
            assert 0 < go_left.sum() < len(idx)
            walk(tree.left[node], idx[go_left])
            walk(tree.right[node], idx[~go_left])

        walk(0, np.arange(40))

    def test_max_depth_limits_splits(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, size=50)
        tree = train_tree(X, y, TreeParams(max_depth=1))
        for child in (tree.left[0], tree.right[0]):
            assert child == LEAF or is_leaf(tree, child)

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, size=30)
        tree = train_tree(X, y, TreeParams(min_leaf=5))

        def smallest(node):
            if is_leaf(tree, node):
                return int(tree.value[node].sum())
            return min(smallest(tree.left[node]), smallest(tree.right[node]))

        assert smallest(0) >= 5

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            train_tree(np.zeros((0, 3)), np.zeros(0))

    def test_depth_and_leaf_limits_checked(self):
        for bad in ({"max_depth": -1}, {"max_depth": 2.5}, {"min_leaf": 0}, {"min_leaf": -3},
                    {"feature_subsample": 0}, {"feature_subsample": -1},
                    {"feature_subsample": 2.5}):
            with pytest.raises(UsageError, match=next(iter(bad))):
                TreeParams(**bad)
        for name in ("max_depth", "min_leaf", "feature_subsample"):
            with pytest.raises(UsageError, match=name):
                TreeParams(**{name: True})
        assert TreeParams(max_depth=None).max_depth is None
        assert TreeParams(max_depth=0, min_leaf=1).max_depth == 0
        assert TreeParams(feature_subsample=1).feature_subsample == 1
        X, y = np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1])
        with pytest.raises(UsageError, match="max_depth"):
            train_forest(X, y, n_trees=3, seed=0, max_depth=-1)
        with pytest.raises(UsageError, match="min_leaf"):
            train_forest(X, y, n_trees=3, seed=0, min_leaf=0)

    def test_tree_count_and_seed_are_integers(self):
        X, y = np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1])
        for n_trees in (2.5, 0, "3", True):
            with pytest.raises(UsageError, match="n_trees"):
                train_forest(X, y, n_trees=n_trees, seed=0)
        for seed in (1.5, -1, False):
            with pytest.raises(UsageError, match="seed"):
                train_forest(X, y, n_trees=2, seed=seed)
        forest = train_forest(X, y, n_trees=np.int64(2), seed=np.int64(3),
                              max_depth=np.int64(4), min_leaf=np.int64(1))
        loaded, _ = deserialize_model(serialize_model(forest))  # meta holds plain ints
        assert (loaded.n_trees, loaded.seed, loaded.max_depth) == (2, 3, 4)

    def test_adjacent_floats_split_apart(self):
        # the midpoint of these two neighbours rounds up to the larger one
        lo = 1.0 + 2.0**-52
        X = np.array([[lo], [np.nextafter(lo, 2.0)]])
        y = np.array([0, 1])
        tree = train_tree(X, y, TreeParams(max_depth=3))
        assert is_leaf(tree, tree.left[0]) and is_leaf(tree, tree.right[0])
        np.testing.assert_array_equal(tree_labels(tree, X), y)

    def test_candidates_are_drawn_depth_by_depth_left_to_right(self):
        """With one candidate per node, a continuous X and min_leaf 1, every
        impure node splits on the feature of its lowest key."""
        rng = np.random.default_rng(21)
        X, y = rng.normal(size=(80, 6)), rng.integers(0, 3, 80)
        tree = train_tree(X, y, TreeParams(feature_subsample=1), rng=np.random.default_rng(8))
        draws, level, checked = np.random.default_rng(8), [0], 0
        while level:
            impure = [node for node in level if np.count_nonzero(tree.value[node]) > 1]
            keys = draws.random((len(impure), X.shape[1]))
            for node, row in zip(impure, keys):
                assert tree.feature[node] == np.argmin(row)
                checked += 1
            level = [child for node in level if not is_leaf(tree, node)
                     for child in (tree.left[node], tree.right[node])]
        assert checked > 20

    def test_duplicate_rows_conflicting_labels_terminate(self):
        X = np.ones((6, 2))
        y = np.array([0, 1, 0, 1, 0, 1])
        tree = train_tree(X, y)
        assert is_leaf(tree, 0)  # nothing to split on


class TestForest:
    def blobs(self, n_per=20, seed=6):
        rng = np.random.default_rng(seed)
        centers = np.array([[0.0, 0.0], [6.0, 6.0], [0.0, 6.0]])
        X = np.vstack([c + rng.normal(0, 0.5, size=(n_per, 2)) for c in centers])
        y = np.repeat(np.arange(3), n_per)
        return X, y

    def test_single_tree_forest_matches_its_tree(self):
        X, y = self.blobs()
        forest = train_forest(X, y, n_trees=1, seed=0)
        table = forest.table
        np.testing.assert_array_equal(
            predict(forest, X), np.argmax(table.value[table.apply(X)[:, 0]], axis=1))
        assert (predict(forest, X) == y).mean() >= 0.9

    def test_determinism_bytes(self):
        X, y = self.blobs(seed=7)
        a = serialize_model(train_forest(X, y, n_trees=12, seed=3))
        b = serialize_model(train_forest(X, y, n_trees=12, seed=3))
        assert a == b

    def test_different_seeds_differ(self):
        X, y = self.blobs(seed=9)
        a = serialize_model(train_forest(X, y, n_trees=5, seed=1))
        b = serialize_model(train_forest(X, y, n_trees=5, seed=2))
        assert a != b

    def test_vote_count_oracle(self):
        X, y = self.blobs(seed=10)
        forest = train_forest(X, y, n_trees=9, seed=4)
        rng = np.random.default_rng(11)
        queries = rng.normal(3, 3, size=(25, 2))
        votes = forest_votes(forest, queries)
        manual = np.zeros_like(votes)
        table = forest.table
        for root in table.roots:
            for row, x in enumerate(queries):
                manual[row, np.argmax(table.value[walk_leaf(table, root, x)])] += 1
        np.testing.assert_array_equal(votes, manual)
        np.testing.assert_array_equal(predict(forest, queries), np.argmax(manual, axis=1))

    def test_tie_breaks_toward_lowest_class(self):
        def leaf_for(c):
            return NodeTable(
                feature=np.array([LEAF]), threshold=np.zeros(1), left=np.array([LEAF]),
                right=np.array([LEAF]), value=np.eye(3, dtype=np.int64)[c:c + 1] * 5,
                roots=np.zeros(1, dtype=np.int64), feature_count=2,
            )

        forest = ForestModel(table=stack_tables([leaf_for(2), leaf_for(1)]), seed=0, class_count=3)
        assert forest.n_trees == 2
        assert predict(forest, np.zeros((1, 2)))[0] == 1

    def test_all_trees_reference_valid_features(self):
        X, y = self.blobs(seed=12)
        forest = train_forest(X, y, n_trees=6, seed=9)
        table = forest.table
        for t in range(forest.n_trees):
            for node in tree_nodes(table, t):
                if not is_leaf(table, node):
                    assert 0 <= table.feature[node] < forest.feature_count

    def test_feature_subsample_is_sqrt(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(80, 16))
        y = (X[:, 0] > 0).astype(int)
        forest = train_forest(X, y, n_trees=30, seed=2)
        used = set(forest.table.feature[forest.table.feature != LEAF].tolist())
        # sqrt(16) = 4 features per split, but across many trees most features appear
        assert len(used) > 4

    def test_empty_query(self):
        X, y = self.blobs(seed=14)
        forest = train_forest(X, y, n_trees=2, seed=0)
        assert predict(forest, np.zeros((0, 2))).shape == (0,)

    def test_preconditions(self):
        X, y = self.blobs(seed=15)
        with pytest.raises(UsageError):
            train_forest(X, y, n_trees=0, seed=0)
        with pytest.raises(EmptyInputError):
            train_forest(np.zeros((0, 2)), np.zeros(0), n_trees=1, seed=0)
        forest = train_forest(X, y, n_trees=2, seed=0)
        with pytest.raises(ShapeMismatchError):
            predict(forest, np.zeros((3, 9)))

    def test_bootstrap_varies_between_trees(self):
        X, y = self.blobs(n_per=40, seed=16)
        forest = train_forest(X, y, n_trees=4, seed=7)
        table = forest.table
        serialized = set()
        for t in range(forest.n_trees):
            nodes = list(tree_nodes(table, t))
            serialized.add((table.feature[nodes].tobytes(), table.threshold[nodes].tobytes(),
                            table.value[nodes].tobytes()))
        assert len(serialized) > 1

    def wide(self, seed=18):
        """Rounded features (so values tie) of which a few carry the label."""
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(90, 9)), 1)
        return X, (X[:, 0] + X[:, 3] > 0).astype(int) + 2 * (rng.random(90) < 0.2)

    def test_smaller_forest_is_a_prefix_of_a_larger(self):
        X, y = self.wide()
        small, large = (train_forest(X, y, n_trees=n, seed=5) for n in (5, 20))
        for t in range(5):
            assert_same_tree(tree_arrays(small.table, t), tree_arrays(large.table, t))

    def test_batched_trees_equal_trees_grown_alone(self):
        X, y = self.wide(seed=19)
        for depth, leaf in ((3, 1), (None, 4), (5, 2)):
            forest = train_forest(X, y, n_trees=6, seed=3, max_depth=depth, min_leaf=leaf)
            for t in range(6):
                rng = np.random.default_rng(np.random.SeedSequence([3, t]))
                sample = rng.integers(0, len(y), size=len(y))
                alone = train_tree(X[sample], y[sample], TreeParams(depth, leaf, 3), rng=rng,
                                   n_classes=forest.class_count)
                assert_same_tree(tree_arrays(forest.table, t), tree_arrays(alone, 0))

    def test_group_and_chunk_sizes_leave_models_unchanged(self, monkeypatch):
        X, y = self.wide(seed=20)

        def models():
            return (serialize_model(train_forest(X, y, n_trees=5, seed=1)),
                    serialize_model(train_gbt(X, y, GbtParams(rounds=2, max_depth=4))))

        expected = models()
        monkeypatch.setattr(tree_module, "_GROUP_CELLS", 1)  # one tree per group
        monkeypatch.setattr(tree_module, "_CHUNK", 1)  # one node per scoring run
        assert models() == expected


def integer_rows(seed, n, d, values):
    """n x d integer features drawn from a seeded Generator and cast to float,
    labelled by integer sums: no floating-point BLAS touches them."""
    X = np.random.default_rng(seed).integers(-values, values, size=(n, d))
    return X.astype(np.float64), (X[:, 0] + X[:, 1] > 0) + 2 * (X[:, 2] % 3 == 0)


#: sha256 of serialize_model(train_forest(X, y, n_trees=8, seed=4, **params)) on
#: integer_rows(*rows): a change to the grower must leave its model files' bytes alone.
PINNED_FORESTS = {
    "default limits": ((31, 120, 6, 50), {},
                       "ed89045a2d31d000a40ea501428511e6c83619627e3d5f5cc9d5afcc7cf17d8f"),
    "depth 3, min_leaf 4": ((32, 120, 6, 50), {"max_depth": 3, "min_leaf": 4},
                            "9396b2504d986c8cd83fbe392e85781a3c0a59f1f33621d4f7ba45e89429198a"),
    "many ties": ((33, 150, 5, 3), {},
                  "831971352da4ce9f7e44d0f8f70484a9610cacb3cfa47f94ec2187c4317b48cd"),
}


@pytest.mark.parametrize("setting", sorted(PINNED_FORESTS))
def test_forests_keep_their_pinned_bytes(setting):
    rows, params, digest = PINNED_FORESTS[setting]
    X, y = integer_rows(*rows)
    model = train_forest(X, y, n_trees=8, seed=4, **params)
    assert hashlib.sha256(serialize_model(model)).hexdigest() == digest


class TestDeepTrees:
    """One feature with alternating labels: every split peels off a sliver, so
    the trees are hundreds of levels deep."""

    def chain(self, n=1000):
        X = np.arange(n, dtype=np.float64)[:, None]
        return X, np.arange(n) % 2

    def test_tree_and_forest_fit_the_training_labels(self):
        X, y = self.chain()
        tree = train_tree(X, y)
        np.testing.assert_array_equal(tree_labels(tree, X), y)
        forest = train_forest(X, y, n_trees=5, seed=0)
        # bagging leaves rows out of each tree, so each tree must fit its own sample
        leaves = forest.table.apply(X)
        for t in range(forest.n_trees):
            sample = np.random.default_rng(np.random.SeedSequence([0, t])).integers(0, 1000, 1000)
            np.testing.assert_array_equal(forest.node_labels[leaves[sample, t]], y[sample])
        assert predict(forest, X).shape == y.shape

    def test_forest_survives_model_file_round_trip(self):
        X, y = self.chain()
        forest = train_forest(X, y, n_trees=5, seed=0)
        raw = serialize_model(forest)
        loaded, _ = deserialize_model(raw)
        np.testing.assert_array_equal(predict(loaded, X), predict(forest, X))
        assert serialize_model(loaded) == raw

    def test_cli_trains_a_forest(self, tmp_path):
        X, y = self.chain()
        feat = tmp_path / "feat.npz"
        write_feature_set(feat, X, y, X[:10], y[:10], {"class_names": ["even", "odd"]})
        assert main(["train", "--in", str(feat), "--model", "rf", "--n-trees", "3",
                     "--out", str(tmp_path / "model.wlc1")]) == 0


def reference_apply(table, X):
    """apply() one row and one tree at a time: follow left or right until LEAF."""
    feature, threshold, left, right = (getattr(table, name).tolist()
                                       for name in ("feature", "threshold", "left", "right"))
    leaves = np.empty((len(X), len(table.roots)), dtype=np.int64)
    for r, x in enumerate(X.tolist()):
        for t, node in enumerate(table.roots.tolist()):
            while left[node] != LEAF:
                node = left[node] if x[feature[node]] <= threshold[node] else right[node]
            leaves[r, t] = node
    return leaves


class TestApply:
    """apply() reaches the reference walk's leaf for every row and tree."""

    def problem(self, seed=21, n=90, d=4):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, d)), 1)
        return X, (X[:, 0] + X[:, 1] > 0).astype(int) + 2 * (rng.random(n) < 0.3)

    def queries(self, table, seed=22):
        """Ordinary rows, rows holding NaN and +-inf, and rows whose every value
        equals some split threshold on its feature."""
        rng = np.random.default_rng(seed)
        d = table.feature_count
        X = np.round(rng.normal(size=(60, d)), 1)
        special = rng.random((40, d))
        odd = np.where(special < 0.2, np.nan, np.where(special < 0.35, np.inf,
                       np.where(special < 0.5, -np.inf, X[:40])))
        split = table.feature != LEAF
        at = [table.threshold[split & (table.feature == f)] for f in range(d)]
        ties = np.array([[rng.choice(at[f]) if at[f].size else 0.0 for f in range(d)]
                         for _ in range(40)])
        return np.vstack([X, odd, ties, np.full((1, d), np.nan), np.full((1, d), np.inf),
                          np.full((1, d), -np.inf)])

    def assert_exact(self, table, X):
        leaves = table.apply(X)
        assert leaves.shape == (len(X), len(table.roots))
        np.testing.assert_array_equal(leaves, reference_apply(table, X))
        return leaves

    def test_forests(self):
        X, y = self.problem()
        for depth, leaf in ((None, 1), (3, 2)):
            forest = train_forest(X, y, n_trees=7, seed=4, max_depth=depth, min_leaf=leaf)
            self.assert_exact(forest.table, self.queries(forest.table))
            self.assert_exact_one_row_at_a_time(forest.table, self.queries(forest.table))

    def test_gbt_stacked_table(self):
        X, y = self.problem(seed=23)
        model = train_gbt(X, y, GbtParams(rounds=4, max_depth=3))
        table = model.table
        assert len(table.roots) == 4 * model.class_count
        self.assert_exact(table, self.queries(table))

    def assert_exact_one_row_at_a_time(self, table, X):
        leaves = np.vstack([table.apply(X[j:j + 1]) for j in range(len(X))])
        np.testing.assert_array_equal(leaves, reference_apply(table, X))

    def test_single_rows_on_a_deep_chain_forest(self):
        """Walks hundreds of levels deep, one row per call: the exit test every
        few steps must neither stop a walk early nor overrun its leaf."""
        X = np.arange(1000, dtype=np.float64)[:, None]
        forest = train_forest(X, np.arange(1000) % 2, n_trees=3, seed=0)
        queries = np.vstack([X[::37], [[-1.0], [999.5], [1e9], [np.nan], [500.5]]])
        self.assert_exact_one_row_at_a_time(forest.table, queries)

    def test_single_rows_on_a_gbt_stack(self):
        X, y = self.problem(seed=24)
        table = train_gbt(X, y, GbtParams(rounds=3, max_depth=4)).table
        self.assert_exact_one_row_at_a_time(table, self.queries(table))

    def test_single_rows_above_the_one_row_cap(self):
        """A table too large for the one-row sweep walks one row as a batch does."""
        X, y = self.problem(seed=28)
        table = train_gbt(X, y, GbtParams(rounds=40, max_depth=6)).table
        assert len(table.feature) > tree_module._ONE_ROW_NODES
        self.assert_exact_one_row_at_a_time(table, self.queries(table))

    def test_one_row_votes_and_scores_equal_the_batch_rows(self):
        X, y = self.problem(seed=29)
        forest = train_forest(X, y, n_trees=6, seed=5)
        gbt = train_gbt(X, y, GbtParams(rounds=3, max_depth=4))
        Q = self.queries(forest.table)
        votes, scores = forest_votes(forest, Q), gbt.predict_scores(Q)
        for j in range(len(Q)):
            np.testing.assert_array_equal(forest_votes(forest, Q[j:j + 1]), votes[j:j + 1])
            assert gbt.predict_scores(Q[j:j + 1]).tobytes() == scores[j:j + 1].tobytes()
        assert forest_votes(forest, Q[:0]).shape == (0, forest.class_count)

    def test_next_table_is_read_only(self):
        X, y = self.problem()
        table = train_forest(X, y, n_trees=2, seed=1).table
        table.apply(X[:1])
        for cached in table._next:
            assert len(cached) == len(table.feature)
            with pytest.raises(ValueError):
                cached[0] = cached[1]

    def test_walk_table_is_read_only(self):
        X, y = self.problem()
        table = train_forest(X, y, n_trees=2, seed=1).table
        table.apply(X[:1])
        for cached in table._walk:
            assert len(cached) == 2 * len(table.feature)
            with pytest.raises(ValueError):
                cached[0] = cached[1]

    def test_loaded_models(self):
        X, y = self.problem(seed=24)
        for model in (train_forest(X, y, n_trees=5, seed=2),
                      train_gbt(X, y, GbtParams(rounds=3, max_depth=4))):
            loaded, _ = deserialize_model(serialize_model(model))
            Q = self.queries(loaded.table)
            np.testing.assert_array_equal(self.assert_exact(loaded.table, Q), model.table.apply(Q))

    def test_one_class_forest_stays_at_its_roots(self):
        X, _ = self.problem(seed=25)
        forest = train_forest(X, np.zeros(len(X), dtype=int), n_trees=3, seed=0)
        assert (forest.table.feature == LEAF).all()
        leaves = self.assert_exact(forest.table, self.queries(forest.table))
        np.testing.assert_array_equal(leaves, np.broadcast_to(forest.table.roots, leaves.shape))
        self.assert_exact_one_row_at_a_time(forest.table, self.queries(forest.table))

    def test_deep_chain(self):
        X, y = TestDeepTrees().chain()
        forest = train_forest(X, y, n_trees=3, seed=0)
        queries = np.vstack([X, X[::7] + 0.5, [[np.nan], [np.inf], [-np.inf]]])
        self.assert_exact(forest.table, queries)

    def test_zero_rows(self):
        X, y = self.problem(seed=26)
        forest = train_forest(X, y, n_trees=4, seed=1)
        assert self.assert_exact(forest.table, np.zeros((0, X.shape[1]))).shape == (0, 4)

    def test_nan_and_inf_routing(self):
        """NaN fails every <= test and goes right, like +inf; -inf goes left."""
        X, y = self.problem(seed=27)
        table = train_forest(X, y, n_trees=4, seed=3).table

        def edge_leaves(child):
            leaves = []
            for node in table.roots.tolist():
                while child[node] != LEAF:
                    node = child[node]
                leaves.append(node)
            return leaves

        d = X.shape[1]
        rows = np.array([[np.nan] * d, [np.inf] * d, [-np.inf] * d])
        np.testing.assert_array_equal(
            table.apply(rows), [edge_leaves(table.right), edge_leaves(table.right),
                                edge_leaves(table.left)])
