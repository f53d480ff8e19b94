import hashlib

import numpy as np
import pytest

from wlclass.classifiers import (
    GbtParams,
    deserialize_model,
    feature_importance_report,
    predict,
    serialize_model,
    train_gbt,
)
from wlclass.classifiers.tree import LEAF
from wlclass.errors import EmptyInputError, ShapeMismatchError, UsageError
from wlclass.features import covariance_feature_matrix, fit_standardizer
from wlclass.synth import default_26_class_spec, generate_corpus
from wlclass.windowing import WindowPolicy, extract_window


def leaves(model):
    """Boolean mask of the leaves of every tree in the model's node table."""
    return model.table.feature == LEAF


class TestGbtTraining:
    def data(self, seed=0, n=40):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] + 0.2 * rng.normal(size=n) > 0).astype(np.int64)
        return X, y

    def test_infinite_gamma_prunes_everything(self):
        X, y = self.data()
        model = train_gbt(X, y, GbtParams(rounds=3, gamma=float("inf")))
        assert leaves(model).all()
        # constant scores: one prediction for every input
        assert len(np.unique(predict(model, X))) == 1

    def test_single_round_depth_one_hand_oracle(self):
        # 4 points on a line, binary labels, lambda = alpha = 0
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        params = GbtParams(rounds=1, max_depth=1, reg_lambda=0.0, alpha=0.0, gamma=0.0)
        model = train_gbt(X, y, params)
        # initial scores 0 -> p = 0.5 everywhere
        # class-0 tree: g_i = 0.5 - [y_i == 0], h_i = 0.25
        # left leaf {1,2}: G = -1.0, H = 0.5 -> w = 2.0; right leaf {3,4}: G = 1.0 -> w = -2.0
        t = model.table
        tree0 = model.rounds[0][0]
        assert t.feature[tree0] == 0 and t.threshold[tree0] == 2.5
        np.testing.assert_allclose(t.value[t.left[tree0], 0], 2.0, rtol=1e-12)
        np.testing.assert_allclose(t.value[t.right[tree0], 0], -2.0, rtol=1e-12)
        tree1 = model.rounds[0][1]
        np.testing.assert_allclose(t.value[t.left[tree1], 0], -2.0, rtol=1e-12)
        np.testing.assert_allclose(t.value[t.right[tree1], 0], 2.0, rtol=1e-12)
        # the split's recorded gain: 0.5 * (1/0.5 + 1/0.5 - 0/1) = 2.0
        np.testing.assert_allclose(t.gain[tree0], 2.0, rtol=1e-12)

    def test_alpha_sweep_shrinks_leaf_weights(self):
        X, y = self.data(seed=1)
        weights = []
        for alpha in (0.0, 0.5, 1.0, 2.0):
            model = train_gbt(X, y, GbtParams(rounds=1, alpha=alpha))
            weights.append(model.table.value[leaves(model), 0])
        for previous, current in zip(weights, weights[1:]):
            assert len(previous) == len(current)  # alpha does not change structure
            assert (np.abs(current) <= np.abs(previous) + 1e-12).all()

    def test_gain_gate(self):
        X, y = self.data(seed=2, n=80)
        gamma = 0.4
        model = train_gbt(X, y, GbtParams(rounds=4, gamma=gamma))
        splits = ~leaves(model)
        assert splits.any()
        assert (model.table.gain[splits] > gamma).all()

    def test_leaf_formula_reproducible_from_stats(self):
        X, y = self.data(seed=3, n=60)
        params = GbtParams(rounds=3, alpha=0.3, reg_lambda=2.0)
        model = train_gbt(X, y, params)
        for weight, g, h in model.table.value[leaves(model)]:
            shrunk = max(abs(g) - params.alpha, 0.0)
            expected = -np.sign(g) * shrunk / (h + params.reg_lambda) if h + params.reg_lambda > 0 else 0.0
            np.testing.assert_allclose(weight, expected, atol=1e-10)

    def test_score_shift_leaves_argmax_unchanged(self):
        X, y = self.data(seed=4)
        model = train_gbt(X, y, GbtParams(rounds=5))
        scores = model.predict_scores(X)
        shifted = scores + 3.7
        np.testing.assert_array_equal(
            np.argmax(scores, axis=1), np.argmax(shifted, axis=1)
        )

    def test_training_loss_decreases(self):
        X, y = self.data(seed=5, n=100)
        model = train_gbt(X, y, GbtParams(rounds=10))
        losses = model.train_loss
        assert len(losses) == 10
        assert losses[-1] < losses[0]

    def test_fits_separable_data(self):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(c, 0.5, size=(20, 2)) for c in (0.0, 5.0, 10.0)])
        y = np.repeat(np.arange(3), 20)
        model = train_gbt(X, y, GbtParams(rounds=10))
        assert (predict(model, X) == y).mean() == 1.0

    def test_multiclass_tree_count(self):
        X, y = self.data(seed=7)
        y = y + np.where(np.arange(len(y)) % 5 == 0, 2, 0)  # classes 0,1,2,3
        model = train_gbt(X, y, GbtParams(rounds=4))
        assert len(model.rounds) == 4
        assert all(len(rt) == model.class_count for rt in model.rounds)
        assert model.class_count == 4

    def test_determinism(self):
        X, y = self.data(seed=8)
        a = serialize_model(train_gbt(X, y, GbtParams(rounds=3)))
        b = serialize_model(train_gbt(X, y, GbtParams(rounds=3)))
        assert a == b

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            train_gbt(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))

    def test_param_validation(self):
        with pytest.raises(UsageError):
            GbtParams(rounds=0)
        with pytest.raises(UsageError):
            GbtParams(learning_rate=0.0)
        with pytest.raises(UsageError):
            GbtParams(alpha=-1.0)
        with pytest.raises(UsageError):  # model files store only +inf
            GbtParams(gamma=float("-inf"))
        for bad in ({"learning_rate": np.inf}, {"learning_rate": np.nan}, {"alpha": np.nan},
                    {"alpha": np.inf}, {"reg_lambda": np.inf}, {"reg_lambda": np.nan},
                    {"gamma": np.nan}):
            with pytest.raises(UsageError):
                GbtParams(**bad)
        assert GbtParams(gamma=np.inf).gamma == np.inf  # never split
        for bad in ({"base_score": np.nan}, {"base_score": np.inf}, {"learning_rate": True},
                    {"learning_rate": 10**400}):  # no float holds it
            with pytest.raises(UsageError, match=next(iter(bad))):
                GbtParams(**bad)

    @pytest.mark.parametrize("name", ["rounds", "max_depth"])
    def test_integer_params_refuse_bools_and_save_numpy_ints(self, name):
        """A bool is refused (a model trained with rounds=True could not be
        loaded); a NumPy integer is stored as a plain int, so its model saves."""
        with pytest.raises(UsageError, match=name):
            GbtParams(**{name: True})
        params = GbtParams(**{name: np.int32(2)})
        assert type(getattr(params, name)) is int
        X, y = self.data(seed=3)
        loaded, _ = deserialize_model(serialize_model(train_gbt(X, y, params)))
        assert loaded.params == params

    @pytest.mark.parametrize("name", ["learning_rate", "gamma", "alpha", "reg_lambda",
                                      "base_score"])
    def test_float_params_save_numpy_floats(self, name):
        """A NumPy float is stored as a plain float, so its model saves and loads."""
        params = GbtParams(rounds=2, **{name: np.float32(0.5)})
        assert type(getattr(params, name)) is float
        X, y = self.data(seed=3)
        loaded, _ = deserialize_model(serialize_model(train_gbt(X, y, params)))
        assert loaded.params == params

    def test_predict_shape_check(self):
        X, y = self.data(seed=9)
        model = train_gbt(X, y, GbtParams(rounds=1))
        with pytest.raises(ShapeMismatchError):
            predict(model, np.zeros((4, 9)))

    def test_empty_query(self):
        X, y = self.data(seed=10)
        model = train_gbt(X, y, GbtParams(rounds=1))
        assert predict(model, np.zeros((0, 3))).shape == (0,)


class TestFeatureImportance:
    def test_zero_splits_empty_ranking(self):
        X = np.zeros((10, 4))
        y = np.array([0, 1] * 5)
        model = train_gbt(X, y, GbtParams(rounds=2))
        assert feature_importance_report(model, ["a", "b", "c", "d"]) == []

    def test_single_informative_feature_ranks_first(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(120, 6))
        y = (X[:, 3] > 0).astype(np.int64)
        model = train_gbt(X, y, GbtParams(rounds=5, max_depth=3))
        names = [f"feat{i}" for i in range(6)]
        report = feature_importance_report(model, names)
        assert report[0][0] == "feat3"

    def test_counts_and_gains_match_tree_walk(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
        model = train_gbt(X, y, GbtParams(rounds=3))
        counts = np.zeros(4, dtype=int)
        gains = np.zeros(4)
        t = model.table
        for node in np.flatnonzero(~leaves(model)):
            counts[t.feature[node]] += 1
            gains[t.feature[node]] += t.gain[node]
        np.testing.assert_array_equal(model.split_counts, counts)
        np.testing.assert_allclose(model.split_gains, gains, rtol=1e-12)

    def test_name_count_checked(self):
        X, y = np.zeros((6, 3)), np.array([0, 1] * 3)
        model = train_gbt(X, y, GbtParams(rounds=1))
        with pytest.raises(ShapeMismatchError):
            feature_importance_report(model, ["only", "two"])


#: sha256 of serialize_model(train_gbt(...)) on cov_matrix(). Boosting draws
#: no random numbers, so these bytes hold however the trees are grown.
PINNED_MODELS = {
    "defaults": ({}, "c23d06028772ee9e68def830073da3029a9f6dbec1d1fda65f437072f3ff3ed4"),
    "depth 3, gamma/alpha/lambda": (
        {"max_depth": 3, "gamma": 0.05, "alpha": 0.1, "reg_lambda": 2.0},
        "619562cbdeeb71fda2e22ff4893ab65bc1af41899f315f2103373ca4a77d6dad"),
}


def cov_matrix():
    """Covariance features of a seeded 26-class corpus: 181 rows x 28."""
    trials = generate_corpus(default_26_class_spec(seed=7, scale=0.05))
    x = np.stack([extract_window(t, WindowPolicy("middle", length=540)).data for t in trials])
    return covariance_feature_matrix(x, fit_standardizer(x)), np.array([t.label for t in trials])


@pytest.mark.parametrize("setting", sorted(PINNED_MODELS))
def test_models_keep_their_pinned_bytes(setting):
    X, y = cov_matrix()
    params, digest = PINNED_MODELS[setting]
    assert X.shape == (181, 28) and len(np.unique(y)) == 26
    model = train_gbt(X, y, GbtParams(**params))
    assert hashlib.sha256(serialize_model(model)).hexdigest() == digest
