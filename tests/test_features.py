import warnings

import numpy as np
import pytest

from wlclass.errors import DegenerateInputError, ShapeMismatchError, UsageError
from wlclass.features import (
    Standardizer,
    apply_standardizer,
    covariance_feature_matrix,
    covariance_feature_names,
    fit_pca,
    fit_standardizer,
    flatten_tensor,
    project_pca,
)
from wlclass.model_selection import FittedReduction, ReductionSpec


class TestStandardizer:
    def test_hand_statistics(self):
        # every sensor sees the pooled values {0, 2, 0, 2}
        x = np.zeros((2, 2, 7))
        x[:, 1, :] = 2.0
        std = fit_standardizer(x)
        np.testing.assert_allclose(std.means, np.ones(7))
        np.testing.assert_allclose(std.stds, np.ones(7))  # population: sqrt(mean of 1)

    def test_constant_sensor_flagged_and_zeroed(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 9, 7))
        x[:, :, 0] = 5.0
        std = fit_standardizer(x)
        assert std.means[0] == 5.0
        assert std.constant[0] and not std.constant[1:].any()
        z = apply_standardizer(std, x)
        np.testing.assert_array_equal(z[:, :, 0], 0.0)

    def test_fit_data_pooled_moments(self):
        rng = np.random.default_rng(2)
        x = rng.normal(3.0, 2.5, size=(5, 11, 7))
        z = apply_standardizer(fit_standardizer(x), x)
        pooled = z.reshape(-1, 7)
        np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(pooled.std(axis=0), 1.0, atol=1e-9)

    def test_identity_standardizer(self):
        from wlclass.features import Standardizer

        ident = Standardizer(np.zeros(7), np.ones(7), np.zeros(7, dtype=bool))
        x = np.random.default_rng(3).normal(size=(2, 4, 7))
        np.testing.assert_array_equal(apply_standardizer(ident, x), x)

    def test_scalar_oracle(self):
        x = np.arange(7.0).reshape(1, 1, 7)
        from wlclass.features import Standardizer

        std = Standardizer(
            means=np.full(7, 2.0), stds=np.full(7, 4.0), constant=np.zeros(7, dtype=bool)
        )
        z = apply_standardizer(std, x)
        for j in range(7):
            assert z[0, 0, j] == (float(j) - 2.0) / 4.0

    def test_fit_is_numpy_pooled_mean_and_std_bit_for_bit(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 40, 7)) * rng.uniform(0.01, 500, 7) + rng.uniform(-1e4, 1e4, 7)
        x[:, :, 3] = 7.25
        for part in (x, x[:11], x[5:6], x[::3]):
            std, pooled = fit_standardizer(part), part.reshape(-1, 7)
            np.testing.assert_array_equal(std.means, pooled.mean(axis=0))
            np.testing.assert_array_equal(std.stds, pooled.std(axis=0))
            assert std.constant.tolist() == [False] * 3 + [True] + [False] * 3

    def test_apply_is_the_per_sensor_map_bit_for_bit_at_every_shape(self):
        """Each shape tiles the constants to its own window length; switching
        lengths back and forth rebuilds them and never serves stale ones."""
        rng = np.random.default_rng(6)
        x = rng.normal(2.0, 3.0, size=(4, 9, 7))
        x[:, :, 0] = 1.5
        std = fit_standardizer(x)
        inverse = np.where(std.constant, 0.0, 1.0 / np.where(std.constant, 1.0, std.stds))
        for tensor in (x, x[0], x[0, 0], x[:, :4], x[None], x[:2, :9:2], x[:, :0], x):
            expected = (tensor - std.means) * inverse
            z = apply_standardizer(std, tensor)
            assert z.shape == tensor.shape
            assert z.tobytes() == expected.tobytes()

    def test_tiled_constants_are_read_only_and_no_field(self):
        from dataclasses import fields

        std = fit_standardizer(np.random.default_rng(7).normal(size=(3, 5, 7)))
        covariance_feature_matrix(np.ones((2, 5, 7)), std)
        for cached in std._tiled(5):
            assert cached.shape == (35,)
            with pytest.raises(ValueError):
                cached[0] = 1.0
        assert [f.name for f in fields(std)] == ["means", "stds", "constant"]

    def test_too_few_samples(self):
        with pytest.raises(DegenerateInputError):
            fit_standardizer(np.zeros((1, 1, 7)))

    def test_wrong_trailing_dimension(self):
        std = fit_standardizer(np.random.default_rng(0).normal(size=(2, 5, 7)))
        with pytest.raises(ShapeMismatchError):
            apply_standardizer(std, np.zeros((3, 5, 6)))

    def test_test_split_not_exactly_centered(self):
        rng = np.random.default_rng(4)
        train, test = rng.normal(size=(8, 20, 7)), rng.normal(size=(4, 20, 7))
        std = fit_standardizer(train)
        z = apply_standardizer(std, test)
        pooled = np.abs(z.reshape(-1, 7).mean(axis=0))
        assert pooled.max() < 0.5
        assert pooled.max() > 1e-6


def gram_row(trial):
    """One trial's Gram row, through the stacked transform with an identity
    standardizer."""
    m = trial.shape[1]
    identity = Standardizer(np.zeros(m), np.ones(m), np.zeros(m, dtype=bool))
    return covariance_feature_matrix(trial[None], identity)[0]


class TestCovarianceFeatures:
    def test_zero_trial(self):
        feats = gram_row(np.zeros((540, 7)))
        assert feats.shape == (28,)
        np.testing.assert_array_equal(feats, 0.0)

    def test_three_by_two_oracle(self):
        feats = gram_row(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(feats, [35.0, 44.0, 56.0])
        assert list(zip(*np.triu_indices(2))) == [(0, 0), (0, 1), (1, 1)]

    def test_matches_direct_matrix_multiplication(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, m = int(rng.integers(2, 60)), int(rng.integers(1, 8))
            trial = rng.normal(size=(n, m))
            feats = gram_row(trial)
            gram = trial.T @ trial
            pos = 0
            for i in range(m):
                for j in range(i, m):
                    np.testing.assert_allclose(feats[pos], gram[i, j], rtol=1e-12)
                    pos += 1
            assert pos == m * (m + 1) // 2 == len(feats)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(6)
        trial = rng.normal(size=(50, 7))
        shuffled = trial[rng.permutation(50)]
        np.testing.assert_allclose(
            gram_row(trial),
            gram_row(shuffled),
            rtol=1e-10,
        )

    def test_scaling_law(self):
        rng = np.random.default_rng(7)
        trial = rng.normal(size=(30, 7))
        c, j = 3.0, 2
        scaled = trial.copy()
        scaled[:, j] *= c
        base = gram_row(trial)
        out = gram_row(scaled)
        for pos, (a, b) in enumerate(zip(*np.triu_indices(7))):
            factor = c**2 if (a == j and b == j) else c if j in (a, b) else 1.0
            np.testing.assert_allclose(out[pos], base[pos] * factor, rtol=1e-10)

    def test_nonfinite_rejected(self):
        trial = np.zeros((5, 7))
        trial[1, 1] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the error is the one verdict, with no warning
            with pytest.raises(DegenerateInputError):
                gram_row(trial)

    def test_feature_count_follows_sensor_count(self):
        for m in (1, 2, 5, 7):
            feats = gram_row(np.ones((4, m)))
            assert len(feats) == m * (m + 1) // 2

    def test_stacked_matrix_shape_and_names(self):
        rng = np.random.default_rng(9)
        tensor = rng.normal(size=(12, 30, 7))
        std = fit_standardizer(tensor)
        fm = covariance_feature_matrix(tensor, std)
        assert type(fm) is np.ndarray and fm.dtype == np.float64
        assert fm.shape == (12, 28) == (12, len(covariance_feature_names()))
        assert covariance_feature_names()[0] == "cov(utilization_gpu_pct,utilization_gpu_pct)"
        assert covariance_feature_matrix(tensor[:0], std).shape == (0, 28)

    def test_stacked_matrix_is_bit_identical_to_whole_tensor_standardization(self):
        rng = np.random.default_rng(10)
        tensor = rng.normal(3.0, 2.0, size=(9, 40, 7))
        tensor[:, :, 4] = 1.5  # a constant sensor
        std = fit_standardizer(tensor)
        z = apply_standardizer(std, tensor)
        expected = np.vstack([(t.T @ t)[np.triu_indices(7)] for t in z])
        assert np.array_equal(covariance_feature_matrix(tensor, std), expected)
        with pytest.raises(ShapeMismatchError):
            covariance_feature_matrix(np.zeros((0, 40, 6)), std)


class TestFlatten:
    def test_sample_sensor_index_arithmetic(self):
        trial = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(flatten_tensor(trial[None]), [[1, 2, 3, 4]])

    def test_single_row_unchanged(self):
        row = np.arange(7.0).reshape(1, 7)
        np.testing.assert_array_equal(flatten_tensor(row[None])[0], np.arange(7.0))

    def test_challenge_dimensions(self):
        assert flatten_tensor(np.zeros((2, 540, 7))).shape == (2, 3780)

    def test_element_position(self):
        rng = np.random.default_rng(10)
        trial = rng.normal(size=(9, 7))
        flat = flatten_tensor(trial[None])[0]
        for _ in range(20):
            s, j = int(rng.integers(9)), int(rng.integers(7))
            assert flat[7 * s + j] == trial[s, j]

    def test_tensor_flatten(self):
        tensor = np.arange(2 * 3 * 7.0).reshape(2, 3, 7)
        flat = flatten_tensor(tensor)
        assert flat.shape == (2, 21)
        np.testing.assert_array_equal(flat[1], tensor[1].reshape(-1))


class TestPca:
    def test_rank_one_line(self):
        rng = np.random.default_rng(11)
        direction = np.array([1.0, 2.0, -1.0])
        direction /= np.linalg.norm(direction)
        t = rng.normal(size=60)
        x = np.outer(t, direction) + 5.0
        model = fit_pca(x, k=1)
        total_var = np.trace(np.cov(x, rowvar=False))
        np.testing.assert_allclose(model.explained_variance[0], total_var, rtol=1e-10)
        proj = project_pca(model, x)
        recon = proj @ model.components + model.mean
        np.testing.assert_allclose(recon, x, atol=1e-10)

    def test_full_rank_retention(self):
        x = np.random.default_rng(12).normal(size=(50, 10))
        model = fit_pca(x, k=10)
        proj = project_pca(model, x)
        recon = proj @ model.components + model.mean
        assert np.abs(recon - x).max() <= 1e-8
        assert not model.rank_deficient

    def test_eigenvalues_match_dense_solver(self):
        x = np.random.default_rng(13).normal(size=(20, 6))
        model = fit_pca(x, k=6)
        centered = x - x.mean(axis=0)
        ref = np.linalg.eigvalsh(centered.T @ centered / (len(x) - 1))[::-1]
        np.testing.assert_allclose(model.explained_variance, ref, atol=1e-8)

    def test_components_orthonormal(self):
        x = np.random.default_rng(14).normal(size=(40, 12))
        model = fit_pca(x, k=7)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(7), atol=1e-8)

    def test_variance_non_increasing_and_totals(self):
        x = np.random.default_rng(15).normal(size=(30, 9))
        model = fit_pca(x, k=9)
        ev = model.explained_variance
        assert (np.diff(ev) <= 1e-12).all()
        centered = x - x.mean(axis=0)
        trace = np.trace(centered.T @ centered / (len(x) - 1))
        np.testing.assert_allclose(ev.sum(), trace, rtol=1e-6)

    def test_grid_values_accepted(self):
        x = np.random.default_rng(16).normal(size=(600, 640))
        for k in (28, 64, 256, 512):
            assert fit_pca(x, k).components.shape == (k, 640)

    def test_rank_deficient_flagged_with_zero_tail(self):
        rng = np.random.default_rng(17)
        base = rng.normal(size=(12, 2)) @ rng.normal(size=(2, 8))
        model = fit_pca(base, k=5)
        assert model.rank_deficient
        np.testing.assert_allclose(model.explained_variance[3:], 0.0, atol=1e-18)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)

    def test_projecting_mean_gives_zero(self):
        x = np.random.default_rng(18).normal(size=(25, 6))
        model = fit_pca(x, k=3)
        out = project_pca(model, model.mean.reshape(1, -1))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_single_row_projection_oracle(self):
        x = np.random.default_rng(19).normal(size=(30, 5))
        model = fit_pca(x, k=4)
        row = x[7:8]
        out = project_pca(model, row)[0]
        for i in range(4):
            np.testing.assert_allclose(
                out[i], np.dot(row[0] - model.mean, model.components[i]), rtol=1e-10
            )

    def test_orientation_deterministic(self):
        x = np.random.default_rng(20).normal(size=(40, 6))
        a = fit_pca(x, k=4)
        b = fit_pca(np.array(x, copy=True), k=4)
        np.testing.assert_array_equal(a.components, b.components)
        pivots = np.argmax(np.abs(a.components), axis=1)
        assert (a.components[np.arange(4), pivots] > 0).all()

    @pytest.mark.parametrize("rank", [29, 3])
    def test_wide_matrix_matches_svd_oracle(self, rank):
        """n < d goes through the n x n Gram matrix; a rank-3 matrix leaves a
        zero tail that must still be orthonormal."""
        rng = np.random.default_rng(24)
        x = rng.normal(size=(30, rank)) @ rng.normal(size=(rank, 400)) if rank < 29 \
            else rng.normal(size=(30, 400)) * rng.uniform(0.5, 2.0, size=400)
        k = 12
        model = fit_pca(x, k)
        centered = x - x.mean(axis=0)
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        kept = min(k, rank)
        np.testing.assert_allclose(model.explained_variance[:kept], s[:kept] ** 2 / 29, atol=1e-8)
        np.testing.assert_array_equal(model.explained_variance[kept:], 0.0)
        assert model.rank_deficient == (rank < k)
        top = model.components[:kept]
        np.testing.assert_allclose(top.T @ top, vt[:kept].T @ vt[:kept], atol=1e-8)
        np.testing.assert_allclose(model.components @ model.components.T, np.eye(k), atol=1e-8)

    def test_constant_wide_matrix_keeps_orthonormal_rows(self):
        """Every C'u vanishes; the zero-variance rows still span k orthonormal
        directions, across several orthonormalization blocks."""
        model = fit_pca(np.full((30, 400), 2.5), k=30)
        assert model.rank_deficient
        np.testing.assert_array_equal(model.explained_variance, 0.0)
        np.testing.assert_allclose(model.components @ model.components.T, np.eye(30), atol=1e-12)

    @pytest.mark.parametrize("shape,rank", [((30, 400), None), ((30, 400), 3), ((50, 20), None)])
    def test_smaller_k_is_exact_truncation(self, shape, rank):
        """A fit at k is the first k rows and variances of the widest fit, bit
        for bit; its projection is the widest projection's first k columns up
        to BLAS rounding, whose blocking may differ between output widths."""
        rng = np.random.default_rng(25)
        n, d = shape
        x = rng.normal(size=shape) if rank is None \
            else rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d))
        k_max = min(n, d)
        widest = fit_pca(x, k_max)
        projected = project_pca(widest, x)
        for k in (1, 3, 16, 17, k_max - 1):
            model = fit_pca(x, k)
            np.testing.assert_array_equal(model.mean, widest.mean)
            np.testing.assert_array_equal(model.components, widest.components[:k])
            np.testing.assert_array_equal(model.explained_variance, widest.explained_variance[:k])
            # a d-term dot product summed in another order moves by up to about d * eps
            np.testing.assert_allclose(project_pca(model, x), projected[:, :k], rtol=0,
                                       atol=d * np.finfo(float).eps * np.abs(projected).max())
            assert model.k == k
            assert model.rank_deficient == (rank is not None and k > rank)

    def test_preconditions(self):
        x = np.zeros((5, 4))
        with pytest.raises(UsageError):
            fit_pca(x, 0)
        with pytest.raises(UsageError, match="k must be an integer"):
            fit_pca(x, 2.5)
        with pytest.raises(DegenerateInputError):
            fit_pca(x, 6)
        model = fit_pca(np.random.default_rng(0).normal(size=(6, 4)), 2)
        with pytest.raises(ShapeMismatchError):
            project_pca(model, np.zeros((3, 9)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200],
                             ids=["nan", "inf", "-inf", "overflow"])
    @pytest.mark.parametrize("shape", [(8, 5), (5, 8)], ids=["tall", "wide"])
    def test_nonfinite_input_is_degenerate(self, value, shape):
        x = np.random.default_rng(4).normal(size=shape)
        x[2, 3] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="non-finite"):
                fit_pca(x, 2)


class TestPipelineComposition:
    def test_pca_path_standardizes_then_flattens(self):
        rng = np.random.default_rng(21)
        train = rng.normal(5.0, 3.0, size=(20, 15, 7))
        std = fit_standardizer(train)
        flat = flatten_tensor(apply_standardizer(std, train))
        model = fit_pca(flat, k=6)
        fm = FittedReduction(ReductionSpec("pca", 6), std, model).transform(train)
        assert type(fm) is np.ndarray and fm.shape == (20, 6)
        np.testing.assert_allclose(fm, project_pca(model, flat), rtol=1e-12)

    def test_feature_matrices_are_finite(self):
        rng = np.random.default_rng(22)
        tensor = rng.normal(size=(6, 12, 7))
        std = fit_standardizer(tensor)
        assert np.isfinite(covariance_feature_matrix(tensor, std)).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_windows_rejected(self):
        rng = np.random.default_rng(23)
        tensor = rng.normal(size=(6, 12, 7))
        tensor[:, :, 3] = 2.0  # constant, so its scale is 0
        std = fit_standardizer(tensor)
        model = fit_pca(flatten_tensor(apply_standardizer(std, tensor)), k=3)
        pca = FittedReduction(ReductionSpec("pca", 3), std, model)
        for sensor, value in ((0, np.inf), (3, np.inf), (5, np.nan)):
            bad = tensor.copy()
            bad[4, 7, sensor] = value
            with pytest.raises(DegenerateInputError):
                covariance_feature_matrix(bad, std)
            with pytest.raises(DegenerateInputError):
                pca.transform(bad)
        huge = np.full((1, 12, 7), 1e200)
        with pytest.raises(DegenerateInputError):
            covariance_feature_matrix(huge, std)  # finite input, overflowing Gram
