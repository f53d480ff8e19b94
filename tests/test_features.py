import numpy as np
import pytest

from wlclass.errors import DegenerateInputError, ShapeMismatchError, UsageError
from wlclass.features import (
    apply_standardizer,
    covariance_feature_matrix,
    covariance_feature_names,
    covariance_features,
    fit_pca,
    fit_standardizer,
    flatten_tensor,
    pca_feature_matrix,
    project_pca,
)


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


class TestCovarianceFeatures:
    def test_zero_trial(self):
        feats = covariance_features(np.zeros((540, 7)))
        assert feats.shape == (28,)
        np.testing.assert_array_equal(feats, 0.0)

    def test_three_by_two_oracle(self):
        feats = covariance_features(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(feats, [35.0, 44.0, 56.0])
        assert list(zip(*np.triu_indices(2))) == [(0, 0), (0, 1), (1, 1)]

    def test_matches_direct_matrix_multiplication(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n, m = int(rng.integers(2, 60)), int(rng.integers(1, 8))
            trial = rng.normal(size=(n, m))
            feats = covariance_features(trial)
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
            covariance_features(trial),
            covariance_features(shuffled),
            rtol=1e-10,
        )

    def test_scaling_law(self):
        rng = np.random.default_rng(7)
        trial = rng.normal(size=(30, 7))
        c, j = 3.0, 2
        scaled = trial.copy()
        scaled[:, j] *= c
        base = covariance_features(trial)
        out = covariance_features(scaled)
        for pos, (a, b) in enumerate(zip(*np.triu_indices(7))):
            factor = c**2 if (a == j and b == j) else c if j in (a, b) else 1.0
            np.testing.assert_allclose(out[pos], base[pos] * factor, rtol=1e-10)

    def test_center_per_trial_matches_textbook_covariance(self):
        rng = np.random.default_rng(8)
        trial = rng.normal(size=(25, 7)) + 10.0
        feats = covariance_features(trial, center_per_trial=True, scale_unbiased=True)
        ref = np.cov(trial, rowvar=False)
        iu, ju = np.triu_indices(7)
        np.testing.assert_allclose(feats, ref[iu, ju], rtol=1e-10)

    def test_nonfinite_rejected(self):
        trial = np.zeros((5, 7))
        trial[1, 1] = np.inf
        with pytest.raises(DegenerateInputError):
            covariance_features(trial)

    def test_feature_count_follows_sensor_count(self):
        for m in (1, 2, 5, 7):
            feats = covariance_features(np.ones((4, m)))
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
        for center, unbiased in ((False, False), (True, False), (False, True), (True, True)):
            expected = np.vstack([covariance_features(t, center, unbiased) for t in z])
            got = covariance_feature_matrix(tensor, std, center, unbiased)
            assert np.array_equal(got, expected)
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

    def test_preconditions(self):
        x = np.zeros((5, 4))
        with pytest.raises(UsageError):
            fit_pca(x, 0)
        with pytest.raises(DegenerateInputError):
            fit_pca(x, 6)
        model = fit_pca(np.random.default_rng(0).normal(size=(6, 4)), 2)
        with pytest.raises(ShapeMismatchError):
            project_pca(model, np.zeros((3, 9)))


class TestPipelineComposition:
    def test_pca_path_standardizes_then_flattens(self):
        rng = np.random.default_rng(21)
        train = rng.normal(5.0, 3.0, size=(20, 15, 7))
        std = fit_standardizer(train)
        flat = flatten_tensor(apply_standardizer(std, train))
        model = fit_pca(flat, k=6)
        fm = pca_feature_matrix(train, std, model)
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
        for sensor, value in ((0, np.inf), (3, np.inf), (5, np.nan)):
            bad = tensor.copy()
            bad[4, 7, sensor] = value
            for center, unbiased in ((False, False), (True, True)):
                with pytest.raises(DegenerateInputError):
                    covariance_feature_matrix(bad, std, center, unbiased)
            with pytest.raises(DegenerateInputError):
                pca_feature_matrix(bad, std, model)
        huge = np.full((1, 12, 7), 1e200)
        with pytest.raises(DegenerateInputError):
            covariance_feature_matrix(huge, std)  # finite input, overflowing Gram
