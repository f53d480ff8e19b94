import numpy as np
import pytest

from wlclass.classifiers import predict, train_forest
from wlclass.errors import NotPositiveDefiniteError, UsageError
from wlclass.features import covariance_feature_matrix, fit_standardizer
from wlclass.synth import (
    CLASS_JOB_COUNTS,
    DEFAULT_MEAN_PROFILE,
    GPU_TOTAL_MEMORY_MIB,
    SynthClassSpec,
    SynthCorpusSpec,
    default_4_class_spec,
    default_26_class_spec,
    generate_corpus,
    make_corpus_spec,
    scaled_job_count,
)
from wlclass.windowing import WindowPolicy, build_challenge_dataset

M = 7


def one_class_spec(correlation, noise=0.0, length=10000, seed=0, name="only"):
    return SynthCorpusSpec(
        classes=(
            SynthClassSpec(
                class_name=name,
                mean_profile=DEFAULT_MEAN_PROFILE,
                correlation=tuple(map(tuple, np.asarray(correlation))),
                noise_scale=(noise,) * M,
                length_range=(length, length),
                job_count=1,
            ),
        ),
        seed=seed,
    )


def corpus_bytes(trials):
    return b"".join(
        t.job_id.encode() + t.series.tobytes() + bytes([t.label]) for t in trials
    )


class TestSpecValidation:
    def test_non_spd_correlation_rejected(self):
        bad = -np.eye(M)
        with pytest.raises(NotPositiveDefiniteError):
            one_class_spec(bad)
        asym = np.eye(M)
        asym[0, 1] = 0.9
        with pytest.raises(NotPositiveDefiniteError):
            one_class_spec(asym)

    def test_field_validation(self):
        with pytest.raises(UsageError):
            SynthClassSpec("x", (0.0,) * 3, tuple(map(tuple, np.eye(M))), (0.0,) * M, (5, 5), 1)
        with pytest.raises(UsageError):
            SynthClassSpec("x", (0.0,) * M, tuple(map(tuple, np.eye(M))), (-1.0,) * M, (5, 5), 1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(UsageError, match="noise_scale"):
                SynthClassSpec("x", (0.0,) * M, tuple(map(tuple, np.eye(M))), (bad,) * M,
                               (5, 5), 1)
        with pytest.raises(UsageError):
            SynthClassSpec("x", (0.0,) * M, tuple(map(tuple, np.eye(M))), (0.0,) * M, (5, 4), 1)
        with pytest.raises(UsageError):
            SynthClassSpec("x", (0.0,) * M, tuple(map(tuple, np.eye(M))), (0.0,) * M, (5, 5), 0)
        with pytest.raises(UsageError, match="job_count"):
            SynthClassSpec("x", (0.0,) * M, tuple(map(tuple, np.eye(M))), (0.0,) * M, (5, 5), 2.5)
        with pytest.raises(UsageError, match="job_count"):
            default_4_class_spec(seed=0, jobs_per_class=2.5)

    def test_corpus_validation(self):
        cls = one_class_spec(np.eye(M)).classes[0]
        with pytest.raises(UsageError):
            SynthCorpusSpec(classes=(), seed=0)
        with pytest.raises(UsageError):
            SynthCorpusSpec(classes=(cls, cls), seed=0)
        with pytest.raises(UsageError):
            SynthCorpusSpec(classes=(cls,), seed=0, warmup_samples=-1)
        with pytest.raises(UsageError, match="seed"):
            SynthCorpusSpec(classes=(cls,), seed=-1)
        with pytest.raises(UsageError, match="seed"):
            make_corpus_spec(["a", "b"], [3, 3], seed=-1)


class TestBookkeeping:
    def test_two_classes_ten_jobs_each(self):
        spec = make_corpus_spec(["a", "b"], [10, 10], seed=1, length_range=(30, 40))
        trials = generate_corpus(spec)
        assert len(trials) == 20
        assert [t.label for t in trials] == [0] * 10 + [1] * 10
        assert [t.label_name for t in trials[:10]] == ["a"] * 10
        assert len({t.job_id for t in trials}) == 20
        for t in trials:
            assert 30 <= t.n_samples <= 40
            assert t.series.shape[1] == M

    def test_canonical_order_is_class_then_job(self):
        spec = make_corpus_spec(["a", "b"], [3, 2], seed=0, length_range=(10, 10))
        trials = generate_corpus(spec)
        assert [t.job_id for t in trials] == [
            "a-00000", "a-00001", "a-00002", "b-00000", "b-00001",
        ]

    def test_deterministic_and_thread_invariant(self):
        spec = make_corpus_spec(["a", "b", "c"], [4, 4, 4], seed=9, length_range=(50, 70))
        base = corpus_bytes(generate_corpus(spec))
        assert corpus_bytes(generate_corpus(spec)) == base
        other = make_corpus_spec(["a", "b", "c"], [4, 4, 4], seed=10, length_range=(50, 70))
        assert corpus_bytes(generate_corpus(other)) != base


class TestStatisticalModel:
    def test_identity_correlation_off_diagonals_vanish(self):
        spec = one_class_spec(np.eye(M), noise=0.0, length=5000)
        (trial,) = generate_corpus(spec, physical=False)
        cov = np.cov(trial.series, rowvar=False)
        off = cov[~np.eye(M, dtype=bool)]
        assert np.abs(off).max() < 0.1

    def test_sample_covariance_matches_spec_correlation(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((M, M))
        corr_raw = a @ a.T + M * np.eye(M)
        d = 1.0 / np.sqrt(np.diag(corr_raw))
        corr = d[:, None] * corr_raw * d[None, :]
        spec = one_class_spec(corr, noise=0.0, length=10000, seed=3)
        (trial,) = generate_corpus(spec, physical=False)
        cov = np.cov(trial.series, rowvar=False)
        assert np.abs(cov - corr).max() < 0.05

    def test_white_noise_adds_to_the_diagonal(self):
        s = 0.7
        spec = one_class_spec(np.eye(M), noise=s, length=10000, seed=4)
        (trial,) = generate_corpus(spec, physical=False)
        cov = np.cov(trial.series, rowvar=False)
        expected = np.eye(M) * (1.0 + s * s)
        assert np.abs(cov - expected).max() < 0.06 * (1.0 + s * s)

    def test_mean_profile_is_recovered(self):
        spec = one_class_spec(np.eye(M), noise=0.0, length=20000, seed=5)
        (trial,) = generate_corpus(spec, physical=False)
        assert np.abs(trial.series.mean(axis=0) - DEFAULT_MEAN_PROFILE).max() < 0.5


class TestPhysicalAdjustments:
    def test_bounds_and_complementary_memory(self):
        spec = make_corpus_spec(["a"], [5], seed=2, noise=30.0, length_range=(500, 500))
        trials = generate_corpus(spec, physical=True)
        for t in trials:
            s = t.series
            assert (s[:, 0] >= 0).all() and (s[:, 0] <= 100).all()
            assert (s[:, 1] >= 0).all() and (s[:, 1] <= 100).all()
            assert (s[:, 4] >= 0).all() and (s[:, 5] >= 0).all() and (s[:, 6] >= 0).all()
            np.testing.assert_allclose(s[:, 2] + s[:, 3], GPU_TOTAL_MEMORY_MIB)

    def test_physical_false_leaves_raw_draws(self):
        spec = make_corpus_spec(["a"], [3], seed=2, noise=200.0, length_range=(400, 400))
        raw = generate_corpus(spec, physical=False)
        assert any((t.series[:, 0] > 100).any() or (t.series[:, 0] < 0).any() for t in raw)


class TestWarmup:
    def test_warmup_rows_are_class_independent(self):
        spec = make_corpus_spec(
            ["a", "b"], [30, 30], seed=6, noise=0.1,
            length_range=(200, 200), warmup_samples=60,
        )
        trials = generate_corpus(spec, physical=False)
        warm_a = np.concatenate([t.series[:60] for t in trials if t.label == 0])
        warm_b = np.concatenate([t.series[:60] for t in trials if t.label == 1])
        profile = spec.warmup_profile
        assert np.abs(warm_a.mean(axis=0) - profile).max() < 0.15
        assert np.abs(warm_b.mean(axis=0) - profile).max() < 0.15
        # warm-up is white: both classes show near-identity covariance
        for warm in (warm_a, warm_b):
            cov = np.cov(warm, rowvar=False)
            assert np.abs(cov - np.eye(M)).max() < 0.15
        # the post-warm-up region keeps the class correlation structure
        body_a = np.concatenate([t.series[60:] for t in trials if t.label == 0])
        cov_a = np.cov(body_a, rowvar=False)
        corr_a = np.asarray(spec.classes[0].correlation)
        assert np.abs(cov_a - (corr_a + 0.01 * np.eye(M))).max() < 0.1

    def test_short_trial_is_all_warmup(self):
        spec = make_corpus_spec(
            ["a"], [1], seed=0, noise=0.0, length_range=(40, 40), warmup_samples=60,
        )
        (trial,) = generate_corpus(spec, physical=False)
        assert np.abs(trial.series.mean(axis=0) - spec.warmup_profile).max() < 1.0


class TestDefaultSpecs:
    def test_full_taxonomy_has_26_unique_classes(self):
        spec = default_26_class_spec(seed=0)
        assert len(spec.classes) == 26
        names = [c.class_name for c in spec.classes]
        assert len(set(names)) == 26
        counts = dict(CLASS_JOB_COUNTS)
        for cls in spec.classes:
            assert cls.job_count == counts[cls.class_name]

    def test_scale_preserves_proportions_with_floor(self):
        spec = default_26_class_spec(seed=0, scale=0.1)
        by_name = {c.class_name: c.job_count for c in spec.classes}
        unet = sum(v for k, v in by_name.items() if k.startswith(("U3-", "U4-", "U5-")))
        assert abs(unet - 143) <= 3
        assert by_name["PNA"] == 3
        assert min(by_name.values()) >= 3
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(UsageError, match="scale"):
                default_26_class_spec(seed=0, scale=bad)

    def test_scaled_job_count_rounding(self):
        assert scaled_job_count(165, 0.1) == 17
        assert scaled_job_count(27, 0.1) == 3
        assert scaled_job_count(1, 0.001) == 3

    def test_class_correlations_are_well_separated(self):
        spec = default_26_class_spec(seed=0)
        mats = [np.asarray(c.correlation) for c in spec.classes]
        for i in range(len(mats)):
            assert np.allclose(np.diag(mats[i]), 1.0)
            np.linalg.cholesky(mats[i])
            for j in range(i + 1, len(mats)):
                assert np.linalg.norm(mats[i] - mats[j]) > 0.5

    def test_four_class_default_sizes(self):
        spec = default_4_class_spec(seed=1)
        assert len(spec.classes) == 4
        assert sum(c.job_count for c in spec.classes) == 400


def pipeline_accuracy(noise, seed=11):
    spec = make_corpus_spec(
        ["a", "b", "c", "d"], [40] * 4, seed=seed, noise=noise, length_range=(150, 170),
    )
    trials = generate_corpus(spec)
    dataset = build_challenge_dataset(
        trials, WindowPolicy("middle", length=120), split_ratio=0.8, split_seed=0
    )
    std = fit_standardizer(dataset.x_train)
    features_train = covariance_feature_matrix(dataset.x_train, std)
    features_test = covariance_feature_matrix(dataset.x_test, std)
    model = train_forest(features_train, dataset.y_train, n_trees=40, seed=0)
    return float((predict(model, features_test) == dataset.y_test).mean())


class TestSeparabilityKnob:
    def test_low_noise_is_nearly_perfect_and_beats_high_noise(self):
        quiet = pipeline_accuracy(noise=0.05)
        loud = pipeline_accuracy(noise=4.0)
        assert quiet >= 0.95
        assert quiet >= loud
