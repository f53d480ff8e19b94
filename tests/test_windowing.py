from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from wlclass.dataset_io import RawTrial
from wlclass.errors import EmptyInputError, TooFewTrialsError, TooShortError, UsageError
from wlclass.windowing import (
    WindowPolicy,
    build_challenge_dataset,
    extract_window,
    split_jobs_by_class,
)


def make_trial(job, n, label=0, label_name=None, device="0", seed=0):
    rng = np.random.default_rng(seed)
    return RawTrial(
        job_id=job,
        label=label,
        series=rng.normal(size=(n, 7)),
        label_name=label_name,
        device_id=device,
    )


class TestPolicyValidation:
    def test_random_requires_seed(self):
        with pytest.raises(UsageError):
            WindowPolicy("random")
        with pytest.raises(UsageError, match="seed"):
            WindowPolicy("random", seed=-1)

    def test_seed_only_for_random(self):
        with pytest.raises(UsageError):
            WindowPolicy("start", seed=3)

    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            WindowPolicy("end")

    def test_bad_length(self):
        with pytest.raises(UsageError):
            WindowPolicy("start", length=0)
        for bad in (2.5, 30.0, True):
            with pytest.raises(UsageError, match="length"):
                WindowPolicy("start", length=bad)


def kept_trials(trials):
    """The trials build_challenge_dataset windows, in input order, checking
    that each side's rows keep that order: a row is matched to its trial by
    the trial's first 540 samples, so every trial needs its own series."""
    ds = build_challenge_dataset(trials, WindowPolicy("start"), 0.5, split_seed=0)
    job_of = {t.series[:540].tobytes(): t.job_id for t in trials}
    sides = [[job_of[row.tobytes()] for row in x] for x in (ds.x_train, ds.x_test)]
    kept = [t for t in trials if any(t.job_id in side for side in sides)]
    for side in sides:
        assert side == [t.job_id for t in kept if t.job_id in side]
    assert sum(map(len, sides)) == len(kept)
    return kept


class TestFilter:
    def test_boundary_inclusion(self):
        trials = [make_trial(f"j{n}", n, seed=n) for n in (539, 540, 541)]
        kept = kept_trials(trials)
        assert [t.n_samples for t in kept] == [540, 541]

    def test_empty_input(self):
        for trials in ([], [make_trial("j", 539)]):
            with pytest.raises(EmptyInputError):
                build_challenge_dataset(trials, WindowPolicy("start"))

    def test_count_matches_linear_scan(self):
        rng = np.random.default_rng(42)
        lengths = rng.integers(100, 900, size=60)
        trials = [make_trial(f"j{i}", int(n), seed=i) for i, n in enumerate(lengths)]
        kept = kept_trials(trials)
        assert len(kept) == int((lengths >= 540).sum())
        assert [t.job_id for t in kept] == [t.job_id for t in trials if t.n_samples >= 540]


class TestExtractWindow:
    def test_exact_length_any_policy(self):
        trial = make_trial("j", 540)
        for policy in (
            WindowPolicy("start"),
            WindowPolicy("middle"),
            WindowPolicy("random", seed=9),
        ):
            w = extract_window(trial, policy)
            assert w.source_offset == 0
            np.testing.assert_array_equal(w.data, trial.series)

    def test_middle_offset_arithmetic(self):
        w = extract_window(make_trial("j", 1000), WindowPolicy("middle"))
        assert w.source_offset == (1000 - 540) // 2 == 230

    def test_too_short(self):
        with pytest.raises(TooShortError) as err:
            extract_window(make_trial("j", 100), WindowPolicy("start"))
        assert err.value.n_samples == 100
        assert err.value.length == 540

    def test_window_is_contiguous_slice(self):
        rng = np.random.default_rng(0)
        for i in range(30):
            n = int(rng.integers(540, 2000))
            trial = make_trial(f"j{i}", n, seed=i)
            w = extract_window(trial, WindowPolicy("random", seed=4))
            assert w.data.shape == (540, 7)
            assert 0 <= w.source_offset <= n - 540
            np.testing.assert_array_equal(
                w.data, trial.series[w.source_offset : w.source_offset + 540]
            )

    def test_random_offset_reproducible(self):
        trial = make_trial("job-17", 1540)
        a = extract_window(trial, WindowPolicy("random", seed=3)).source_offset
        b = extract_window(trial, WindowPolicy("random", seed=3)).source_offset
        assert a == b

    def test_random_offset_varies_with_seed_and_job(self):
        trial = make_trial("job-17", 1540)
        offsets = {
            extract_window(trial, WindowPolicy("random", seed=s)).source_offset
            for s in range(12)
        }
        assert len(offsets) > 1
        other = make_trial("job-18", 1540)
        per_job = {
            extract_window(t, WindowPolicy("random", seed=3)).source_offset
            for t in (trial, other)
        }
        assert len(per_job) == 2

    def test_random_offsets_uniform(self):
        policy = WindowPolicy("random", seed=123)
        n, length = 1540, 540
        span = n - length + 1  # 1001 possible offsets
        series = np.zeros((n, 7))
        counts = np.zeros(span)
        for i in range(10000):
            trial = RawTrial(f"job-{i}", 0, series)
            counts[extract_window(trial, policy).source_offset] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.001


def labelled_corpus(jobs_per_class, n=600, devices=1, sparse_labels=False):
    trials = []
    for c, n_jobs in enumerate(jobs_per_class):
        label = c * 7 + 3 if sparse_labels else c
        for j in range(n_jobs):
            for d in range(devices):
                trials.append(
                    make_trial(
                        f"c{c}-job{j}",
                        n,
                        label=label,
                        label_name=f"net{c}",
                        device=str(d),
                        seed=c * 100 + j,
                    )
                )
    return trials


class TestSplit:
    def test_exact_division(self):
        trials = labelled_corpus([100])
        train, test = split_jobs_by_class(trials, 0.8, split_seed=1)
        assert len(train) == 80 and len(test) == 20

    def test_same_seed_same_split(self):
        trials = labelled_corpus([10, 20, 30])
        assert split_jobs_by_class(trials, 0.8, 5) == split_jobs_by_class(trials, 0.8, 5)

    def test_no_job_in_both_splits(self):
        trials = labelled_corpus([9, 14, 27], devices=2)
        train, test = split_jobs_by_class(trials, 0.8, 7)
        assert not train & test
        assert train | test == {t.job_id for t in trials}

    def test_every_class_on_both_sides(self):
        trials = labelled_corpus([2, 3, 5, 40])
        train, test = split_jobs_by_class(trials, 0.8, 11)
        label_of = {t.job_id: t.label for t in trials}
        for side in (train, test):
            assert {label_of[j] for j in side} == {0, 1, 2, 3}

    def test_class_with_one_job(self):
        trials = labelled_corpus([5, 1])
        with pytest.raises(TooFewTrialsError):
            split_jobs_by_class(trials, 0.8, 0)

    def test_bad_ratio(self):
        with pytest.raises(UsageError):
            split_jobs_by_class(labelled_corpus([4]), 1.0, 0)
        for ratio in ("0.5", 0.0, float("nan"), True):
            with pytest.raises(UsageError, match="split_ratio"):
                split_jobs_by_class(labelled_corpus([4]), ratio, 0)
        with pytest.raises(UsageError, match="split_seed"):
            split_jobs_by_class(labelled_corpus([4]), 0.5, -1)
        with pytest.raises(UsageError, match="split_seed"):
            build_challenge_dataset(labelled_corpus([4]), WindowPolicy("start"), split_seed=-1)


class TestBuildDataset:
    def test_counts_and_shapes(self):
        trials = labelled_corpus([10, 10, 10], n=700)
        ds = build_challenge_dataset(trials, WindowPolicy("start"), 0.8, split_seed=2)
        assert ds.x_train.shape == (24, 540, 7)
        assert ds.x_test.shape == (6, 540, 7)
        assert ds.model_train == ["net0", "net1", "net2"]

    def test_sparse_labels_remapped_contiguously(self):
        trials = labelled_corpus([4, 4, 4], sparse_labels=True)
        ds = build_challenge_dataset(trials, WindowPolicy("start"), 0.8, split_seed=2)
        assert sorted(np.unique(ds.y_train)) == [0, 1, 2]
        assert ds.model_train == ["net0", "net1", "net2"]

    def test_determinism(self):
        trials = labelled_corpus([6, 7], n=640)
        a = build_challenge_dataset(trials, WindowPolicy("random", seed=4), 0.8, 3)
        b = build_challenge_dataset(trials, WindowPolicy("random", seed=4), 0.8, 3)
        assert all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))

    def test_multi_device_jobs_stay_together(self):
        trials = labelled_corpus([6, 6], devices=3)
        ds = build_challenge_dataset(trials, WindowPolicy("start"), 0.8, split_seed=2)
        # every job contributes 3 windows, so each side's count is divisible by 3
        assert ds.x_train.shape[0] % 3 == 0
        assert ds.x_test.shape[0] % 3 == 0

    def test_sizes_differ_only_through_length_filter(self):
        trials = labelled_corpus([8, 8], n=900)
        sizes = set()
        for policy in (
            WindowPolicy("start"),
            WindowPolicy("middle"),
            WindowPolicy("random", seed=1),
            WindowPolicy("random", seed=2),
        ):
            ds = build_challenge_dataset(trials, policy, 0.8, split_seed=6)
            sizes.add((ds.x_train.shape[0], ds.x_test.shape[0]))
        assert len(sizes) == 1

    def test_short_trials_excluded(self):
        trials = labelled_corpus([8, 8], n=700) + [
            make_trial("shorty", 100, label=0, label_name="net0")
        ]
        ds = build_challenge_dataset(trials, WindowPolicy("start"), 0.8, split_seed=6)
        assert ds.x_train.shape[0] + ds.x_test.shape[0] == 16
