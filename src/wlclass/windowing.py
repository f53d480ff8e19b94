"""Fixed-length window extraction and job-level train/test splitting.

Variable-length telemetry trials become 540-sample windows under one of
three policies: the first window, the centered window, or one drawn at a
uniformly random offset. Random offsets are derived per (seed, job) so a
corpus can be windowed in parallel in any order and still come out
identical.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from ._checks import integer, real
from .dataset_io import ChallengeDataset, RawTrial
from .errors import (
    EmptyInputError,
    SchemaMismatchError,
    TooFewTrialsError,
    TooShortError,
    UsageError,
)

DEFAULT_LENGTH = 540

POLICY_KINDS = ("start", "middle", "random")


@dataclass(frozen=True)
class WindowPolicy:
    """How to cut one fixed-length window out of each trial."""

    kind: str
    seed: int | None = None
    length: int = DEFAULT_LENGTH

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise UsageError(f"policy kind must be one of {POLICY_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "length", integer(self.length, "length", 1))
        if (self.seed is None) == (self.kind == "random"):
            raise UsageError("seed is required for the random policy and only for it")
        if self.seed is not None:
            object.__setattr__(self, "seed", integer(self.seed, "seed", 0))


@dataclass
class WindowedTrial:
    """One window: a view into its trial's series and where it starts."""

    data: np.ndarray  # length x sensors
    source_offset: int


def _offset_rng(seed: int, job_id: str) -> np.random.Generator:
    digest = hashlib.sha256(job_id.encode("utf-8")).digest()
    job_word = int.from_bytes(digest[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, job_word]))


def extract_window(trial: RawTrial, policy: WindowPolicy) -> WindowedTrial:
    """Cut one contiguous window out of a trial per the policy.

    The random policy draws the offset from a generator keyed by
    (policy.seed, trial.job_id), so every series of a job sees the same
    stream regardless of processing order.

    Raises:
        TooShortError: trial has fewer samples than the window length.
    """
    n = trial.n_samples
    length = policy.length
    if n < length:
        raise TooShortError(n, length)
    if policy.kind == "start":
        offset = 0
    elif policy.kind == "middle":
        offset = (n - length) // 2
    else:
        offset = int(_offset_rng(policy.seed, trial.job_id).integers(0, n - length + 1))
    return WindowedTrial(data=trial.series[offset : offset + length], source_offset=offset)


def split_jobs_by_class(trials, split_ratio: float, split_seed: int):
    """Partition job ids into train/test sets, stratified by class.

    Every class contributes at least one job to each side; the train share
    is round(ratio * n_jobs) clamped to [1, n_jobs - 1].

    Raises:
        UsageError: split_ratio not a number in (0, 1), or split_seed not an integer >= 0.
        TooFewTrialsError: some class has fewer than two jobs.
    """
    split_ratio = real(split_ratio, "split_ratio", 0, above=True)
    if split_ratio >= 1.0:
        raise UsageError(f"split_ratio must be in (0, 1), got {split_ratio!r}")
    split_seed = integer(split_seed, "split_seed", 0)
    job_label: dict[str, int] = {}
    for t in trials:
        prior = job_label.setdefault(t.job_id, t.label)
        if prior != t.label:
            raise SchemaMismatchError(f"job {t.job_id!r} carries labels {prior} and {t.label}")
    by_class: dict[int, list[str]] = {}
    for job, label in job_label.items():
        by_class.setdefault(label, []).append(job)

    train_jobs, test_jobs = set(), set()
    for class_index, label in enumerate(sorted(by_class)):
        jobs = sorted(by_class[label])
        if len(jobs) < 2:
            raise TooFewTrialsError(
                f"class {label} has {len(jobs)} job(s); two are needed to cover both splits"
            )
        rng = np.random.default_rng(np.random.SeedSequence([split_seed, class_index]))
        order = rng.permutation(len(jobs))
        n_train = int(math.floor(len(jobs) * split_ratio + 0.5))
        n_train = min(max(n_train, 1), len(jobs) - 1)
        for rank, job_index in enumerate(order):
            (train_jobs if rank < n_train else test_jobs).add(jobs[job_index])
    return train_jobs, test_jobs


def build_challenge_dataset(
    trials, policy: WindowPolicy, split_ratio: float = 0.8, split_seed: int = 0
) -> ChallengeDataset:
    """Window a labelled corpus and split it into a challenge dataset.

    The split is decided per job (all series of a job land on one side),
    stratified by class. Labels are remapped to a contiguous 0-based range
    in sorted original order. Trials shorter than the window are dropped,
    order preserved.
    """
    usable = [t for t in trials if t.n_samples >= policy.length]
    if not usable:
        raise EmptyInputError(f"no trial has {policy.length} samples")
    if any(t.label is None for t in usable):
        raise SchemaMismatchError("every trial needs a label to build a split dataset")

    train_jobs, test_jobs = split_jobs_by_class(usable, split_ratio, split_seed)

    original_labels = sorted({t.label for t in usable})
    remap = {orig: new for new, orig in enumerate(original_labels)}
    names = [f"class_{orig}" for orig in original_labels]
    for t in usable:
        if t.label_name:
            names[remap[t.label]] = t.label_name

    parts = {"train": ([], []), "test": ([], [])}
    for t in usable:
        side = "train" if t.job_id in train_jobs else "test"
        w = extract_window(t, policy)
        parts[side][0].append(w.data)
        parts[side][1].append(remap[t.label])

    x_train = np.stack(parts["train"][0])
    x_test = np.stack(parts["test"][0])
    return ChallengeDataset(
        x_train=x_train,
        y_train=np.asarray(parts["train"][1], dtype=np.int64),
        model_train=list(names),
        x_test=x_test,
        y_test=np.asarray(parts["test"][1], dtype=np.int64),
        model_test=list(names),
    ).validate()
