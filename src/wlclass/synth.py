"""Synthetic labelled telemetry generator.

Classes are told apart by the correlation structure of their sensors, not
by their means, so the covariance-feature path is the channel under test.
Each sample is mean + L z + noise_scale * eps, where L is the Cholesky
factor of the class correlation matrix and eps is white measurement
noise; shrinking noise_scale makes the corpus arbitrarily separable.

Generation is deterministic: every job draws from its own stream seeded
by (corpus seed, class index, job index), so the corpus is byte-identical
across runs, and trials always come out in (class, job) order.
"""

from dataclasses import dataclass

import numpy as np

from ._checks import integer, real
from .dataset_io import GPU_SENSORS, RawTrial
from .errors import NotPositiveDefiniteError, UsageError

GPU_TOTAL_MEMORY_MIB = 32768.0

#: Index layout of the GPU sensor order used by the physical adjustments.
_PCT_SENSORS = (0, 1)  # utilization percentages, clipped to [0, 100]
_MEM_FREE = 2
_MEM_USED = 3
_NONNEGATIVE = (4, 5, 6)  # temperatures and power draw

#: The default taxonomy: 26 network architectures with their labelled job
#: counts, the basis for proportional scaling.
CLASS_JOB_COUNTS = (
    ("VGG11", 185),
    ("VGG16", 176),
    ("VGG19", 199),
    ("Inception3", 241),
    ("Inception4", 243),
    ("ResNet50", 111),
    ("ResNet50_v1.5", 91),
    ("ResNet101", 77),
    ("ResNet101_v2", 54),
    ("ResNet152", 76),
    ("ResNet152_v2", 54),
    ("U3-32", 165),
    ("U3-64", 159),
    ("U3-128", 165),
    ("U4-32", 163),
    ("U4-64", 158),
    ("U4-128", 157),
    ("U5-32", 158),
    ("U5-64", 158),
    ("U5-128", 148),
    ("Bert", 185),
    ("DistillBert", 241),
    ("Dimenet", 33),
    ("Schnet", 39),
    ("PNA", 27),
    ("NNConv", 32),
)

#: One plausible operating point shared by every class; the class signal
#: lives in the correlations, never in the means.
DEFAULT_MEAN_PROFILE = (60.0, 40.0, GPU_TOTAL_MEMORY_MIB - 12000.0, 12000.0, 55.0, 45.0, 150.0)


def _cholesky_or_raise(matrix, context: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotPositiveDefiniteError(f"{context}: correlation must be square, got {m.shape}")
    if not np.allclose(m, m.T, atol=1e-10):
        raise NotPositiveDefiniteError(f"{context}: correlation is not symmetric")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(f"{context}: Cholesky factorization failed") from None


@dataclass(frozen=True)
class SynthClassSpec:
    """Everything needed to sample one class's telemetry."""

    class_name: str
    mean_profile: tuple
    correlation: tuple  # rows of a symmetric positive-definite matrix
    noise_scale: tuple  # per-sensor white-noise std
    length_range: tuple  # (min, max) samples per trial, inclusive
    job_count: int

    def __post_init__(self):
        m = len(GPU_SENSORS)
        if len(self.mean_profile) != m:
            raise UsageError(f"mean_profile needs {m} entries, got {len(self.mean_profile)}")
        if len(self.noise_scale) != m:
            raise UsageError(f"noise_scale needs {m} entries, got {len(self.noise_scale)}")
        _cholesky_or_raise(self.correlation, self.class_name)
        lo, hi = self.length_range
        checked = {  # plain values, whatever numbers the caller passed
            "noise_scale": tuple(real(s, "noise_scale", 0) for s in self.noise_scale),
            "length_range": (integer(lo, "length_range min", 1), integer(hi, "length_range", lo)),
            "job_count": integer(self.job_count, "job_count", 1),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @property
    def cholesky(self) -> np.ndarray:
        return _cholesky_or_raise(self.correlation, self.class_name)


@dataclass(frozen=True)
class SynthCorpusSpec:
    classes: tuple  # SynthClassSpec entries
    seed: int
    warmup_samples: int = 0

    def __post_init__(self):
        if not self.classes:
            raise UsageError("corpus needs at least one class")
        names = [c.class_name for c in self.classes]
        if len(set(names)) != len(names):
            raise UsageError("class names must be unique")
        for name in ("seed", "warmup_samples"):
            object.__setattr__(self, name, integer(getattr(self, name), name, 0))

    @property
    def warmup_profile(self) -> np.ndarray:
        """Class-independent operating point used for warm-up rows."""
        return np.mean([c.mean_profile for c in self.classes], axis=0)


def _job_rng(seed: int, class_index: int, job_index: int):
    return np.random.default_rng(np.random.SeedSequence([seed, class_index, job_index]))


def _apply_physical(series: np.ndarray) -> np.ndarray:
    out = series.copy()
    for i in _PCT_SENSORS:
        out[:, i] = np.clip(out[:, i], 0.0, 100.0)
    for i in _NONNEGATIVE:
        out[:, i] = np.maximum(out[:, i], 0.0)
    out[:, _MEM_USED] = np.clip(out[:, _MEM_USED], 0.0, GPU_TOTAL_MEMORY_MIB)
    out[:, _MEM_FREE] = GPU_TOTAL_MEMORY_MIB - out[:, _MEM_USED]
    return out


def _generate_job(corpus: SynthCorpusSpec, class_index: int, job_index: int, physical: bool,
                  cholesky: np.ndarray, warmup_profile: np.ndarray) -> RawTrial:
    cls = corpus.classes[class_index]
    rng = _job_rng(corpus.seed, class_index, job_index)
    lo, hi = cls.length_range
    length = int(rng.integers(lo, hi + 1))
    mean = np.asarray(cls.mean_profile, dtype=np.float64)
    noise = np.asarray(cls.noise_scale, dtype=np.float64)
    signal = rng.standard_normal((length, len(mean))) @ cholesky.T
    series = mean + signal + noise * rng.standard_normal((length, len(mean)))
    w = min(corpus.warmup_samples, length)
    if w:
        series[:w] = warmup_profile + rng.standard_normal((w, len(mean)))
    if physical:
        series = _apply_physical(series)
    return RawTrial(
        job_id=f"{cls.class_name}-{job_index:05d}",
        label=class_index,
        series=series,
        label_name=cls.class_name,
        device_id="0",
    )


def generate_corpus(spec: SynthCorpusSpec, physical: bool = True) -> list:
    """Sample every job of every class, in canonical (class, job) order.

    physical=False skips clipping and the complementary memory pair,
    leaving the raw statistical model (useful for covariance checks).

    Raises:
        NotPositiveDefiniteError: some class correlation is not SPD.
    """
    factors = [cls.cholesky for cls in spec.classes]
    warmup_profile = spec.warmup_profile
    return [
        _generate_job(spec, class_index, job_index, physical, factors[class_index], warmup_profile)
        for class_index, cls in enumerate(spec.classes)
        for job_index in range(cls.job_count)
    ]


def _random_correlation(rng, eigenvalues) -> np.ndarray:
    """Random rotation of an eigenvalue profile, renormalized to unit diagonal."""
    m = len(eigenvalues)
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diag(r))  # fix the QR sign ambiguity
    raw = (q * eigenvalues) @ q.T
    d = 1.0 / np.sqrt(np.diag(raw))
    corr = d[:, None] * raw * d[None, :]
    return (corr + corr.T) / 2.0


def _pairwise_min_distance(matrices) -> float:
    best = np.inf
    for i in range(len(matrices)):
        for j in range(i + 1, len(matrices)):
            best = min(best, float(np.linalg.norm(matrices[i] - matrices[j])))
    return best


def _build_correlations(n_classes: int, seed: int, min_distance: float = 0.5) -> list:
    """Distinct SPD correlation matrices, retrying salts until well separated."""
    m = len(GPU_SENSORS)
    for attempt in range(100):
        matrices = []
        for class_index in range(n_classes):
            rng = np.random.default_rng(np.random.SeedSequence([seed, attempt, class_index]))
            spread = 1.5 + 4.0 * (class_index % 7) / 7.0
            eigenvalues = np.geomspace(spread, 1.0 / spread, m)
            eigenvalues *= m / eigenvalues.sum()
            matrices.append(_random_correlation(rng, eigenvalues))
        if _pairwise_min_distance(matrices) > min_distance:
            return matrices
    raise NotPositiveDefiniteError(
        f"could not construct {n_classes} correlations separated by {min_distance}"
    )


def make_corpus_spec(
    class_names,
    job_counts,
    seed: int,
    noise: float = 0.5,
    length_range=(560, 640),
    warmup_samples: int = 0,
) -> SynthCorpusSpec:
    """Corpus spec with distinct seeded correlations and a shared mean profile."""
    names = list(class_names)
    seed = integer(seed, "seed", 0)
    correlations = _build_correlations(len(names), seed)
    m = len(GPU_SENSORS)
    classes = tuple(
        SynthClassSpec(
            class_name=name,
            mean_profile=DEFAULT_MEAN_PROFILE,
            correlation=tuple(map(tuple, correlations[i])),
            noise_scale=(noise,) * m,
            length_range=tuple(length_range),
            job_count=count,
        )
        for i, (name, count) in enumerate(zip(names, job_counts))
    )
    return SynthCorpusSpec(classes=classes, seed=seed, warmup_samples=warmup_samples)


def scaled_job_count(count: int, scale: float) -> int:
    return max(3, int(count * scale + 0.5))


def default_26_class_spec(
    seed: int,
    scale: float = 1.0,
    noise: float = 0.5,
    length_range=(560, 640),
    warmup_samples: int = 0,
) -> SynthCorpusSpec:
    """The full taxonomy with job counts scaled proportionally (minimum 3)."""
    scale = real(scale, "scale", 0, above=True)
    names = [name for name, _ in CLASS_JOB_COUNTS]
    counts = [scaled_job_count(count, scale) for _, count in CLASS_JOB_COUNTS]
    return make_corpus_spec(
        names, counts, seed, noise=noise, length_range=length_range,
        warmup_samples=warmup_samples,
    )


def default_4_class_spec(
    seed: int,
    noise: float = 0.3,
    jobs_per_class: int = 100,
    length_range=(560, 640),
    warmup_samples: int = 0,
) -> SynthCorpusSpec:
    """Desk-scale corpus: 4 classes, about 400 jobs at the default size."""
    names = [f"synth-{c}" for c in "ABCD"]
    return make_corpus_spec(
        names, [jobs_per_class] * 4, seed, noise=noise, length_range=length_range,
        warmup_samples=warmup_samples,
    )
