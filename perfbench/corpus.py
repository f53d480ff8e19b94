"""Seeded, calibrated 26-class corpora for the benchmark workloads.

The class taxonomy (correlation structures and per-class mean offsets) is
fixed, so every workload seed poses a problem of the same difficulty; the
workload seed draws the jobs. The package's own synthetic classes share
one mean profile, which puts covariance features at 100% and PCA
features at chance. Small per-class offsets under heavy white noise put
both strictly between, so an accuracy regression shows.

An archive workload draws its training and test jobs as two independent
corpora of the same taxonomy, which is a job-level split. A workload may
pin its training corpus to a fixed seed: across seeded training sets of
one taxonomy, a staged-svm pass took 3 s to 22 s and scored 6% to 88%,
depending on which machines hit the iteration cap (`svm_seeds.py`
reproduces this), so only a fixed training set gives `run_s` a spread a
bound can hold. The test jobs still come from the workload seed.

Run as a script, this module is one set-up: it imports the package,
writes one workload's input file into a directory and prints the elapsed
seconds as JSON. The benchmark runs it in fresh interpreters so that
every set-up pays the import.
"""

import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

#: Seed of the fixed taxonomy, and of a pinned training corpus.
TAXONOMY_SEED = 20220411


@dataclasses.dataclass(frozen=True)
class CorpusParams:
    noise: float  # white-noise std per sensor
    offset: float  # std of the per-class mean offsets, in units of noise
    scale: float  # job-count scale of the training corpus, or of the raw CSV
    test_scale: float | None = None  # test corpus scale; None writes a raw CSV
    fixed_train: bool = False  # training jobs from TAXONOMY_SEED, not the seed


def _stream(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def corpus_spec(params: CorpusParams, scale: float, seed: int):
    """The 26-class spec with the fixed class structure and seed-drawn jobs."""
    import numpy as np
    import wlclass

    base = wlclass.default_26_class_spec(seed=TAXONOMY_SEED, scale=scale, noise=params.noise)
    rng = np.random.default_rng(TAXONOMY_SEED)
    shape = (len(base.classes), len(wlclass.GPU_SENSORS))
    offsets = params.offset * params.noise * rng.standard_normal(shape)
    classes = tuple(
        dataclasses.replace(cls, mean_profile=tuple(np.add(cls.mean_profile, offsets[i]).tolist()))
        for i, cls in enumerate(base.classes)
    )
    return wlclass.SynthCorpusSpec(classes=classes, seed=seed)


def _write_csv(path: Path, trials) -> None:
    """The raw-telemetry layout the `window` subcommand ingests."""
    import wlclass

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["job_id", "timestamp", "device_id", "label", *wlclass.GPU_SENSORS])
        for trial in trials:
            for j, row in enumerate(trial.series.tolist()):
                writer.writerow([trial.job_id, j, trial.device_id, trial.label_name,
                                 *map(repr, row)])


def _windows(trials):
    import numpy as np
    import wlclass

    policy = wlclass.WindowPolicy("middle")
    x = np.stack([wlclass.extract_window(t, policy).data for t in trials])
    return x, np.array([t.label for t in trials], dtype=np.int64)


def write_inputs(params: CorpusParams, seed: int, out_dir: Path) -> Path:
    """Generate the corpus and write the workload's one input file."""
    import wlclass

    train_seed = TAXONOMY_SEED if params.fixed_train else _stream(seed, 0)
    train = wlclass.generate_corpus(corpus_spec(params, params.scale, train_seed))
    if params.test_scale is None:
        path = out_dir / "corpus.csv"
        _write_csv(path, train)
        return path
    test = wlclass.generate_corpus(corpus_spec(params, params.test_scale, _stream(seed, 1)))
    names = sorted({t.label: t.label_name for t in train}.items())
    x_train, y_train = _windows(train)
    x_test, y_test = _windows(test)
    dataset = wlclass.ChallengeDataset(
        x_train=x_train, y_train=y_train, model_train=[n for _, n in names],
        x_test=x_test, y_test=y_test, model_test=[n for _, n in names],
    )
    path = out_dir / "archive.npz"
    wlclass.write_challenge_archive(dataset, path)
    return path


def main(argv) -> int:
    """`corpus.py <params-json> <seed> <out-dir>`: one timed set-up."""
    start = time.perf_counter()
    import wlclass  # noqa: F401  (the import is part of set-up time)

    params = CorpusParams(**json.loads(argv[0]))
    path = write_inputs(params, int(argv[1]), Path(argv[2]))
    print(json.dumps({"setup_s": time.perf_counter() - start, "path": str(path)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
