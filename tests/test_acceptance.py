"""Whole-system checks: every numerical kernel against an independent oracle,
plus end-to-end behavior of the shipped pipeline at realistic scale.

Each test here is one self-contained claim about the package; run with -v to
get a single pass/fail line per claim. The released-archive test is skipped
unless real challenge archives are available (see WLCLASS_DATA_DIR below).
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from wlclass.classifiers import predict
from wlclass.classifiers.forest import train_forest
from wlclass.classifiers.gbt import GbtParams, train_gbt
from wlclass.classifiers.serialize import deserialize_model, serialize_model
from wlclass.classifiers.tree import LEAF
from wlclass.classifiers.svm import KernelSpec, _solve_dual, kernel_matrix
from wlclass.cli import main, read_feature_set
from wlclass.dataset_io import read_array, read_challenge_archive, write_array, write_challenge_archive
from wlclass.errors import WlclassError
from wlclass.features import Standardizer, covariance_feature_matrix, fit_pca
from wlclass.model_selection import (
    GridSpec,
    ReductionSpec,
    evaluate_pipeline,
    fit_reduction,
    grid_search,
)
from wlclass.synth import default_4_class_spec, generate_corpus, make_corpus_spec
from wlclass.windowing import WindowPolicy, build_challenge_dataset

DATA_DIR = Path(os.environ.get("WLCLASS_DATA_DIR", Path(__file__).parent.parent / "data"))

E2E_SEED = 42


def run_full_chain(d):
    """The desk-scale pipeline: 400 synthetic jobs through to a report."""
    start = time.perf_counter()
    assert main(["synth", "--classes", "4", "--noise", "0.3", "--seed", str(E2E_SEED),
                 "--out", str(d / "corpus.csv")]) == 0
    assert main(["window", "--in", str(d / "corpus.csv"), "--policy", "middle",
                 "--seed", str(E2E_SEED), "--out", str(d / "arc.npz")]) == 0
    assert main(["featurize", "--in", str(d / "arc.npz"), "--reduction", "cov",
                 "--out", str(d / "feat.npz")]) == 0
    assert main(["train", "--in", str(d / "feat.npz"), "--model", "rf",
                 "--n-trees", "100", "--seed", "7",
                 "--out", str(d / "model.wlc1")]) == 0
    assert main(["evaluate", "--model-path", str(d / "model.wlc1"),
                 "--in", str(d / "feat.npz"), "--out", str(d / "report.jsonl")]) == 0
    return time.perf_counter() - start


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    d = tmp_path_factory.mktemp("e2e")
    elapsed = run_full_chain(d)
    return {"dir": d, "elapsed": elapsed}


@pytest.fixture(scope="module")
def boosting_features():
    spec = default_4_class_spec(seed=5, jobs_per_class=25)
    dataset = build_challenge_dataset(
        generate_corpus(spec), WindowPolicy("middle", length=540),
        split_ratio=0.8, split_seed=0,
    )
    _, features = fit_reduction(ReductionSpec("cov"), dataset.x_train)
    return features, dataset.y_train


def test_covariance_features_match_naive_gram_oracle():
    rng = np.random.default_rng(101)
    sizes = [(3, 2), (540, 7)]
    while len(sizes) < 1000:
        n = int(round(math.exp(rng.uniform(math.log(3), math.log(540)))))
        sizes.append((n, int(rng.integers(2, 8))))
    start = time.perf_counter()
    for n, m in sizes:
        trial = rng.standard_normal((n, m)) * rng.uniform(0.5, 3.0)
        identity = Standardizer(np.zeros(m), np.ones(m), np.zeros(m, dtype=bool))
        got = covariance_feature_matrix(trial[None], identity)[0]
        assert len(got) == m * (m + 1) // 2
        rows = trial.tolist()
        oracle = []
        for i in range(m):
            for j in range(i, m):
                s = 0.0
                for row in rows:
                    s += row[i] * row[j]
                oracle.append(s)
        oracle = np.array(oracle)
        scale = max(1.0, float(np.abs(oracle).max()))
        np.testing.assert_allclose(got, oracle, rtol=1e-10, atol=1e-10 * scale)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"1000 trials took {elapsed:.2f}s"


def test_pca_matches_dense_eigendecomposition_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for trial in range(30):
        x = rng.standard_normal((50, 20)) * rng.uniform(0.5, 2.0, size=20)
        k = int(rng.integers(2, 13))
        model = fit_pca(x, k)
        centered = x - x.mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / (x.shape[0] - 1))
        order = np.argsort(eigvals)[::-1][:k]
        top_vals, top_vecs = eigvals[order], eigvecs[:, order]
        np.testing.assert_allclose(model.explained_variance, top_vals, atol=1e-8)
        projector = model.components.T @ model.components
        np.testing.assert_allclose(projector, top_vecs @ top_vecs.T, atol=1e-8)
        got_proj = centered @ model.components.T
        oracle_proj = centered @ top_vecs
        np.testing.assert_allclose(np.abs(got_proj), np.abs(oracle_proj), atol=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"30 matrices took {elapsed:.2f}s"


def dual_value(K, y, alpha):
    """The dual objective sum(alpha) - alpha Q alpha / 2, with Q = K * (y y^T)."""
    return float(alpha.sum() - 0.5 * alpha @ (K * np.outer(y, y)) @ alpha)


def qp_oracle(K, y, C):
    """Global max of the dual by enumerating active-set patterns.

    The dual is concave, so its maximum is attained at a KKT point where
    each multiplier is free, at 0, or at C; solving the equality-constrained
    system for every pattern and keeping the best feasible value is an
    exhaustive certificate for these problem sizes.
    """
    n = len(y)
    Q = K * np.outer(y, y)
    best = 0.0
    for pattern in itertools.product((0, 1, 2), repeat=n):
        alpha = np.where(np.array(pattern) == 2, C, 0.0)
        free = [i for i, p in enumerate(pattern) if p == 0]
        if free:
            nf = len(free)
            system = np.zeros((nf + 1, nf + 1))
            system[:nf, :nf] = Q[np.ix_(free, free)]
            system[:nf, nf] = y[free]
            system[nf, :nf] = y[free]
            rhs = np.empty(nf + 1)
            rhs[:nf] = 1.0 - Q[np.ix_(free, range(n))] @ alpha
            rhs[nf] = -float(y @ alpha)
            try:
                sol = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(sol)):
                continue
            if (sol[:nf] < -1e-9).any() or (sol[:nf] > C + 1e-9).any():
                continue
            alpha[free] = np.clip(sol[:nf], 0.0, C)
        if abs(float(y @ alpha)) > 1e-9:
            continue
        best = max(best, dual_value(K, y, alpha))
    return best


def test_smo_dual_reaches_brute_force_qp_optimum():
    rng = np.random.default_rng(303)
    c_values = (0.1, 1.0, 10.0)
    for trial in range(50):
        n = int(rng.integers(3, 9))
        x = rng.standard_normal((n, 2)) * 2.0
        y = np.concatenate([[1, -1], rng.choice([-1, 1], size=n - 2)]).astype(np.int64)
        if trial % 2 == 0:
            kernel = KernelSpec("linear")
        else:
            kernel = KernelSpec("rbf", gamma=float(rng.uniform(0.3, 2.0)))
        C = c_values[trial % 3]
        K = kernel_matrix(kernel, x, x)
        alpha, _, record = _solve_dual(K, y, C, tol=1e-6, max_iter=20000)
        assert record.converged
        assert (alpha >= -1e-10).all()
        assert (alpha <= C + 1e-10).all()
        assert abs(float(alpha @ y)) <= 1e-10
        achieved = dual_value(K, y, alpha)
        optimum = qp_oracle(K, y.astype(np.float64), C)
        assert achieved >= optimum - 1e-4, f"trial {trial}: {achieved} vs {optimum}"
        assert achieved <= optimum + 1e-6


def soft_threshold(g, a):
    return math.copysign(max(abs(g) - a, 0.0), g)


def split_gains(model):
    """Recorded gain of every split node of every tree."""
    table = model.table
    return table.gain[table.feature != LEAF]


def test_gbt_leaf_weights_split_gains_and_training_loss(boosting_features):
    # one round, stump depth: y = [0,0,0,1] gives exact hand sums
    # G = -1.0 / +1.0 and H = 1.0 for the two classes
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 0, 1])
    for alpha, lam in ((0.3, 1.5), (0.0, 1.0), (2.0, 1.0)):
        params = GbtParams(rounds=1, max_depth=0, alpha=alpha, reg_lambda=lam)
        model = train_gbt(x, y, params)
        for class_index, g_hand in ((0, -1.0), (1, 1.0)):
            leaf = model.rounds[0][class_index]
            assert model.table.feature[leaf] == LEAF
            expected = -soft_threshold(g_hand, alpha) / (1.0 + lam)
            assert model.table.value[leaf, 0] == expected, (alpha, lam, class_index)

    features, labels = boosting_features
    gated = train_gbt(features, labels, GbtParams(rounds=12, max_depth=3, gamma=0.5))
    restored, _ = deserialize_model(serialize_model(gated))
    gains = split_gains(restored)
    assert gains.size, "expected the boosted model to contain splits"
    assert (gains > 0.5).all()

    curve = train_gbt(features, labels, GbtParams(rounds=40, max_depth=3))
    losses = np.array(curve.train_loss)
    assert len(losses) == 40
    assert (np.diff(losses) <= 1e-9).all(), "training loss increased"
    assert (split_gains(curve) > 0.0).all()


def test_synthetic_end_to_end_accuracy_and_permutation_floor(e2e):
    start = time.perf_counter()
    records = [json.loads(line) for line in (e2e["dir"] / "report.jsonl").read_text().splitlines()]
    accuracy = records[0]["accuracy"]
    assert accuracy >= 95.0, f"end-to-end accuracy {accuracy}"

    features_train, y_train, features_test, y_test, _ = read_feature_set(e2e["dir"] / "feat.npz")
    permuted = np.random.default_rng(0).permutation(y_train)
    model = train_forest(features_train, permuted, n_trees=100, seed=7)
    shuffled_accuracy = 100.0 * float((predict(model, features_test) == y_test).mean())
    assert shuffled_accuracy <= 35.0, f"permuted-label accuracy {shuffled_accuracy}"

    total = e2e["elapsed"] + (time.perf_counter() - start)
    assert total < 120.0, f"pipeline took {total:.1f}s"


def test_middle_windows_beat_start_windows_on_warmup_corpus():
    spec = make_corpus_spec(
        ["w", "x", "y", "z"], [30, 30, 30, 30], seed=11,
        noise=0.3, length_range=(180, 220), warmup_samples=60,
    )
    corpus = generate_corpus(spec)
    accuracy = {}
    for policy in ("start", "middle"):
        dataset = build_challenge_dataset(
            corpus, WindowPolicy(policy, length=60), split_ratio=0.8, split_seed=3,
        )
        reduction, features = fit_reduction(ReductionSpec("cov"), dataset.x_train)
        model = train_forest(features, dataset.y_train, n_trees=100, seed=1)
        hits = predict(model, reduction.transform(dataset.x_test)) == dataset.y_test
        accuracy[policy] = 100.0 * float(hits.mean())
    gap = accuracy["middle"] - accuracy["start"]
    assert gap >= 10.0, f"middle {accuracy['middle']:.1f} vs start {accuracy['start']:.1f}"


@pytest.mark.skipif(
    not ((DATA_DIR / "60-middle-1.npz").is_file() and (DATA_DIR / "60-random-1.npz").is_file()),
    reason="released challenge archives not present",
)
def test_released_archive_reproduction():
    middle = read_challenge_archive(DATA_DIR / "60-middle-1.npz")
    spec = GridSpec("rf", {"n_trees": [50, 100, 250]}, (ReductionSpec("cov"),), seed=0)
    cv = grid_search(middle.x_train, middle.y_train, spec)
    report = evaluate_pipeline(cv.pipeline, middle.x_test, middle.y_test, middle.model_train)
    assert report.accuracy >= 90.0, f"forest accuracy {report.accuracy}"

    shuffled = read_challenge_archive(DATA_DIR / "60-random-1.npz")
    reduction, features = fit_reduction(ReductionSpec("cov"), shuffled.x_train)
    model = train_gbt(features, shuffled.y_train, GbtParams(rounds=40),
                      n_classes=len(shuffled.model_train))
    hits = predict(model, reduction.transform(shuffled.x_test)) == shuffled.y_test
    assert 100.0 * float(hits.mean()) >= 85.0


def test_mutated_archives_raise_typed_errors_quickly(tmp_path):
    spec = make_corpus_spec(["a", "b", "c"], [4, 4, 4], seed=1, length_range=(30, 35))
    dataset = build_challenge_dataset(
        generate_corpus(spec), WindowPolicy("middle", length=20), split_seed=0,
    )
    base_npz_path = tmp_path / "base.npz"
    write_challenge_archive(dataset, base_npz_path)
    base_npz = base_npz_path.read_bytes()
    base_npy = write_array(np.random.default_rng(2).standard_normal((6, 5)))

    rng = np.random.default_rng(404)
    target = tmp_path / "mutant.npz"

    def mutate(data):
        buf = bytearray(data)
        kind = rng.integers(0, 5)
        if kind == 0:  # flip bytes
            for pos in rng.integers(0, len(buf), size=rng.integers(1, 16)):
                buf[pos] ^= int(rng.integers(1, 256))
        elif kind == 1:  # truncate
            del buf[int(rng.integers(0, len(buf))):]
        elif kind == 2:  # delete a slice
            lo = int(rng.integers(0, len(buf)))
            del buf[lo:lo + int(rng.integers(1, 64))]
        elif kind == 3:  # insert noise
            lo = int(rng.integers(0, len(buf)))
            buf[lo:lo] = bytes(rng.integers(0, 256, size=rng.integers(1, 64), dtype=np.uint8))
        else:  # zero a span
            lo = int(rng.integers(0, len(buf)))
            span = min(len(buf) - lo, int(rng.integers(1, 64)))
            buf[lo:lo + span] = bytes(span)
        return bytes(buf)

    for i in range(10_000):
        start = time.perf_counter()
        if i % 2 == 0:
            target.write_bytes(mutate(base_npz))
            try:
                read_challenge_archive(target)
            except WlclassError:
                pass
        else:
            try:
                read_array(mutate(base_npy))
            except WlclassError:
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"input {i} took {elapsed:.2f}s"


def test_repeat_runs_are_byte_identical(e2e, tmp_path):
    run_full_chain(tmp_path)
    for name in ("model.wlc1", "report.jsonl"):
        assert (tmp_path / name).read_bytes() == (e2e["dir"] / name).read_bytes(), name
