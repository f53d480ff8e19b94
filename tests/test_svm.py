import hashlib
import itertools

import numpy as np
import pytest

from wlclass.classifiers import (
    KernelSpec,
    default_gamma,
    deserialize_model,
    kernel_matrix,
    predict,
    serialize_model,
    train_svm_multiclass,
)
from wlclass.classifiers.svm import _solve_dual
from wlclass.errors import ClassAbsentError, EmptyInputError, ShapeMismatchError, UsageError
from wlclass.features import covariance_feature_matrix, fit_standardizer
from wlclass.synth import default_26_class_spec, generate_corpus
from wlclass.windowing import WindowPolicy, extract_window


def dual_value(K, y, alpha):
    """The dual objective sum(alpha) - alpha Q alpha / 2, with Q = (y y^T) * K."""
    yv = np.asarray(y, dtype=np.float64)
    return float(alpha.sum() - 0.5 * alpha @ (np.outer(yv, yv) * K) @ alpha)


def qp_oracle(K, y, C):
    """Exact dual optimum by enumerating active sets (n <= 8).

    Every variable is assigned lower bound, upper bound, or free; the free
    block solves the KKT equalities; infeasible assignments are discarded
    and the best feasible dual_value is the optimum.
    """
    yv = y.astype(np.float64)
    Q = np.outer(yv, yv) * K
    n = len(y)
    best = None
    for assign in itertools.product((0, 1, 2), repeat=n):
        alpha = np.zeros(n)
        free = [i for i, a in enumerate(assign) if a == 2]
        bound = [i for i, a in enumerate(assign) if a != 2]
        for i in bound:
            if assign[i] == 1:
                alpha[i] = C
        if free:
            fidx = np.array(free)
            bidx = np.array(bound, dtype=int)
            m = len(free)
            A = np.zeros((m + 1, m + 1))
            A[:m, :m] = Q[np.ix_(fidx, fidx)]
            A[:m, m] = yv[fidx]
            A[m, :m] = yv[fidx]
            rhs = np.empty(m + 1)
            rhs[:m] = 1.0 - (Q[np.ix_(fidx, bidx)] @ alpha[bidx] if len(bidx) else 0.0)
            rhs[m] = -(yv[bidx] @ alpha[bidx]) if len(bidx) else 0.0
            sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
            if np.abs(A @ sol - rhs).max() > 1e-8:
                continue
            cand = sol[:m]
            if (cand < -1e-9).any() or (cand > C + 1e-9).any():
                continue
            alpha[fidx] = np.clip(cand, 0.0, C)
        if abs(yv @ alpha) > 1e-8:
            continue
        value = dual_value(K, yv, alpha)
        if best is None or value > best:
            best = value
    return best


LINEAR = KernelSpec("linear")


def solve(X, y, C, kernel, tol=1e-3, max_iter=2000):
    """_solve_dual on the training kernel matrix: (K, alpha, bias, SolverRecord).
    Decision values on the training rows are K @ (alpha * y) + bias."""
    K = kernel_matrix(kernel, X, X)
    return (K, *_solve_dual(K, y, C, tol, max_iter))


class TestBinarySmo:
    def test_symmetric_pair(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1, 1])
        K, alpha, bias, record = solve(X, y, C=100.0, kernel=LINEAR, tol=1e-6)
        assert record.converged
        at_origin = kernel_matrix(LINEAR, np.zeros((1, 1)), X) @ (alpha * y) + bias
        np.testing.assert_allclose(at_origin[0], 0.0, atol=1e-9)
        np.testing.assert_allclose(K @ (alpha * y) + bias, [-1.0, 1.0], atol=1e-6)
        np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-6)

    def test_four_point_dual_matches_oracle(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 3.0], [4.0, 3.0]])
        y = np.array([-1, -1, 1, 1])
        K, alpha, _, _ = solve(X, y, C=10.0, kernel=LINEAR, tol=1e-6, max_iter=5000)
        ours = dual_value(K, y, alpha)
        exact = qp_oracle(K, y, 10.0)
        assert abs(ours - exact) <= 1e-4 * max(1.0, abs(exact))

    def test_dual_optimality_random_small_instances(self):
        rng = np.random.default_rng(99)
        for trial in range(24):
            n = int(rng.integers(4, 9))
            d = int(rng.integers(1, 4))
            X = rng.normal(size=(n, d))
            y = np.ones(n, dtype=np.int64)
            y[: n // 2] = -1
            rng.shuffle(y)
            if len(np.unique(y)) < 2:
                continue
            C = float(rng.choice([0.1, 1.0, 10.0]))
            kernel = LINEAR if trial % 2 == 0 else KernelSpec("rbf", 0.7)
            K, alpha, _, _ = solve(X, y, C, kernel, tol=1e-6, max_iter=20000)
            ours = dual_value(K, y, alpha)
            exact = qp_oracle(K, y, C)
            assert ours <= exact + 1e-6
            assert exact - ours <= 1e-4 * max(1.0, abs(exact))

    def test_feasibility_at_solution(self):
        rng = np.random.default_rng(5)
        for C in (0.1, 1.0, 10.0):
            X = rng.normal(size=(30, 3))
            y = np.where(X[:, 0] + 0.3 * rng.normal(size=30) > 0, 1, -1)
            if len(np.unique(y)) < 2:
                continue
            _, alpha, _, _ = solve(X, y, C, LINEAR)
            assert (alpha >= 0).all() and (alpha <= C).all()
            assert abs(alpha @ y) <= 1e-10

    def test_feasibility_of_flagged_iterate(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 2))
        y = np.where(rng.random(40) > 0.5, 1, -1)
        y[0], y[1] = 1, -1
        _, alpha, _, _ = solve(X, y, C=1.0, kernel=KernelSpec("rbf", 0.5), max_iter=1)
        assert (alpha >= 0).all() and (alpha <= 1.0).all()
        assert abs(alpha @ y) <= 1e-10

    def test_kkt_residuals_within_tolerance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(25, 2))
        y = np.where(X[:, 0] > 0, 1, -1)
        tol = 1e-3
        K, alpha, bias, record = solve(X, y, C=1.0, kernel=LINEAR, tol=tol, max_iter=10000)
        assert record.converged
        margins = y * (K @ (alpha * y) + bias)
        for i in range(len(y)):
            a = alpha[i]
            if a <= 1e-10:
                assert margins[i] >= 1.0 - 2 * tol
            elif a >= 1.0 - 1e-10:
                assert margins[i] <= 1.0 + 2 * tol
            else:
                assert abs(margins[i] - 1.0) <= 2 * tol

    def test_grid_c_values_accepted(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([-1, -1, 1, 1])
        for C in (0.1, 1.0, 10.0):
            _, alpha, _, _ = solve(X, y, C, LINEAR, tol=1e-6)
            assert alpha.max() <= C + 1e-12

    def test_non_convergence_flag(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 2))
        y = np.where(rng.random(60) > 0.5, 1, -1)
        y[:2] = [1, -1]
        K, alpha, bias, record = solve(X, y, C=10.0, kernel=KernelSpec("rbf", 5.0), max_iter=1)
        assert not record.converged
        assert record.updates == 60 and record.kkt_gap >= 1e-3
        assert np.isfinite(K @ (alpha * y) + bias).all()

    def test_preconditions(self):
        with pytest.raises(EmptyInputError):
            train_svm_multiclass(np.zeros((0, 2)), np.zeros(0), 1.0, LINEAR)
        with pytest.raises(ClassAbsentError):
            train_svm_multiclass(np.zeros((3, 2)), np.ones(3), 1.0, LINEAR)
        X, y = np.array([[1.0], [0.0], [-1.0]]), [0, 1, 2]
        with pytest.raises(UsageError, match="C"):
            train_svm_multiclass(X, y, -1.0, LINEAR)
        for bad in ({"tol": 0.0}, {"tol": -1.0}, {"max_iter": 0}, {"max_iter": 2.5}):
            with pytest.raises(UsageError, match=next(iter(bad))):
                train_svm_multiclass(X, y, 1.0, **bad)


class TestKernels:
    def test_default_gamma_formula(self):
        X = np.random.default_rng(9).normal(0, 2.0, size=(50, 4))
        assert default_gamma(X) == 1.0 / (4 * X.var())

    def test_rbf_properties(self):
        rng = np.random.default_rng(10)
        A = rng.normal(size=(6, 3))
        spec = KernelSpec("rbf", 0.3)
        K = kernel_matrix(spec, A, A)
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-12)
        np.testing.assert_allclose(K, K.T, atol=1e-12)
        assert (K > 0).all() and (K <= 1 + 1e-12).all()

    def test_linear_is_gram(self):
        rng = np.random.default_rng(11)
        A, B = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        np.testing.assert_allclose(kernel_matrix(LINEAR, A, B), A @ B.T, rtol=1e-12)

    @pytest.mark.parametrize("kernel", [KernelSpec("rbf", 0.4), LINEAR], ids=["rbf", "linear"])
    def test_decision_matrix_is_the_kernel_matrix_product(self, kernel):
        """The ensemble's cached support-vector norms give the same bits as
        kernel_matrix, which computes them afresh; the cache is read-only."""
        X, y = blobs()
        ensemble = train_svm_multiclass(X, y, 1.0, kernel)
        queries = np.random.default_rng(14).uniform(-2, 10, size=(25, 2))
        for rows in (queries, queries[:1], X):
            expected = (kernel_matrix(kernel, rows, ensemble.support_vectors) @ ensemble.coef
                        + ensemble.bias)
            assert ensemble.decision_matrix(rows).tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            ensemble._norms[0] = 0.0

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            KernelSpec("poly")
        with pytest.raises(UsageError):
            KernelSpec("rbf")
        with pytest.raises(UsageError):
            KernelSpec("linear", gamma=0.5)
        with pytest.raises(UsageError, match="gamma"):
            KernelSpec("rbf", True)

    def test_numpy_float_gamma_saves(self):
        """A NumPy float gamma is stored as a plain float, so its model saves and loads."""
        kernel = KernelSpec("rbf", np.float32(0.5))
        assert type(kernel.gamma) is float
        X, y = blobs()
        loaded, _ = deserialize_model(serialize_model(train_svm_multiclass(X, y, 1.0, kernel)))
        assert loaded.kernel == kernel


def blobs(seed=12, n_per=15, centers=((0, 0), (8, 8), (0, 8))):
    rng = np.random.default_rng(seed)
    X = np.vstack([np.add(c, rng.normal(0, 0.4, size=(n_per, 2))) for c in centers])
    y = np.repeat(np.arange(len(centers)), n_per)
    return X, y


class TestMulticlass:
    def test_blobs_fit_and_centroid_agreement(self):
        X, y = blobs()
        ensemble = train_svm_multiclass(X, y, C=10.0, kernel=LINEAR, tol=1e-5)
        assert (predict(ensemble, X) == y).mean() == 1.0
        centroids = np.array([X[y == c].mean(axis=0) for c in range(3)])
        rng = np.random.default_rng(13)
        queries = rng.uniform(-2, 10, size=(40, 2))
        nearest = np.argmin(
            ((queries[:, None, :] - centroids[None]) ** 2).sum(axis=2), axis=1
        )
        agreement = (predict(ensemble, queries) == nearest).mean()
        assert agreement >= 0.9

    @pytest.mark.parametrize("centers, C, kernel, tol", [
        (((0, 0), (8, 8)), 10.0, LINEAR, 1e-6),
        (((0, 0), (8, 8), (0, 8)), 1.0, KernelSpec("rbf", 0.2), 1e-3),
    ], ids=["2 classes", "3 classes"])
    def test_each_machine_is_the_solver_on_the_shared_kernel(self, centers, C, kernel, tol):
        """Machine c is _solve_dual on the ensemble's kernel matrix with labels
        +1 for class c and -1 for the rest."""
        X, y = blobs(centers=centers)
        ensemble = train_svm_multiclass(X, y, C=C, kernel=kernel, tol=tol)
        K = kernel_matrix(kernel, X, X)
        for c, record in enumerate(ensemble.machines):
            signs = np.where(y == c, 1, -1)
            alpha, bias, expected = _solve_dual(K, signs, C, tol, 2000)
            coef = np.zeros(len(y))
            coef[ensemble.support_rows] = ensemble.coef[:, c]
            np.testing.assert_allclose(coef, alpha * signs, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ensemble.bias[c], bias, rtol=0, atol=1e-12)
            assert record == expected

    def test_class_absent(self):
        X, y = blobs()
        with pytest.raises(ClassAbsentError):
            train_svm_multiclass(X, y, C=1.0, kernel=LINEAR, n_classes=4)

    def test_score_shift_leaves_argmax_unchanged(self):
        X, y = blobs(seed=14)
        ensemble = train_svm_multiclass(X, y, C=1.0, kernel=KernelSpec("rbf", 0.2))
        queries = np.random.default_rng(15).uniform(-2, 10, size=(30, 2))
        before = predict(ensemble, queries)
        ensemble.bias += 7.25
        after = predict(ensemble, queries)
        np.testing.assert_array_equal(before, after)

    def test_empty_query(self):
        X, y = blobs(seed=16)
        ensemble = train_svm_multiclass(X, y, C=1.0, kernel=LINEAR)
        assert predict(ensemble, np.zeros((0, 2))).shape == (0,)

    def test_determinism(self):
        X, y = blobs(seed=17)
        a = serialize_model(train_svm_multiclass(X, y, C=1.0, kernel=LINEAR))
        b = serialize_model(train_svm_multiclass(X, y, C=1.0, kernel=LINEAR))
        assert a == b

    def test_shared_kernel_decision_matrix_matches_per_machine(self):
        X, y = blobs(seed=18, n_per=20)
        kernel = KernelSpec("rbf", 0.2)
        ensemble = train_svm_multiclass(X, y, C=1.0, kernel=kernel)
        loaded, _ = deserialize_model(serialize_model(ensemble))
        queries = np.random.default_rng(19).uniform(-2, 10, size=(50, 2))
        K, to_queries = kernel_matrix(kernel, X, X), kernel_matrix(kernel, queries, X)
        stacked = []
        for c in range(3):
            signs = np.where(y == c, 1, -1)
            alpha, bias, _ = _solve_dual(K, signs, 1.0, 1e-3, 2000)
            stacked.append(to_queries @ (alpha * signs) + bias)
        stacked = np.column_stack(stacked)
        for model in (ensemble, loaded):
            shared = model.decision_matrix(queries)
            np.testing.assert_allclose(shared, stacked, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(predict(model, queries), np.argmax(stacked, axis=1))
        with pytest.raises(ShapeMismatchError):
            ensemble.decision_matrix(np.zeros((3, 5)))


def test_every_machine_converges_at_realistic_scale():
    """26 one-vs-rest machines on 1049 covariance rows, at the default max_iter."""
    trials = generate_corpus(default_26_class_spec(seed=7, scale=0.3))
    policy = WindowPolicy("middle", length=540)
    x = np.stack([extract_window(t, policy).data for t in trials])
    y = np.array([t.label for t in trials])
    X = covariance_feature_matrix(x, fit_standardizer(x))
    tol = 1e-3
    ensemble = train_svm_multiclass(X, y, C=1.0, tol=tol)
    assert X.shape == (1049, 28) and len(ensemble.machines) == 26
    for c, machine in enumerate(ensemble.machines):
        assert machine.converged, f"class {c}: gap {machine.kkt_gap} after {machine.updates}"
        assert machine.kkt_gap <= tol
        assert 0 < machine.updates <= 2000 * len(y)


#: sha256 of serialize_model(train_svm_multiclass(X, y, **params)) on cov_matrix():
#: a change to how an ensemble is built or held must leave its model file's bytes alone.
PINNED_MODELS = {
    "rbf defaults": ({"C": 1.0},
                     "8b10c78293ff5ef962cb4a9d9d0573235ee99b2c36aab7aa50fbf3e030b1402c"),
    "linear, C=10": ({"C": 10.0, "kernel": KernelSpec("linear")},
                     "a66b5ed7a63f65d380db6b04ef9c9a4e4c2f6d77472517a25cc65db5a71b3a5c"),
    "5 machines at max_iter": ({"C": 100.0, "tol": 1e-5, "max_iter": 1},
                               "57f231cfdc00e8b6f3bb406f428b62dc131af1daa2b87fb3cf6c88274dabff47"),
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
    model = train_svm_multiclass(X, y, **params)
    stalled = sum(not m.converged for m in model.machines)
    assert stalled == (5 if "max_iter" in params else 0)
    assert hashlib.sha256(serialize_model(model)).hexdigest() == digest
