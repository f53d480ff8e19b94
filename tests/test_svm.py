import itertools

import numpy as np
import pytest

from wlclass.classifiers import (
    KernelSpec,
    default_gamma,
    deserialize_model,
    dual_objective,
    kernel_matrix,
    predict,
    serialize_model,
    train_svm_binary,
    train_svm_multiclass,
)
from wlclass.errors import ClassAbsentError, EmptyInputError, ShapeMismatchError, UsageError
from wlclass.features import covariance_feature_matrix, fit_standardizer
from wlclass.synth import default_26_class_spec, generate_corpus
from wlclass.windowing import WindowPolicy, extract_window


def qp_oracle(X, y, C, kernel):
    """Exact dual optimum by enumerating active sets (n <= 8).

    Every variable is assigned lower bound, upper bound, or free; the free
    block solves the KKT equalities; infeasible assignments are discarded
    and the best feasible objective is the optimum.
    """
    K = kernel_matrix(kernel, X, X)
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
        value = alpha.sum() - 0.5 * alpha @ Q @ alpha
        if best is None or value > best:
            best = float(value)
    return best


LINEAR = KernelSpec("linear")


class TestBinarySmo:
    def test_symmetric_pair(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([-1, 1])
        machine = train_svm_binary(X, y, C=100.0, kernel=LINEAR, tol=1e-6)
        assert machine.converged
        np.testing.assert_allclose(machine.decision_function(np.zeros((1, 1)))[0], 0.0, atol=1e-9)
        np.testing.assert_allclose(machine.decision_function(X), [-1.0, 1.0], atol=1e-6)
        np.testing.assert_allclose(machine.alphas, [0.5, 0.5], atol=1e-6)

    def test_four_point_dual_matches_oracle(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 3.0], [4.0, 3.0]])
        y = np.array([-1, -1, 1, 1])
        machine = train_svm_binary(X, y, C=10.0, kernel=LINEAR, tol=1e-6, max_iter=5000)
        ours = dual_objective(machine, X, y)
        exact = qp_oracle(X, y, 10.0, LINEAR)
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
            machine = train_svm_binary(X, y, C, kernel, tol=1e-6, max_iter=20000)
            ours = dual_objective(machine, X, y)
            exact = qp_oracle(X, y, C, kernel)
            assert ours <= exact + 1e-6
            assert exact - ours <= 1e-4 * max(1.0, abs(exact))

    def test_feasibility_at_solution(self):
        rng = np.random.default_rng(5)
        for C in (0.1, 1.0, 10.0):
            X = rng.normal(size=(30, 3))
            y = np.where(X[:, 0] + 0.3 * rng.normal(size=30) > 0, 1, -1)
            if len(np.unique(y)) < 2:
                continue
            machine = train_svm_binary(X, y, C, LINEAR)
            assert (machine.alphas >= 0).all() and (machine.alphas <= C).all()
            assert abs((machine.alphas * y).sum()) <= 1e-10

    def test_feasibility_of_flagged_iterate(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 2))
        y = np.where(rng.random(40) > 0.5, 1, -1)
        y[0], y[1] = 1, -1
        machine = train_svm_binary(X, y, C=1.0, kernel=KernelSpec("rbf", 0.5), max_iter=1)
        assert (machine.alphas >= 0).all() and (machine.alphas <= 1.0).all()
        assert abs((machine.alphas * y).sum()) <= 1e-10

    def test_kkt_residuals_within_tolerance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(25, 2))
        y = np.where(X[:, 0] > 0, 1, -1)
        tol = 1e-3
        machine = train_svm_binary(X, y, C=1.0, kernel=LINEAR, tol=tol, max_iter=10000)
        assert machine.converged
        margins = y * machine.decision_function(X)
        for i in range(len(y)):
            a = machine.alphas[i]
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
            machine = train_svm_binary(X, y, C, LINEAR, tol=1e-6)
            assert machine.alphas.max() <= C + 1e-12

    def test_non_convergence_flag(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 2))
        y = np.where(rng.random(60) > 0.5, 1, -1)
        y[:2] = [1, -1]
        machine = train_svm_binary(X, y, C=10.0, kernel=KernelSpec("rbf", 5.0), max_iter=1)
        assert not machine.converged
        assert machine.updates == 60 and machine.kkt_gap >= 1e-3
        assert machine.predict(X).shape == (60,)

    def test_preconditions(self):
        with pytest.raises(EmptyInputError):
            train_svm_binary(np.zeros((0, 2)), np.zeros(0), 1.0, LINEAR)
        with pytest.raises(ClassAbsentError):
            train_svm_binary(np.zeros((3, 2)), np.ones(3), 1.0, LINEAR)
        with pytest.raises(UsageError):
            train_svm_binary(np.zeros((2, 2)), np.array([0, 1]), 1.0, LINEAR)
        with pytest.raises(UsageError):
            train_svm_binary(np.array([[1.0], [-1.0]]), np.array([1, -1]), -1.0, LINEAR)


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

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            KernelSpec("poly")
        with pytest.raises(UsageError):
            KernelSpec("rbf")
        with pytest.raises(UsageError):
            KernelSpec("linear", gamma=0.5)


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

    def test_two_class_matches_binary(self):
        X, y = blobs(centers=((0, 0), (8, 8)))
        ensemble = train_svm_multiclass(X, y, C=10.0, kernel=LINEAR, tol=1e-6)
        machine = train_svm_binary(X, np.where(y == 1, 1, -1), 10.0, LINEAR, tol=1e-6)
        ovr = predict(ensemble, X)
        direct = (machine.predict(X) == 1).astype(np.int64)
        np.testing.assert_array_equal(ovr, direct)

    def test_class_absent(self):
        X, y = blobs()
        with pytest.raises(ClassAbsentError):
            train_svm_multiclass(X, y, C=1.0, kernel=LINEAR, n_classes=4)

    def test_score_shift_leaves_argmax_unchanged(self):
        X, y = blobs(seed=14)
        ensemble = train_svm_multiclass(X, y, C=1.0, kernel=KernelSpec("rbf", 0.2))
        queries = np.random.default_rng(15).uniform(-2, 10, size=(30, 2))
        before = predict(ensemble, queries)
        for machine in ensemble.machines:
            machine.bias += 7.25
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
        ensemble = train_svm_multiclass(X, y, C=1.0, kernel=KernelSpec("rbf", 0.2))
        loaded, _ = deserialize_model(serialize_model(ensemble))
        queries = np.random.default_rng(19).uniform(-2, 10, size=(50, 2))
        for model in (ensemble, loaded):
            stacked = np.column_stack([m.decision_function(queries) for m in model.machines])
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
