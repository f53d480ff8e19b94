"""Soft-margin SVMs trained by sequential minimal optimization.

The solver is the maximal-violating-pair SMO of LIBSVM with second-order
working-set selection (Fan, Chen & Lin, JMLR 2005). It works on a
precomputed kernel matrix and tracks, for every row t, the bias
v_t = y_t - sum_s alpha_s y_s K(x_s, x_t) that would put x_t exactly on
its margin. Each update takes i, the multiplier in I_up with the largest
v, pairs it with the j in I_low whose exact two-variable step gains the
most, and moves both along the equality constraint sum(alpha_i y_i) = 0
as far as the box allows. It stops when m - M < tol, where m is the
largest v over I_up and M the smallest over I_low (Keerthi et al. 2001:
one gap, not Platt's single threshold). The bias is the mean v over the
free multipliers, or the midpoint of m and M when none is free.
The one model is a one-vs-rest ensemble with argmax over decision
values: machine c is _solve_dual with labels +1 for class c and -1 for
the rest, and every machine is solved against one shared kernel matrix
(tests check _solve_dual itself against a brute-force QP). The ensemble holds
the union of the machines' support rows once, as LIBSVM does: one
vector per row and a rows x classes matrix of alpha * y (model format 4
stores exactly these arrays).

Hitting the update cap (max_iter x n_train pair updates) is not an
error; the machine is recorded with converged=False and callers decide
what that means.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .._checks import integer, labelled_rows, query_rows, real
from ..errors import ClassAbsentError, UsageError

#: Curvature used for a pair whose kernel distance a is not positive (LIBSVM's TAU).
TAU = 1e-12


@dataclass(frozen=True)
class KernelSpec:
    name: str  # "linear" | "rbf"
    gamma: float | None = None  # rbf only

    def __post_init__(self):
        if self.name not in ("linear", "rbf"):
            raise UsageError(f"kernel must be linear or rbf, got {self.name!r}")
        if self.name == "linear" and self.gamma is not None:
            raise UsageError("linear kernel takes no gamma")
        if self.name == "rbf":  # a plain float: the model file's meta is JSON
            object.__setattr__(self, "gamma", real(self.gamma, "gamma", 0, above=True))


def default_gamma(X) -> float:
    """1 / (d * var(X)) over all entries, the common library default."""
    X = np.asarray(X, dtype=np.float64)
    var = float(X.var())
    if var == 0.0:
        var = 1.0
    return 1.0 / (X.shape[1] * var)


def kernel_matrix(spec: KernelSpec, A, B) -> np.ndarray:
    A, B = np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64)
    return _kernel(spec, A, B, (B**2).sum(axis=1) if spec.name == "rbf" else None)


def _kernel(spec: KernelSpec, A, B, b_norms) -> np.ndarray:
    """K(A, B) given b_norms, the squared norm of every row of B (rbf only)."""
    if spec.name == "linear":
        return A @ B.T
    sq = (A**2).sum(axis=1)[:, None] + b_norms[None, :] - 2.0 * (A @ B.T)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-spec.gamma * sq)


@dataclass
class SolverRecord:
    """How a machine's solve ended: m - M < tol?, pair updates taken, final m - M."""

    converged: bool
    updates: int
    kkt_gap: float


def _solve_dual(K, y, C, tol, max_iter) -> tuple:
    """Second-order SMO on the precomputed kernel K; y holds -1/+1.
    Returns (alpha, bias, SolverRecord)."""
    n = len(y)
    y = y.astype(np.float64)
    pos = y > 0
    alpha = np.zeros(n)
    v = y.copy()  # alpha = 0: every row's margin bias is its own label
    diag = K.diagonal().copy()
    up, low = pos.copy(), ~pos  # rows that may raise / lower y_t alpha_t
    updates = 0
    while True:
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = int(np.argmax(v_up))
        m, M = v_up[i], v_low.min()
        if m - M < tol or updates >= max_iter * n:
            break
        Ki = K[i]
        a = np.maximum(diag[i] + diag - 2.0 * Ki, TAU)
        b = np.maximum(m - v_low, 0.0)  # positive only for I_low rows below m
        j = int(np.argmax(b * b / a))
        target_i, target_j = (C if pos[i] else 0.0), (0.0 if pos[j] else C)
        room_i, room_j = abs(target_i - alpha[i]), abs(target_j - alpha[j])
        step = min(b[j] / a[j], room_i, room_j)
        alpha[i] = target_i if step == room_i else alpha[i] + y[i] * step
        alpha[j] = target_j if step == room_j else alpha[j] - y[j] * step
        v -= step * (Ki - K[j])
        for t in (i, j):
            up[t] = alpha[t] < C if pos[t] else alpha[t] > 0.0
            low[t] = alpha[t] > 0.0 if pos[t] else alpha[t] < C
        updates += 1
    free = (alpha > 0.0) & (alpha < C)
    bias = float(v[free].mean()) if free.any() else float((m + M) / 2.0)
    return alpha, bias, SolverRecord(bool(m - M < tol), updates, float(m - M))


@dataclass
class SvmEnsemble:
    """One-vs-rest machines over one support set. support_rows are the
    increasing training rows (< n_train) that some machine uses, and
    support_vectors their rows of X; coef[r, c] is alpha * y of row r in
    machine c, 0 off c's support. Machine c has bias[c] and machines[c].
    The first decision_matrix caches the support vectors' squared norms
    (8 bytes per support row), read-only and never in a file."""

    support_rows: np.ndarray
    support_vectors: np.ndarray
    coef: np.ndarray
    bias: np.ndarray
    kernel: KernelSpec
    C: float
    n_train: int
    machines: list

    @property
    def class_count(self) -> int:
        return len(self.bias)

    @property
    def converged(self) -> bool:
        return all(m.converged for m in self.machines)

    @cached_property
    def _norms(self) -> np.ndarray:
        norms = (self.support_vectors**2).sum(axis=1)
        norms.flags.writeable = False
        return norms

    def decision_matrix(self, X) -> np.ndarray:
        X = query_rows(X, self.support_vectors.shape[1])
        return _kernel(self.kernel, X, self.support_vectors, self._norms) @ self.coef + self.bias

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.decision_matrix(X), axis=1).astype(np.int64)


def train_svm_multiclass(
    X,
    y,
    C: float,
    kernel: KernelSpec | None = None,
    tol: float = 1e-3,
    max_iter: int = 2000,
    n_classes: int | None = None,
) -> SvmEnsemble:
    """One-vs-rest ensemble: one binary machine per class, argmax decision.

    Every machine is solved against one kernel matrix of X. Inputs are
    checked by labelled_rows.

    Raises:
        UsageError: fewer than 2 classes, C or tol not positive, or max_iter below 1.
        ClassAbsentError: some class index in [0, n_classes) has no rows.
    """
    X, y, n_classes = labelled_rows(X, y, n_classes)
    if n_classes < 2:
        raise UsageError("multiclass training needs at least 2 classes")
    C, tol = real(C, "C", 0, above=True), real(tol, "tol", 0, above=True)
    max_iter = integer(max_iter, "max_iter", 1)
    present = np.bincount(y, minlength=n_classes)
    for c in range(n_classes):
        if present[c] == 0:
            raise ClassAbsentError(f"class {c} has zero training rows")
    if kernel is None:
        kernel = KernelSpec("rbf", default_gamma(X))
    K = kernel_matrix(kernel, X, X)
    labels = np.where(y[:, None] == np.arange(n_classes), 1.0, -1.0)
    alpha, bias, machines = zip(*(_solve_dual(K, labels[:, c], C, tol, max_iter)
                                  for c in range(n_classes)))
    alpha = np.column_stack(alpha)
    rows = np.nonzero((alpha > 0.0).any(axis=1))[0]
    coef = np.where(alpha[rows] > 0.0, alpha[rows] * labels[rows], 0.0)  # no -0.0 off support
    return SvmEnsemble(support_rows=rows, support_vectors=X[rows], coef=coef, bias=np.array(bias),
                       kernel=kernel, C=C, n_train=len(y), machines=list(machines))
