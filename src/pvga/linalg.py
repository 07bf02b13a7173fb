"""SPD linear algebra, PCG, randomized SVD, and low-rank covariance updates.

Dense symmetric positive definite factorizations are thin wrappers over
LAPACK (via numpy/scipy) that translate failures into package errors; the
iterative and randomized routines are implemented here because their exact
semantics (iteration counts, breakdown detection, seeding) are part of the
package contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._kernels import lowrank_masked_dots
from .errors import (
    BreakdownError,
    DimensionMismatch,
    InvalidData,
    NotPositiveDefinite,
    RankTooLarge,
    SingularInnerSystem,
)

__all__ = [
    "LowRankFactor",
    "SparsityMask",
    "PcgResult",
    "cholesky",
    "logdet",
    "pcg_solve",
    "rsvd",
    "woodbury_cov",
    "symmetrize",
    "spd_solve",
    "spd_inverse",
    "spd_rcond",
]


def symmetrize(M: np.ndarray) -> np.ndarray:
    """(M + M^t)/2 — suppresses roundoff drift after covariance updates."""
    return (M + M.T) / 2.0


def cholesky(M: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^t = M.

    Raises NotPositiveDefinite when M is not symmetric positive definite.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    scale = np.abs(M).max() if M.size else 0.0
    if scale > 0 and np.abs(M - M.T).max() > 1e-8 * scale:
        raise NotPositiveDefinite("matrix is not symmetric")
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def logdet(M: np.ndarray, chol: np.ndarray | None = None) -> float:
    """ln|M| for SPD M, via the Cholesky factor (optionally precomputed)."""
    L = cholesky(M) if chol is None else chol
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def spd_solve(M: np.ndarray, B: np.ndarray, chol: np.ndarray | None = None) -> np.ndarray:
    """Solve M X = B for SPD M via Cholesky."""
    L = cholesky(M) if chol is None else chol
    return scipy.linalg.cho_solve((L, True), B)


def spd_inverse(M: np.ndarray, chol: np.ndarray | None = None) -> np.ndarray:
    """Inverse of an SPD matrix, symmetrized."""
    L = cholesky(M) if chol is None else chol
    return symmetrize(scipy.linalg.cho_solve((L, True), np.eye(M.shape[0])))


def spd_rcond(M: np.ndarray, chol: np.ndarray | None = None) -> float:
    """Reciprocal 1-norm condition estimate of an SPD matrix.

    Uses LAPACK's ``pocon`` estimator on the Cholesky factor; falls back on an
    eigenvalue ratio if the LAPACK binding is unavailable.
    """
    L = cholesky(M) if chol is None else chol
    anorm = float(np.linalg.norm(M, 1))
    try:
        rcond, info = scipy.linalg.lapack.dpocon(L, anorm, lower=1)
        if info == 0:
            return float(rcond)
    except Exception:
        pass
    w = np.linalg.eigvalsh(M)
    return float(w[0] / w[-1]) if w[-1] > 0 else 0.0


@dataclass
class PcgResult:
    x: np.ndarray
    iterations: int
    converged: bool
    relative_residual: float


def _as_operator(op):
    if op is None:
        return lambda v: v
    if isinstance(op, np.ndarray):
        return lambda v, _M=op: _M @ v
    return op


def pcg_solve(apply_M, b, precond=None, tol: float = 1e-6, maxit: int = 10, x0=None) -> PcgResult:
    """Preconditioned conjugate gradients for SPD operators.

    ``apply_M`` and ``precond`` are either m x m arrays or callables v -> Mv;
    ``precond`` applies the *inverse* of the preconditioning matrix to a
    residual.  Stops when ||Mx - b|| <= tol * ||b|| or after ``maxit``
    iterations.  Raises BreakdownError when a denominator p^t M p becomes
    nonpositive, which signals a non-SPD operator.
    """
    A = _as_operator(apply_M)
    P = _as_operator(precond)
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
    r = b - A(x) if x.any() else b.copy()
    bnorm = float(np.linalg.norm(b))
    tol_abs = tol * bnorm
    rnorm = float(np.linalg.norm(r))
    if rnorm <= tol_abs:
        return PcgResult(x, 0, True, rnorm / bnorm if bnorm > 0 else 0.0)
    z = P(r)
    p = z.copy()
    gamma = float(r @ z)
    iterations = 0
    for _ in range(maxit):
        if gamma <= 0.0:
            raise BreakdownError(f"preconditioned inner product nonpositive ({gamma:.3e})")
        q = A(p)
        denom = float(p @ q)
        if denom <= 0.0:
            raise BreakdownError(f"PCG denominator nonpositive ({denom:.3e}); operator not SPD")
        alpha = gamma / denom
        x = x + alpha * p
        r = r - alpha * q
        iterations += 1
        rnorm = float(np.linalg.norm(r))
        if rnorm <= tol_abs:
            break
        z = P(r)
        gamma_new = float(r @ z)
        p = z + (gamma_new / gamma) * p
        gamma = gamma_new
    return PcgResult(x, iterations, rnorm <= tol_abs, rnorm / bnorm if bnorm > 0 else rnorm)


@dataclass
class LowRankFactor:
    """Rank-r factorization A ~= U diag(S) V^t.

    U is n x r and V is m x r, both column-orthonormal; S holds the
    nonincreasing nonnegative singular values.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        self.S = np.asarray(self.S, dtype=float)
        self.V = np.asarray(self.V, dtype=float)
        if self.U.ndim != 2 or self.V.ndim != 2 or self.S.ndim != 1:
            raise DimensionMismatch("LowRankFactor expects 2-d U, V and 1-d S")
        r = self.S.size
        if self.U.shape[1] != r or self.V.shape[1] != r:
            raise DimensionMismatch("U, S, V rank dimensions disagree")
        if np.any(self.S < 0):
            raise InvalidData("singular values must be nonnegative")
        if np.any(np.diff(self.S) > 1e-12 * max(1.0, float(self.S[0]) if r else 1.0)):
            raise InvalidData("singular values must be nonincreasing")

    @property
    def rank(self) -> int:
        return self.S.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.U.shape[0], self.V.shape[0])

    def dense(self) -> np.ndarray:
        return (self.U * self.S) @ self.V.T


class SparsityMask:
    """Symmetric sparsity pattern on an m x m covariance, diagonal included.

    Stored as coordinate arrays (rows, cols) covering every retained entry,
    including both (i, j) and (j, i) for off-diagonal pairs.
    """

    def __init__(self, dim: int, rows, cols):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise DimensionMismatch("mask rows/cols must be equal-length 1-d arrays")
        if rows.size and (rows.min() < 0 or rows.max() >= dim or cols.min() < 0 or cols.max() >= dim):
            raise DimensionMismatch("mask indices out of range")
        # Symmetrize and add the diagonal, dropping duplicates; the linear
        # index i * dim + j sorts the pairs row-major.
        self.dim = int(dim)
        diag = np.arange(self.dim, dtype=np.int64) * (self.dim + 1)
        keys = np.unique(np.concatenate([rows * self.dim + cols, cols * self.dim + rows, diag]))
        self.rows, self.cols = np.divmod(keys, self.dim)

    @classmethod
    def banded(cls, dim: int, s: int) -> "SparsityMask":
        """Band mask with at most s nonzeros per row (s odd: diagonal + (s-1)/2 bands each side)."""
        if s < 1:
            raise InvalidData("per-row nonzero count s must be >= 1")
        half = (s - 1) // 2
        rows, cols = [], []
        for k in range(-half, half + 1):
            idx = np.arange(max(0, -k), min(dim, dim - k))
            rows.append(idx)
            cols.append(idx + k)
        return cls(dim, np.concatenate(rows), np.concatenate(cols))

    @classmethod
    def grid4(cls, side: int) -> "SparsityMask":
        """4-neighbor mask on a side x side pixel grid (row-major flattening)."""
        idx = np.arange(side * side).reshape(side, side)
        rows, cols = [idx.ravel()], [idx.ravel()]
        rows.append(idx[:-1, :].ravel())
        cols.append(idx[1:, :].ravel())
        rows.append(idx[:, :-1].ravel())
        cols.append(idx[:, 1:].ravel())
        return cls(side * side, np.concatenate(rows), np.concatenate(cols))

    @property
    def nnz(self) -> int:
        return self.rows.size

    @property
    def max_row_count(self) -> int:
        return int(np.bincount(self.rows, minlength=self.dim).max())

    def dense_bool(self) -> np.ndarray:
        B = np.zeros((self.dim, self.dim), dtype=bool)
        B[self.rows, self.cols] = True
        return B

    def apply(self, C: np.ndarray) -> np.ndarray:
        """Zero out all entries of C outside the mask."""
        if C.shape != (self.dim, self.dim):
            raise DimensionMismatch("matrix/mask dimension mismatch")
        out = np.zeros_like(C)
        out[self.rows, self.cols] = C[self.rows, self.cols]
        return out


def _qr(Y: np.ndarray) -> np.ndarray:
    Q, _ = np.linalg.qr(Y)
    return Q


def rsvd(A, r: int, oversample: int = 10, power_iters: int = 2, seed=0) -> LowRankFactor:
    """Randomized SVD: A ~= U diag(S) V^t at rank r.

    Gaussian test matrix with the given oversampling, followed by
    ``power_iters`` rounds of subspace iteration (re-orthonormalized by QR).
    Deterministic for a fixed seed.  ``A`` is a dense array or any object with
    ``matmat``/``rmatmat`` and ``shape`` services.
    """
    if isinstance(A, np.ndarray):
        n, m = A.shape
        matmat = lambda X: A @ X
        rmatmat = lambda X: A.T @ X
    else:
        n, m = A.shape
        matmat = A.matmat
        rmatmat = A.rmatmat
    if not 1 <= r <= min(m, n):
        raise RankTooLarge(f"rank {r} outside [1, {min(m, n)}]")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k = min(r + max(0, oversample), min(m, n))
    omega = rng.standard_normal((m, k))
    Q = _qr(matmat(omega))
    for _ in range(power_iters):
        Q = _qr(matmat(_qr(rmatmat(Q))))
    B = rmatmat(Q).T  # k x m
    W, s, Vt = np.linalg.svd(B, full_matrices=False)
    return LowRankFactor((Q @ W)[:, :r], s[:r], Vt[:r].T)


class _CovServices:
    """Adapter giving uniform access to prior covariance products/entries."""

    def __init__(self, C0):
        if isinstance(C0, np.ndarray):
            self._dense = C0
            self.matmat = lambda X: C0 @ X
            self.entries = lambda rows, cols: C0[rows, cols]
            self.dense = lambda: C0
        else:
            self.matmat = C0.cov_matmat
            self.entries = C0.cov_entries
            self.dense = C0.cov_dense


def woodbury_cov(
    C0,
    F: LowRankFactor,
    d: np.ndarray,
    mask: SparsityMask | None = None,
    return_inner_logdet: bool = False,
) -> np.ndarray | tuple[np.ndarray, float]:
    """Covariance (C0^{-1} + A^t D A)^{-1} for A = U diag(S) V^t, D = diag(d).

    Evaluated without inverting C0, as C0 - W K (I + G K)^{-1} W^t with
    W = C0 V, K = S U^t D U S and G = V^t C0 V; cost O(s m n + r^2 (m + n)).
    With a mask, only the masked entries are materialized (returned as a
    dense matrix that is zero off-mask); each materialized entry equals the
    corresponding entry of the unmasked update.

    With ``return_inner_logdet=True`` also returns ln det(I + K G), which by
    the determinant lemma gives the log-determinant of the *unmasked* update
    as ln|C| = ln|C0| - ln det(I + K G).  Masked projections need not stay
    positive definite, so this is the only cheap route to a well-defined
    log-determinant in masked mode.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise InvalidData("d must be strictly positive")
    U, s, V = F.U, F.S, F.V
    cov = _CovServices(C0)
    K = (s[:, None] * (U.T @ (d[:, None] * U))) * s[None, :]
    W = cov.matmat(V)
    G = V.T @ W
    inner = np.eye(F.rank) + K @ G
    try:
        if F.rank <= 512:
            c = np.linalg.cond(inner)
            if not np.isfinite(c) or c > 1e14:
                raise SingularInnerSystem(f"inner system condition {c:.3e}")
        M = np.linalg.solve(inner, K)
    except np.linalg.LinAlgError as exc:
        raise SingularInnerSystem(str(exc)) from exc
    M = symmetrize(M)
    if return_inner_logdet:
        sign, inner_logdet = np.linalg.slogdet(inner)
        if sign <= 0:
            raise SingularInnerSystem("inner system has non-positive determinant")
    if mask is None:
        C = symmetrize(cov.dense() - W @ M @ W.T)
    else:
        vals = cov.entries(mask.rows, mask.cols) - lowrank_masked_dots(
            np.ascontiguousarray(W @ M), np.ascontiguousarray(W), mask.rows, mask.cols
        )
        C = np.zeros((mask.dim, mask.dim))
        C[mask.rows, mask.cols] = vals
        C = symmetrize(C)
    if return_inner_logdet:
        return C, float(inner_logdet)
    return C
