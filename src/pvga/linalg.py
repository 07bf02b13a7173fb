"""SPD linear algebra, PCG, randomized SVD, and low-rank covariance updates.

Dense symmetric positive definite factorizations are thin wrappers over
LAPACK (via numpy/scipy) that translate failures into package errors; the
iterative and randomized routines are implemented here because their exact
semantics (iteration counts, breakdown detection, seeding) are part of the
package contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    "WoodburyBasis",
    "PcgResult",
    "cholesky",
    "logdet",
    "pcg_solve",
    "rsvd",
    "woodbury_basis",
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
    """Reciprocal 1-norm condition estimate of an SPD matrix, from LAPACK's
    ``pocon`` estimator on the (lower) Cholesky factor."""
    L = cholesky(M) if chol is None else chol
    rcond, _info = scipy.linalg.lapack.dpocon(L, float(np.linalg.norm(M, 1)), uplo="L")
    return float(rcond)


@dataclass
class PcgResult:
    x: np.ndarray
    iterations: int
    converged: bool
    relative_residual: float


def pcg_solve(apply_M, b, precond=None, tol: float = 1e-6, maxit: int = 10) -> PcgResult:
    """Preconditioned conjugate gradients for SPD operators, from x = 0.

    ``apply_M`` and ``precond`` are callables v -> Mv; ``precond`` applies
    the *inverse* of the preconditioning matrix to a residual (the identity
    when None).  Stops when ||Mx - b|| <= tol * ||b|| or after ``maxit``
    iterations.  Raises BreakdownError when a denominator p^t M p becomes
    nonpositive, which signals a non-SPD operator.

    The iteration runs on b / 2^e, with 2^e the power of two just above
    ||b|| (taken by BLAS nrm2, which stays finite and nonzero where
    sqrt(b.b) would overflow or underflow), and scales the solution back.
    Scaling by a power of two is exact, so the iterates are those of b
    itself, while the inner products stay finite for any finite b.
    """
    P = precond if precond is not None else (lambda v: v)
    b = np.asarray(b, dtype=float)
    e = math.frexp(scipy.linalg.norm(b, check_finite=False))[1]
    x = np.zeros_like(b)
    r = np.ldexp(b, -e)
    bnorm = rnorm = float(np.linalg.norm(r))
    tol_abs = tol * bnorm
    if rnorm <= tol_abs:
        return PcgResult(x, 0, True, rnorm / bnorm if bnorm > 0 else 0.0)
    z = P(r)
    p = z.copy()
    gamma = float(r @ z)
    iterations = 0
    for _ in range(maxit):
        if gamma <= 0.0:
            raise BreakdownError(f"preconditioned inner product nonpositive ({gamma:.3e})")
        q = apply_M(p)
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
    return PcgResult(np.ldexp(x, e), iterations, rnorm <= tol_abs, rnorm / bnorm if bnorm > 0 else rnorm)


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
    including both (i, j) and (j, i) for off-diagonal pairs.  A masked
    covariance is a vector of values aligned with these arrays.  The index
    maps that masked kernels need (:meth:`mirror`, :meth:`diagonal_offsets`,
    :meth:`grid_offsets`) are derived on first use and cached.
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
        self._derived: dict = {}

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

    def same_pattern(self, other: "SparsityMask") -> bool:
        """Whether ``other`` retains the same entries (rows/cols are sorted,
        so equal patterns give equal arrays and aligned values)."""
        return other is self or (
            other.dim == self.dim
            and np.array_equal(other.rows, self.rows)
            and np.array_equal(other.cols, self.cols)
        )

    def mirror(self) -> tuple[np.ndarray, np.ndarray]:
        """(upper, idx): the positions of the pairs with row <= col, and for
        every pair the index into ``upper`` of itself or its transpose, so
        ``vals[upper][idx]`` rebuilds a symmetric value vector."""
        if "mirror" not in self._derived:
            is_upper = self.rows <= self.cols
            rank = np.cumsum(is_upper) - 1  # position among the upper pairs
            own = np.searchsorted(self.rows * self.dim + self.cols,
                                  np.minimum(self.rows, self.cols) * self.dim
                                  + np.maximum(self.rows, self.cols))
            self._derived["mirror"] = (np.flatnonzero(is_upper), rank[own])
        return self._derived["mirror"]

    def diagonal_offsets(self) -> tuple[list, np.ndarray]:
        """The upper pairs (``mirror()[0]``) grouped by diagonal offset
        d = col - row, as (bands, rest): one (d, p) per offset whose pairs
        fill at least half of their row span, p their positions among the
        upper pairs in ascending row order, and the positions of all other
        upper pairs.  grid4 has the bands 0, 1 and side; a banded mask one
        band per diagonal."""
        if "diagonal" not in self._derived:
            upper = self.mirror()[0]
            rows, d = self.rows[upper], self.cols[upper] - self.rows[upper]
            order = np.argsort(d, kind="stable")  # rows stay ascending within an offset
            starts = np.flatnonzero(np.diff(d[order], prepend=-1))
            bands, rest = [], []
            for p in np.split(order, starts[1:]):
                if 2 * p.size >= rows[p[-1]] - rows[p[0]] + 1:
                    bands.append((int(d[p[0]]), p))
                else:
                    rest.append(p)
            rest = np.sort(np.concatenate(rest)) if rest else np.empty(0, np.int64)
            self._derived["diagonal"] = (bands, rest)
        return self._derived["diagonal"]

    def grid_offsets(self, side: int) -> list:
        """The pairs grouped by offset on a side x side grid (row-major).

        One entry (d1, d2, p, r1, r2) per distinct offset: the pairs at
        positions p go from pixel (r1, r2) to pixel (r1 + d1, r2 + d2).
        """
        key = ("offsets", side)
        if key not in self._derived:
            if side * side != self.dim:
                raise DimensionMismatch(f"mask of dimension {self.dim} is not a {side} x {side} grid")
            r1, r2 = np.divmod(self.rows, side)
            c1, c2 = np.divmod(self.cols, side)
            d1, d2 = c1 - r1, c2 - r2
            code = (d1 + side) * (2 * side + 1) + (d2 + side)
            order = np.argsort(code, kind="stable")
            starts = np.flatnonzero(np.diff(code[order], prepend=-1))
            groups = []
            for p in np.split(order, starts[1:]):
                groups.append((int(d1[p[0]]), int(d2[p[0]]), p, r1[p], r2[p]))
            self._derived[key] = groups
        return self._derived[key]


def rsvd(A, r: int, oversample: int = 10, power_iters: int = 2, seed=0) -> LowRankFactor:
    """Randomized SVD: A ~= U diag(S) V^t at rank r.

    Gaussian test matrix with the given oversampling, followed by
    ``power_iters`` rounds of subspace iteration (Halko, Martinsson & Tropp
    2011, algorithms 4.4 and 5.1).  Every tall block is normalized by
    Cholesky QR (:func:`_cholesky_qr`): GEMMs plus k x k factorizations, all
    on numpy's runtime, where the blur's products run too.  The iterations
    need only a well-conditioned basis with the right column span
    (sec. 4.5), as a rule one shifted pass; the final Y = Q R and
    B^t = A^t Q = Q2 R2 are orthonormalized, and the SVD R2 = W diag(s) Z^t
    of the k x k block gives U = Q Z and V = Q2 W.  The products are read
    in Fortran order, so the factor does not depend on the layout an
    operator returns.  Deterministic for a fixed seed; the
    arrays ``A``'s products return are never written.  ``A`` is an operator
    with ``matmat``/``rmatmat`` and ``shape`` (a dense array goes through
    ``ForwardOperator.from_dense``).
    """
    n, m = A.shape
    if not 1 <= r <= min(m, n):
        raise RankTooLarge(f"rank {r} outside [1, {min(m, n)}]")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k = min(r + max(0, oversample), min(m, n))

    def matmat(X):
        return np.asfortranarray(A.matmat(X))

    def rmatmat(X):
        return np.asfortranarray(A.rmatmat(X))

    Y = matmat(rng.standard_normal((m, k)))
    for _ in range(power_iters):
        Y = matmat(_cholesky_qr(rmatmat(_cholesky_qr(Y, span=True)[0]), span=True)[0])
    Q = _cholesky_qr(Y)[0]
    Q2, R2 = _cholesky_qr(rmatmat(Q))
    W, s, Zt = np.linalg.svd(R2)
    return LowRankFactor(Q @ Zt[:r].T, s[:r], Q2 @ W[:, :r])


# Cholesky QR passes before the Householder fallback (shifted CholeskyQR3)
_CHOLQR_PASSES = 3
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _cholesky_qr(Y: np.ndarray, span: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Y = Q R with Q n x k column-orthonormal and R k x k upper triangular,
    by shifted Cholesky QR (Fukaya, Kannan, Nakatsukasa, Yamamoto &
    Yanagisawa 2020): GEMMs on the tall block and k x k factorizations.

    A pass factors the Gram matrix G = Q^t Q = L L^t and sets Q <- Q L^-t,
    R <- L^t R.  The first pass factors G + s I with the shift
    s = 11 (nk + k(k+1)) u tr(G), which keeps the factorization defined for
    any nonzero block; later passes are unshifted, and they repeat until G
    is the identity to within 10 sqrt(n) u, the rounding error of its
    n-term dot products.

    As s ||L^-1||_F^2 >= s / lambda_min(L L^t), the test
    s ||L^-1||_F^2 <= 1/2 certifies lambda_min(L L^t) >= 2s: on the first
    pass, that the shift at most doubled any eigenvalue of G, so it damped
    no direction of Y by more than sqrt(2); on a later pass, that G is at
    least 2s away from singular.  With ``span`` the result only has to span
    Y's columns well, and it is returned after the first pass when that
    test holds and after the second otherwise (a direction damped on every
    power iteration would fade out of the span).

    Householder QR of Y itself is the one fallback.  It takes the zero
    block, a block whose Gram matrix overflows or underflows, one whose
    later pass fails the test above (numerically rank deficient, where
    Cholesky QR loses accuracy), and one the passes do not orthonormalize
    in ``_CHOLQR_PASSES``.
    """
    n, k = Y.shape
    eye = np.eye(k)
    shift = 11.0 * (n * k + k * (k + 1)) * _UNIT_ROUNDOFF
    tol = 10.0 * math.sqrt(n) * _UNIT_ROUNDOFF
    Q, R = Y, None
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(_CHOLQR_PASSES + 1):
                G = Q.T @ Q
                if j > 0 and np.abs(G - eye).max() <= tol:
                    return Q, R
                s = shift * np.trace(G)
                if j == _CHOLQR_PASSES or not 1e-300 < s < 1e290:
                    break
                L = np.linalg.cholesky(G + s * eye if j == 0 else G)
                Linv = np.linalg.inv(L)
                damped = not s * np.sum(Linv * Linv) <= 0.5
                if j > 0 and damped:
                    break
                Q = Q @ Linv.T
                R = L.T if R is None else L.T @ R
                if span and (j > 0 or not damped):
                    return Q, R
    except np.linalg.LinAlgError:
        pass
    return np.linalg.qr(Y)


class WoodburyBasis(NamedTuple):
    """The rate-free half of the Woodbury update, built by
    :func:`woodbury_basis` from a prior and a rank-r factor U diag(S) V^t of
    A: the factor's U (n x r) and S, W = C0 V (m x r), and the upper
    Cholesky factor R of G = V^t C0 V = R^t R.  V itself is not kept."""

    U: np.ndarray
    S: np.ndarray
    W: np.ndarray
    R: np.ndarray


def woodbury_basis(prior, factor: LowRankFactor) -> WoodburyBasis:
    """The basis that every Woodbury step at any rates reuses.

    It depends only on the prior and the factor, so a solver builds it once
    and drops the factor's V.  Raises SingularInnerSystem when G = V^t C0 V
    is not positive definite.
    """
    W = prior.cov_matmat(factor.V)
    try:
        R = cholesky(factor.V.T @ W).T
    except NotPositiveDefinite as exc:
        raise SingularInnerSystem(f"V^t C0 V: {exc}") from exc
    return WoodburyBasis(factor.U, factor.S, W, R)


def woodbury_cov(
    prior,
    basis: WoodburyBasis,
    d: np.ndarray,
    mask: SparsityMask | None = None,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Covariance (C0^{-1} + A^t D A)^{-1} for A = U diag(S) V^t, D = diag(d),
    with C0 the covariance of ``prior`` and (U, S, W, R) its ``basis``.

    Evaluated without inverting C0, as C0 - W M W^t with W = C0 V,
    K = S U^t D U S and M = K (I + G K)^{-1}, G = V^t C0 V.  With G = R^t R
    the inner system is the SPD matrix I + R K R^t = Li Li^t, so

        M = K - B^t B,   B = Li^{-1} R K,

    and one Cholesky factor gives M, the determinant and a ``pocon``
    singularity guard; cost O(r^2 (m + n) + r^3) per call.  With a mask,
    only the masked entries are computed and returned, as a vector aligned
    with ``mask.rows``/``mask.cols``: each pair i <= j is computed once and
    mirrored, and equals the corresponding entry of the unmasked update.  No
    m x m array is formed.

    Returns the covariance, ln det(I + K G) = 2 sum ln diag(Li), and the
    r x r matrix M.  By the determinant lemma the log-determinant of the
    *unmasked* update is ln|C| = ln|C0| - ln det(I + K G).  Masked
    projections need not stay positive definite, so this is the only cheap
    route to a well-defined log-determinant in masked mode; and W and M give
    the unmasked update's product v -> C0 v - W M W^t v without an m x m
    array.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise InvalidData("d must be strictly positive")
    U, s, W, R = basis
    K = symmetrize((s[:, None] * (U.T @ (d[:, None] * U))) * s[None, :])
    RK = R @ K
    inner = np.eye(s.size) + RK @ R.T
    try:
        Li = cholesky(inner)
    except NotPositiveDefinite as exc:
        raise SingularInnerSystem(f"inner system: {exc}") from exc
    rcond = spd_rcond(inner, chol=Li)
    if not rcond >= 1e-14:
        raise SingularInnerSystem(f"inner system reciprocal condition {rcond:.3e}")
    # numpy's solve, not scipy's triangular one: between numpy's GEMMs and
    # Cholesky a scipy call switches OpenBLAS runtimes (README, Kernels)
    B = np.linalg.solve(Li, RK)
    M = K - B.T @ B
    if mask is None:
        C = symmetrize(prior.cov_dense() - W @ M @ W.T)
    else:
        upper, idx = mask.mirror()
        rows, cols = mask.rows[upper], mask.cols[upper]
        vals = prior.cov_entries(rows, cols) - lowrank_masked_dots(
            np.ascontiguousarray(W @ M), np.ascontiguousarray(W), rows, cols, mask.diagonal_offsets()
        )
        C = vals[idx]
    return C, 2.0 * float(np.sum(np.log(np.diag(Li)))), M
