"""SPD linear algebra, PCG, randomized SVD, and low-rank covariance updates.

Dense symmetric positive definite factorizations are thin wrappers over
numpy's LAPACK and BLAS (scipy's only in :func:`spd_rcond`, and scipy's
BLAS norm in :func:`pcg_solve`) that translate failures into package
errors; the iterative and randomized routines are implemented here
because their exact semantics (iteration counts, breakdown detection,
seeding) are part of the package contract.
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
    is_count,
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
    "lower_inverse",
    "spd_solve",
    "spd_inverse",
    "spd_rcond",
]


# The trust limit on a system's condition number: the solver's dense
# covariance step, its Newton guard and the Woodbury inner system raise
# above it.
_COND_LIMIT = 1e14


def symmetrize(M: np.ndarray) -> np.ndarray:
    """(M + M^t)/2 — suppresses roundoff drift after covariance updates."""
    return (M + M.T) / 2.0


def _max_abs(X: np.ndarray) -> float:
    """max |X| without a temporary of X's size (NaN if X holds one)."""
    return max(X.max(), -X.min())


def _off_identity(G: np.ndarray) -> float:
    """max |G - I| for a square G, with one temporary of G's size."""
    D = G.copy()
    D[np.diag_indices(len(D))] -= 1.0
    return _max_abs(D)


def cholesky(M: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^t = M.

    Raises NotPositiveDefinite when M is not symmetric positive definite.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    scale = _max_abs(M) if M.size else 0.0
    if scale > 0 and _max_abs(M - M.T) > 1e-8 * scale:
        raise NotPositiveDefinite("matrix is not symmetric")
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def logdet(L: np.ndarray) -> float:
    """ln|M| for SPD M from its lower Cholesky factor L."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))


# Order of the diagonal blocks that lower_inverse hands to numpy's LU
# inverse; larger ones are split in halves and joined by GEMMs.
_INVERSE_BLOCK = 32


def lower_inverse(L: np.ndarray) -> np.ndarray:
    """L^{-1} for a nonsingular lower-triangular L, exactly lower triangular:
    :func:`_invert_lower` applied to a copy of L."""
    return _invert_lower(np.array(L, dtype=float, order="C"))


def _invert_lower(L: np.ndarray) -> np.ndarray:
    """Overwrite a nonsingular lower-triangular L, zero above its diagonal,
    with L^{-1}, and return it.

    By halves, [[L11, 0], [L21, L22]]^{-1} = [[X11, 0], [-X22 L21 X11, X22]]
    with X11 = L11^{-1} and X22 = L22^{-1}, down to diagonal blocks of at
    most 32 rows, which numpy's LU inverts (the roundoff its pivoting
    leaves above their diagonal is cleared).  The halves are inverted in
    their own places and X22 (-L21 X11) is written over L21, so the call
    holds one (m/2)^2 temporary.  About 2 m^3 / 3 flops, nearly all in
    GEMMs, on numpy's runtime (README, Kernels)."""
    m = L.shape[0]
    if m <= _INVERSE_BLOCK:
        L[...] = np.tril(np.linalg.inv(L))
        return L
    h = m // 2
    X11 = _invert_lower(L[:h, :h])
    X22 = _invert_lower(L[h:, h:])
    T = L[h:, :h] @ X11
    np.negative(T, out=T)
    np.matmul(X22, T, out=L[h:, :h])
    return L


def spd_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve M X = B for SPD M given its lower Cholesky factor L, as
    L^{-t} (L^{-1} B) with :func:`lower_inverse`."""
    X = lower_inverse(L)
    return X.T @ (X @ B)


def spd_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of an SPD matrix from its lower Cholesky factor L, as
    X^t X with X = L^{-1} (:func:`lower_inverse`).  numpy forms the product
    of an array with its own transpose by BLAS syrk, which writes one
    triangle and mirrors it, so the result is exactly symmetric."""
    X = lower_inverse(L)
    return X.T @ X


def spd_rcond(M: np.ndarray, L: np.ndarray) -> float:
    """Reciprocal 1-norm condition estimate of an SPD matrix M, by LAPACK's
    ``pocon`` on its lower Cholesky factor L (no solver step calls it)."""
    rcond, _info = scipy.linalg.lapack.dpocon(L, float(np.linalg.norm(M, 1)), uplo="L")
    return float(rcond)


@dataclass
class PcgResult:
    x: np.ndarray
    iterations: int
    converged: bool


def pcg_solve(apply_M, b, precond=None, tol: float = 1e-6, maxit: int = 200) -> PcgResult:
    """Preconditioned conjugate gradients for SPD operators, from x = 0.

    ``apply_M`` and ``precond`` are callables v -> Mv; ``precond`` applies
    the *inverse* of the preconditioning matrix to a residual (the identity
    when None).  Stops when ||Mx - b|| <= tol * ||b|| or after ``maxit``
    iterations; the defaults are those of the solver's Newton steps.  Raises
    BreakdownError when a denominator p^t M p becomes nonpositive, which
    signals a non-SPD operator.

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
        return PcgResult(x, 0, True)
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
    return PcgResult(np.ldexp(x, e), iterations, rnorm <= tol_abs)


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
        if not (is_count(dim) and dim >= 1):
            raise InvalidData(f"mask dim must be a positive integer, got {dim!r}")
        rows, cols = np.asarray(rows), np.asarray(cols)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise DimensionMismatch("mask rows/cols must be equal-length 1-d arrays")
        # an index its int64 conversion would change (0.5, nan, True) is
        # refused, not truncated
        for idx in (rows, cols):
            if idx.dtype.kind not in "iuf" or (idx.dtype.kind == "f" and not np.all(idx == np.trunc(idx))):
                raise InvalidData("mask indices must be integers")
        if rows.size and (rows.min() < 0 or rows.max() >= dim or cols.min() < 0 or cols.max() >= dim):
            raise DimensionMismatch("mask indices out of range")
        rows, cols = rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)
        # Symmetrize and add the diagonal, dropping duplicates; the linear
        # index i * dim + j sorts the pairs row-major.
        self.dim = int(dim)
        diag = np.arange(self.dim, dtype=np.int64) * (self.dim + 1)
        keys = np.unique(np.concatenate([rows * self.dim + cols, cols * self.dim + rows, diag]))
        self.rows, self.cols = np.divmod(keys, self.dim)
        self._derived: dict = {}

    @classmethod
    def banded(cls, dim: int, s: int) -> "SparsityMask":
        """Band mask with at most s nonzeros per row: the diagonal and (s-1)/2
        bands on each side, so s must be odd."""
        if not (is_count(s) and s >= 1 and s % 2 == 1):
            raise InvalidData(f"per-row nonzero count s must be a positive odd integer, got {s!r}")
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
    2011, algorithms 4.4 and 5.1).  Every tall block is orthonormalized by
    Cholesky QR (:func:`_cholesky_qr`): GEMMs plus k x k factorizations, all
    on numpy's runtime, where the blur's products run too.  The iterations
    need only a well-conditioned basis with the right column span
    (sec. 4.5), as a rule one shifted pass.  The final range basis Q of Y
    and the basis Q2 of A^t Q are orthonormal, and the SVD
    Q^t A Q2 = (A^t Q)^t Q2 = Uc diag(s) Vc^t of the k x k core gives
    U = Q Uc and V = Q2 Vc.
    Deterministic for a fixed seed; the arrays ``A``'s products return are
    never written.  ``A`` is an operator with ``matmat``/``rmatmat`` and
    ``shape`` (a dense array goes through ``ForwardOperator.from_dense``).

    Block budget, with k = r + oversample: at most three n x k or m x k
    blocks are alive at once, beside two k x k matrices or one and a row
    block (:func:`_row_blocks`), the Householder fallback aside.  Every
    block is held in Fortran order, which the blur's stacked product reads
    as a view, and is dropped as soon as the next one exists; the products
    are read in that order too, so the factor does not depend on the layout
    an operator returns.  U and V are formed in place of Q and Q2, in row
    blocks.
    """
    n, m = A.shape
    if not 1 <= r <= min(m, n):
        raise RankTooLarge(f"rank {r} outside [1, {min(m, n)}]")
    rng = np.random.default_rng(seed)
    k = min(r + max(0, oversample), min(m, n))

    def matmat(X):
        return np.asfortranarray(A.matmat(X))

    def rmatmat(X):
        return np.asfortranarray(A.rmatmat(X))

    Y = matmat(np.asfortranarray(rng.standard_normal((m, k))))
    for product in (rmatmat, matmat) * power_iters:
        Q = _cholesky_qr(Y, span=True)
        del Y
        Y = product(Q)
        del Q
    Q = _cholesky_qr(Y)
    del Y
    Y = rmatmat(Q)
    Q2 = _cholesky_qr(Y)
    core = Y.T @ Q2
    del Y
    Uc, s, Vct = np.linalg.svd(core)
    return LowRankFactor(_times_in_place(Q, Uc[:, :r]), s[:r], _times_in_place(Q2, Vct[:r].T))


# Element budget of the row blocks that the products below work in (rsvd's
# in-place products, woodbury_basis's prior solves, the masked Woodbury
# sums), raised to r^2 at rank r by _row_blocks; as _kernels._CHUNK_ELEMS,
# a constant, not a setting.
_BLOCK_ELEMS = 2**16


def _row_blocks(n: int, width: int) -> list:
    """Slices of consecutive rows of an n-row array whose blocks of ``width``
    columns hold at most max(_BLOCK_ELEMS, q^2) elements, q = min(n, width),
    at least one row each.  The floor q^2 is the size of the q x q matrices
    the callers hold anyway: at high rank a row block of an m x r array
    then has at least r rows, so the tall work stays a few large GEMMs
    rather than many r x r temporaries.  Column blocks of an m x r array
    are the row blocks of its transpose, _row_blocks(r, m)."""
    q = min(n, width)
    step = max(1, max(_BLOCK_ELEMS, q * q) // max(width, 1))
    return [slice(lo, min(n, lo + step)) for lo in range(0, n, step)]


def _times_in_place(Q: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Q M for a k x c matrix M (c <= k), written over Q's first c columns
    in row blocks; returns that part of Q."""
    c = M.shape[1]
    for rows in _row_blocks(Q.shape[0], Q.shape[1]):
        Q[rows, :c] = (M.T @ Q[rows].T).T
    return Q[:, :c]


# Cholesky QR passes before the Householder fallback (shifted CholeskyQR3)
_CHOLQR_PASSES = 3
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _cholesky_qr(Y: np.ndarray, span: bool = False) -> np.ndarray:
    """Q of Y = Q R, n x k column-orthonormal, by shifted Cholesky QR
    (Fukaya, Kannan, Nakatsukasa, Yamamoto & Yanagisawa 2020): GEMMs on the
    tall block and k x k factorizations.  R is not formed; a caller that
    needs the coefficients takes Q^t Y.

    A pass factors the Gram matrix G = Q^t Q = L L^t, overwrites L with
    L^-1 (:func:`_invert_lower`) and sets Q <- Q L^-t.
    The first pass factors G + s I with the shift
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
    in ``_CHOLQR_PASSES``.  Y is kept for it and never written: the first
    pass copies it into Q, in Fortran order, and every pass multiplies Q in
    place in row blocks, so a call holds one n x k block besides Y, and
    two k x k matrices or one and a row block.
    """
    n, k = Y.shape
    shift = 11.0 * (n * k + k * (k + 1)) * _UNIT_ROUNDOFF
    tol = 10.0 * math.sqrt(n) * _UNIT_ROUNDOFF
    Q = Y
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(_CHOLQR_PASSES + 1):
                G = Q.T @ Q
                if j > 0 and _off_identity(G) <= tol:
                    return Q
                s = shift * np.trace(G)
                if j == _CHOLQR_PASSES or not 1e-300 < s < 1e290:
                    break
                if j == 0:
                    G[np.diag_indices(k)] += s
                Linv = np.linalg.cholesky(G)
                del G
                _invert_lower(Linv)  # the factor is not read again
                damped = not s * np.sum(Linv * Linv) <= 0.5
                if j > 0 and damped:
                    break
                Q = _times_in_place(np.array(Y, order="F") if j == 0 else Q, Linv.T)
                del Linv
                if span and (j > 0 or not damped):
                    return Q
    except np.linalg.LinAlgError:
        pass
    del Q
    return np.linalg.qr(Y)[0]


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
    and drops the factor's V.  W is one C-contiguous m x r array, filled
    with ``prior.cov_matmat`` on column blocks of V (:func:`_row_blocks`),
    so the call holds W and either two r x r matrices or the two solves of
    one column block besides the factor.  Raises
    SingularInnerSystem when G = V^t C0 V is not positive definite.
    """
    m, r = factor.V.shape
    W = np.empty((m, r))
    for cols in _row_blocks(r, m):
        W[:, cols] = prior.cov_matmat(factor.V[:, cols])
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

    and one Cholesky factor gives M and the determinant: the determinant is
    read from Li's diagonal first, then Li is inverted in its own place
    (:func:`_invert_lower`) and B is one GEMM.  As K is PSD, the
    1-norm of I + R K R^t bounds its condition number; above _COND_LIMIT
    (1e14) the step raises SingularInnerSystem.  Cost O(r^2 (m + n) + r^3)
    per call.  With a mask, only the masked entries are computed and
    returned, as a vector aligned with ``mask.rows``/``mask.cols``: each
    pair i <= j is computed
    once and mirrored, and equals the corresponding entry of the unmasked
    update.  No m x m array is formed.

    Block budget: K is summed over row blocks of U (:func:`_weighted_gram`)
    and the masked entries of W M W^t are taken over row blocks of W
    (:func:`_masked_lowrank_entries`), so a masked call forms no n x r or
    m x r array; besides the basis it holds a few r x r matrices and one
    row block.  The unmasked call still forms the dense m x m covariance.

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
    K = _weighted_gram(U, s, d)
    RK = R @ K
    inner = RK @ R.T
    inner[np.diag_indices(s.size)] += 1.0
    cond = float(np.linalg.norm(inner, 1))  # bounds cond_2, as lambda_min >= 1
    if not cond <= _COND_LIMIT:
        raise SingularInnerSystem(f"inner system condition number up to {cond:.3e}")
    try:
        Li = cholesky(inner)
    except NotPositiveDefinite as exc:
        raise SingularInnerSystem(f"inner system: {exc}") from exc
    del inner
    inner_logdet = logdet(Li)  # read before Li is overwritten by its inverse
    B = _invert_lower(Li) @ RK
    del Li, RK
    M = K  # K - B^t B, formed in K's place; both terms are syrk products
    M -= B.T @ B
    if mask is None:
        C = symmetrize(prior.cov_dense() - W @ M @ W.T)
    else:
        upper, idx = mask.mirror()
        rows, cols = mask.rows[upper], mask.cols[upper]
        vals = prior.cov_entries(rows, cols)
        vals -= _masked_lowrank_entries(W, M, rows, cols, mask.diagonal_offsets())
        C = vals[idx]
    return C, inner_logdet, M


def _weighted_gram(U, s, d) -> np.ndarray:
    """K = S U^t D U S as the sum of Z^t Z over row blocks Z of D^{1/2} U S,
    so no array of D U's size is formed.  numpy forms each Z^t Z by BLAS
    syrk, so K is exactly symmetric."""
    r = s.size
    K = np.zeros((r, r))
    for rows in _row_blocks(U.shape[0], r):
        Z = U[rows] * np.sqrt(d[rows])[:, None]
        Z *= s
        K += Z.T @ Z
    return K


def _masked_lowrank_entries(W, M, rows, cols, offsets) -> np.ndarray:
    """Entries (W M W^t)[rows[p], cols[p]] of the upper pairs of a mask
    (rows ascending, cols >= rows), taken over row blocks of W: each block's
    W M rows are formed and handed to ``lowrank_masked_dots`` with the pairs
    of its rows, their column rows read from W itself.  ``offsets`` is the
    mask's ``diagonal_offsets()``, split here at the block boundaries."""
    bands, rest = offsets
    out = np.empty(rows.size)
    for blk in _row_blocks(W.shape[0], W.shape[1]):
        lo, hi = np.searchsorted(rows, (blk.start, blk.stop))
        if lo == hi:
            continue
        split = []
        for d, p in bands:
            p = p[np.searchsorted(p, lo) : np.searchsorted(p, hi)]
            if p.size:
                split.append((d, p - lo))
        part = rest[np.searchsorted(rest, lo) : np.searchsorted(rest, hi)] - lo
        out[lo:hi] = lowrank_masked_dots(
            W[blk] @ M, W[blk.start :], rows[lo:hi] - blk.start, cols[lo:hi] - blk.start, (split, part)
        )
    return out
