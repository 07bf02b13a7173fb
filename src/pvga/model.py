"""Poisson observation model, Gaussian priors, and synthetic test problems.

The observation model is y_i ~ Pois(exp((a_i, x))) for the rows a_i of a
forward operator A, with a Gaussian prior N(mu0, C0) on x and
C0 = alpha^{-1} Cbar0 given through a precision factor L (Cbar0^{-1} = L^t L).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.special import gammaln

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InvalidAlpha,
    InvalidData,
    RateOverflow,
    UnknownProblem,
    ConfigError,
    is_count,
    is_real,
)
from . import _kernels

__all__ = [
    "ForwardOperator",
    "PriorSpec",
    "PoissonData",
    "log_likelihood",
    "log_prior",
    "log_joint",
    "sample_poisson_data",
    "make_test_problem",
    "make_prior",
    "LOG_RATE_LIMIT",
]

# exp() overflows double precision just above e^709; rates beyond this are
# treated as overflow everywhere in the package.
LOG_RATE_LIMIT = 700.0

_DENSE_LIMIT_ELEMS = 64_000_000  # ~0.5 GB; guard for materializing structured operators


class ForwardOperator:
    """The linear map x -> Ax, held in one of two representations:

    * an explicit n x m array (``from_dense``; ``from_toeplitz`` builds the
      Toeplitz array of a quadrature-discretized convolution kernel once, at
      construction);
    * the 1-d circulant factor T of a separable circular blur on a square
      image (``gaussian_blur_2d``), A = T kron T, applied as T X T^t and
      formed only when :meth:`dense` is asked for.

    The solver uses A through products, row quadratic forms diag(A C A^t)
    and :meth:`dense`; ``kron_factor`` is T for the blur and None otherwise.
    """

    def __init__(self, array: np.ndarray | None = None, kron_factor: np.ndarray | None = None):
        self._array = array
        self.kron_factor = kron_factor
        self.shape = array.shape if array is not None else (kron_factor.size,) * 2

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, A) -> "ForwardOperator":
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise DimensionMismatch("dense operator must be 2-d")
        return cls(array=A)

    @classmethod
    def from_toeplitz(cls, col, row) -> "ForwardOperator":
        """The n x m Toeplitz array with first column ``col`` and first row ``row``."""
        col = np.asarray(col, dtype=float)
        row = np.asarray(row, dtype=float)
        if col[0] != row[0]:
            raise InvalidData("Toeplitz first column/row disagree at (0,0)")
        _check_dense_size(col.size, row.size)
        # T[i, j] = vals[n - 1 - i + j]: a strided view of vals, copied once
        # (np.ndarray directly; as_strided's Python wrapper costs more here)
        vals = np.concatenate([col[::-1], row[1:]])
        s = vals.strides[0]
        T = np.ndarray((col.size, row.size), buffer=vals, offset=(col.size - 1) * s, strides=(-s, s))
        return cls(array=T.copy())

    @classmethod
    def gaussian_blur_2d(cls, side: int, width: int = 99, variance: float = 1.5) -> "ForwardOperator":
        """Circular 2-d Gaussian blur on a side x side image (A = T kron T)."""
        if width < 1 or width % 2 == 0:
            raise InvalidData("blur width must be a positive odd integer")
        c = (width - 1) // 2
        taps = np.exp(-((np.arange(width) - c) ** 2) / (2.0 * variance))
        taps /= taps.sum()
        # Fold the taps into the first column of the circulant factor T.
        kc = np.bincount((np.arange(width) - c) % side, weights=taps, minlength=side)
        i = np.arange(side)
        return cls(kron_factor=kc[(i[:, None] - i[None, :]) % side])

    # -- basic services ----------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def _check_vec(self, x, length):
        x = np.asarray(x, dtype=float)
        if x.shape != (length,):
            raise DimensionMismatch(f"expected vector of length {length}, got shape {x.shape}")
        return x

    def matvec(self, x) -> np.ndarray:
        """Ax, the one-column case of :meth:`matmat`."""
        return self.matmat(self._check_vec(x, self.n_cols)[:, None])[:, 0]

    def rmatvec(self, y) -> np.ndarray:
        """A^t y, the one-column case of :meth:`rmatmat`."""
        return self.rmatmat(self._check_vec(y, self.n_rows)[:, None])[:, 0]

    def _blur_stack(self, X, T) -> np.ndarray:
        """T X_k T^t for every column X_k of X read as a side x side image,
        as one stacked product (``matmat`` passes T, ``rmatmat`` T^t)."""
        side = T.shape[0]
        if X.ndim != 2 or X.shape[0] != side * side:
            raise DimensionMismatch(f"expected {side * side} rows, got shape {X.shape}")
        k = X.shape[1]
        return (T @ X.T.reshape(k, side, side) @ T.T).reshape(k, side * side).T

    def matmat(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self._array is not None:
            return self._array @ X
        return self._blur_stack(X, self.kron_factor)

    def rmatmat(self, Y) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        if self._array is not None:
            return self._array.T @ Y
        return self._blur_stack(Y, self.kron_factor.T)

    def masked_quad(self, mask, vals) -> np.ndarray:
        """diag(A C A^t) for C given by its values on a mask (aligned with
        ``mask.rows``/``mask.cols``, zero elsewhere).

        The blur works from its Kronecker factor (no dense A); an explicit
        array is gathered from directly.
        """
        if self._array is not None:
            return _kernels.rowwise_quad_masked(self._array, mask.rows, mask.cols, vals)
        side = self.kron_factor.shape[0]
        return _kernels.rowwise_quad_kron_masked(self.kron_factor, mask.grid_offsets(side), vals)

    def dense(self) -> np.ndarray:
        """A as a dense array: the held array, or the blur's T kron T (formed
        on each call)."""
        if self._array is not None:
            return self._array
        _check_dense_size(*self.shape)
        return np.kron(self.kron_factor, self.kron_factor)


def _check_dense_size(n: int, m: int) -> None:
    if n * m > _DENSE_LIMIT_ELEMS:
        raise DimensionTooLarge(f"refusing to materialize a {n} x {m} dense operator")


class PoissonData:
    """Nonnegative integer counts y with the cached ln(y!) term."""

    def __init__(self, y):
        arr = np.asarray(y)
        if arr.ndim != 1:
            raise InvalidData("count data must be a vector")
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(np.isfinite(arr)) or np.any(arr != np.round(arr)):
                raise InvalidData("count data must be integral")
        if np.any(arr < 0):
            raise InvalidData("count data must be nonnegative")
        self.y = arr.astype(np.int64)
        self.log_factorial_term = float(np.sum(gammaln(self.y + 1.0)))

    @property
    def n(self) -> int:
        return self.y.size

    def __repr__(self):
        return f"PoissonData(n={self.n}, total={int(self.y.sum())})"


class PriorSpec:
    """Gaussian prior N(mu0, alpha^{-1} Cbar0) with Cbar0^{-1} = L^t L.

    ``L`` is a dense array, a ``scipy.sparse`` matrix, or ``None`` for the
    identity: solves and row quadratic forms skip it, and it is built as a
    sparse CSR identity only when asked for.  L is factored on first use by
    a sparse LU in its natural column order, under which a triangular L
    (every built-in prior) factors with no fill.  Entries of Cbar0 near the
    diagonal come from a banded selected inversion of L^t L, never from the
    dense Cbar0.  These alpha-free results are cached in one dict that every
    :meth:`with_alpha` rescaling shares; each service scales by alpha.
    """

    def __init__(self, mu0, L, alpha: float):
        if not (is_real(alpha) and alpha > 0):
            raise InvalidAlpha(f"alpha must be positive and finite, got {alpha!r}")
        mu0 = np.asarray(mu0, dtype=float)
        if mu0.ndim != 1:
            raise DimensionMismatch("prior mean must be a vector")
        if L is not None:
            L = L.astype(float, copy=False) if scipy.sparse.issparse(L) else np.asarray(L, dtype=float)
            if L.shape != (mu0.size, mu0.size):
                raise DimensionMismatch("prior mean/precision factor shapes disagree")
        self.mu0 = mu0
        self.alpha = float(alpha)
        self._L = L
        self._cache = {}

    @property
    def L(self):
        """The precision factor, Cbar0^{-1} = L^t L."""
        if self._L is not None:
            return self._L
        if "identity" not in self._cache:
            self._cache["identity"] = scipy.sparse.identity(self.m, format="csr")
        return self._cache["identity"]

    @property
    def m(self) -> int:
        return self.mu0.size

    def with_alpha(self, alpha: float) -> "PriorSpec":
        """Same interaction structure at a different strength (caches shared)."""
        out = PriorSpec(self.mu0, self._L, alpha)
        out._cache = self._cache
        return out

    def _lu(self):
        if "lu" not in self._cache:
            Lc = scipy.sparse.csc_matrix(self.L)
            try:
                self._cache["lu"] = scipy.sparse.linalg.splu(Lc, permc_spec="NATURAL")
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise InvalidData("precision factor is singular") from exc
        return self._cache["lu"]

    def _prec(self):
        """L^t L, sparse."""
        if "prec" not in self._cache:
            self._cache["prec"] = _gram(self.L)
        return self._cache["prec"]

    def _solve(self, X: np.ndarray) -> np.ndarray:
        """Cbar0 X = L^{-1} L^{-t} X."""
        if self._L is None:
            return X
        lu = self._lu()
        return lu.solve(lu.solve(X, trans="T"))

    # -- precision services -------------------------------------------------

    def prec_dense(self) -> np.ndarray:
        """C0^{-1} = alpha L^t L."""
        return self.alpha * self._prec().toarray()

    def prec_apply(self, x: np.ndarray) -> np.ndarray:
        """C0^{-1} x through the cached sparse L^t L (one product, no transpose)."""
        if self._L is None:
            return self.alpha * x
        return self.alpha * (self._prec() @ x)

    def quad_base(self, v: np.ndarray) -> float:
        """v^t Cbar0^{-1} v = ||L v||^2 (alpha-free)."""
        Lv = v if self._L is None else self._L @ v
        return float(Lv @ Lv)

    def quad_base_rows(self, D: np.ndarray) -> np.ndarray:
        """d_i^t Cbar0^{-1} d_i = ||L d_i||^2 for each row d_i of D (alpha-free)."""
        V = D if self._L is None else D @ self._L.T
        return np.einsum("ij,ij->i", V, V)

    def trace_base(self, C: np.ndarray) -> float:
        """tr(Cbar0^{-1} C) = sum(L^t L o C) (alpha-free), gathered from C at
        the cached coordinates of L^t L."""
        if "prec_coo" not in self._cache:
            P = self._prec().tocoo()
            self._cache["prec_coo"] = (P.row, P.col, P.data)
        row, col, data = self._cache["prec_coo"]
        return float(np.sum(data * C[row, col]))

    def trace_base_masked(self, mask, vals: np.ndarray) -> float:
        """tr(Cbar0^{-1} C) for C given by its values on a mask (zero
        elsewhere), from the entries of L^t L on the mask, cached for the
        last mask (alpha-free)."""
        held = self._cache.get("prec_on_mask")
        if held is None or held[0] is not mask:
            vals_prec = np.asarray(self._prec()[mask.rows, mask.cols], dtype=float).ravel()
            held = self._cache["prec_on_mask"] = (mask, vals_prec)
        return float(held[1] @ vals)

    def logdet_prec(self) -> float:
        """ln|C0^{-1}| = m ln(alpha) + ln|L^t L|, with ln|L^t L| = 2 sum ln|U_ii|
        (the LU's L has a unit diagonal)."""
        if "logdet" not in self._cache:
            self._cache["logdet"] = 2.0 * float(np.sum(np.log(np.abs(self._lu().U.diagonal()))))
        return self.m * np.log(self.alpha) + self._cache["logdet"]

    # -- covariance services -------------------------------------------------

    def cov_dense(self) -> np.ndarray:
        """C0 as a dense array (Cbar0 is cached)."""
        if "cov" not in self._cache:
            cov = self._solve(np.eye(self.m))
            self._cache["cov"] = (cov + cov.T) / 2.0
        return self._cache["cov"] / self.alpha

    def cov_apply(self, X: np.ndarray) -> np.ndarray:
        """C0 X through the factorization of L (the PCG preconditioner)."""
        return self._solve(X) / self.alpha

    cov_matmat = cov_apply

    def cov_entries(self, rows, cols) -> np.ndarray:
        """C0[rows, cols] from the cached band of Cbar0 that covers every pair
        (widened when a later request reaches further; no dense C0)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if self._L is None:
            return (rows == cols).astype(float) / self.alpha
        k = np.abs(rows - cols)
        band = self._cache.get("cov_band")
        if band is None or (k.size and k.max() >= band.shape[0]):
            band = self._cache["cov_band"] = _band_inverse(self._L, int(k.max(initial=0)))
        return band[k, np.minimum(rows, cols)] / self.alpha


def _gram(L):
    """L^t L as a sparse CSR matrix."""
    Lc = scipy.sparse.csc_matrix(L)
    return (Lc.T @ Lc).tocsr()


def _band_inverse(L, b: int) -> np.ndarray:
    """zb[k, j] = Z[j + k, j] for k <= b, Z = (L^t L)^{-1}.

    Takahashi's recurrences on a lower-triangular R with R R^t = L^t L
    (half-bandwidth <= b): from the last column back,

        Z[j+1:j+b+1, j] = -Z[j+1:j+b+1, j+1:j+b+1] l / R_jj,
        Z_jj = 1 / R_jj^2 - l . Z[j+1:j+b+1, j] / R_jj,   l = R[j+1:j+b+1, j],

    which read only entries within b of the diagonal.  For a lower
    triangular L (every built-in prior) R is L^t in reversed index order,
    so L's conditioning is not squared; any other L takes the banded
    Cholesky factor of L^t L.  The trailing block lives in a window of at
    most 2(b+1) rows that moves every b+1 columns: O(m b^2) time, O(m b)
    memory.
    """
    m = L.shape[0]
    Lc = scipy.sparse.coo_matrix(L)
    flip = bool(np.all(Lc.row >= Lc.col))
    P = Lc if flip else scipy.sparse.tril(_gram(L)).tocoo()
    b = min(max(b, int((P.row - P.col).max(initial=0))), m - 1)
    R = np.zeros((b + 1, m))
    if flip:  # R[i, j] = L[m-1-j, m-1-i]
        np.add.at(R, (Lc.row - Lc.col, m - 1 - Lc.row), Lc.data)
        if not np.all(R[0] != 0.0):
            raise InvalidData("precision factor is singular")
    else:
        R[P.row - P.col, P.col] = P.data
        try:
            R = scipy.linalg.cholesky_banded(R, lower=True)
        except np.linalg.LinAlgError as exc:
            raise InvalidData("precision factor is singular") from exc
    zb = np.zeros((b + 1, m))
    nw = min(m, 2 * (b + 1))
    win = np.zeros((nw, nw))  # win[i - base, k - base] = Z[i, k]
    base = m - nw
    for j in range(m - 1, -1, -1):
        w = min(b, m - 1 - j)
        if j < base:  # move the window down to cover rows j .. j + b
            new_base = max(0, j + b + 1 - nw)
            old = slice(j + 1 - base, j + 1 + w - base)
            new = slice(j + 1 - new_base, j + 1 + w - new_base)
            win[new, new] = win[old, old].copy()
            base = new_base
        o = j - base
        l = R[1 : w + 1, j]
        z = win[o + 1 : o + 1 + w, o + 1 : o + 1 + w] @ l / -R[0, j]
        zjj = 1.0 / R[0, j] ** 2 - (l @ z) / R[0, j]
        win[o, o] = zjj
        win[o + 1 : o + 1 + w, o] = z
        win[o, o + 1 : o + 1 + w] = z
        zb[0, j] = zjj
        zb[1 : w + 1, j] = z
    if flip:  # back to the original order: Z[j + k, j] = Z_R[m-1-j, m-1-j-k]
        k = np.arange(b + 1)[:, None]
        j = m - 1 - np.arange(m)[None, :] - k
        zb = np.where(j >= 0, zb[k, np.maximum(j, 0)], 0.0)
    return zb


def log_likelihood(x, A: ForwardOperator, data: PoissonData) -> float:
    """(Ax, y) - (e^{Ax}, 1) - (ln(y!), 1)."""
    z = A.matvec(x)
    if data.n != A.n_rows:
        raise DimensionMismatch("data length does not match operator rows")
    zmax = float(z.max()) if z.size else 0.0
    if zmax > LOG_RATE_LIMIT:
        raise RateOverflow(f"log-rate {zmax:.1f} exceeds overflow guard {LOG_RATE_LIMIT}")
    return float(data.y @ z - np.exp(z).sum() - data.log_factorial_term)


def log_prior(x, prior: PriorSpec) -> float:
    """Gaussian log-density ln N(x; mu0, alpha^{-1} Cbar0), constants included."""
    x = np.asarray(x, dtype=float)
    if x.shape != prior.mu0.shape:
        raise DimensionMismatch("state/prior dimension mismatch")
    v = x - prior.mu0
    return float(
        -0.5 * prior.alpha * prior.quad_base(v)
        - 0.5 * prior.m * np.log(2.0 * np.pi)
        + 0.5 * prior.logdet_prec()
    )


def log_joint(x, A: ForwardOperator, data: PoissonData, prior: PriorSpec) -> float:
    """ln p(x, y) = log_likelihood + log_prior."""
    return log_likelihood(x, A, data) + log_prior(x, prior)


def sample_poisson_data(A: ForwardOperator, x_true, seed=0) -> PoissonData:
    """Draw y_i ~ Pois(exp((a_i, x_true))) independently; deterministic per seed."""
    z = A.matvec(x_true)
    zmax = float(z.max()) if z.size else 0.0
    if zmax > LOG_RATE_LIMIT:
        raise RateOverflow(f"log-rate {zmax:.1f} exceeds overflow guard {LOG_RATE_LIMIT}")
    return PoissonData(np.random.default_rng(seed).poisson(np.exp(z)))


# ---------------------------------------------------------------------------
# test problems
# ---------------------------------------------------------------------------


def _phillips(n: int):
    h = 12.0 / n
    t = -6.0 + h * (np.arange(n) + 0.5)

    def theta(s):
        return np.where(np.abs(s) < 3.0, 1.0 + np.cos(np.pi * s / 3.0), 0.0)

    col = h * theta(h * np.arange(n))
    op = ForwardOperator.from_toeplitz(col, col)
    return op, theta(t)


def _gravity(n: int):
    h = 1.0 / n
    t = h * (np.arange(n) + 0.5)
    col = h * 0.25 * (0.25**2 + (h * np.arange(n)) ** 2) ** (-1.5)  # source depth 0.25
    op = ForwardOperator.from_toeplitz(col, col)
    return op, np.sin(np.pi * t) + 0.5 * np.sin(2.0 * np.pi * t)


def _heat(n: int):
    h = 1.0 / n
    t = h * (np.arange(n) + 0.5)
    c = h / (2.0 * np.sqrt(np.pi))  # conductivity kappa = 1
    col = c * t ** (-1.5) * np.exp(-1.0 / (4.0 * t))
    row = np.zeros(n)
    row[0] = col[0]
    op = ForwardOperator.from_toeplitz(col, row)
    x = np.zeros(n)
    half = n // 2
    ti = 20.0 * (np.arange(half) + 1.0) / n
    x[:half] = np.where(
        ti < 2.0,
        0.75 * ti**2 / 4.0,
        np.where(ti < 3.0, 0.75 + (ti - 2.0) * (3.0 - ti), 0.75 * np.exp(-2.0 * (ti - 3.0))),
    )
    return op, x


def _foxgood(n: int):
    h = 1.0 / n
    t = h * (np.arange(n) + 0.5)
    A = h * np.sqrt(t[:, None] ** 2 + t[None, :] ** 2)
    return ForwardOperator.from_dense(A), t.copy()


def _blur2d(side: int):
    op = ForwardOperator.gaussian_blur_2d(side, width=min(99, 2 * side - 1))
    i = np.arange(side)
    ii, jj = np.meshgrid(i, i, indexing="ij")

    def blob(ci, cj, w, amp):
        return amp * np.exp(-(((ii - ci) ** 2 + (jj - cj) ** 2) / (2.0 * (w * side) ** 2)))

    img = blob(0.32 * side, 0.3 * side, 0.09, 1.0) + blob(0.68 * side, 0.66 * side, 0.13, 0.8)
    return op, img.ravel()


_PROBLEMS = {
    "phillips": _phillips,
    "gravity": _gravity,
    "heat": _heat,
    "foxgood": _foxgood,
    "blur2d": _blur2d,
}


def make_test_problem(
    name: str,
    size: int,
    rate_scale: tuple[float, float] | None = (0.5, 50.0),
):
    """Build a named first-kind test problem: (ForwardOperator, x_true).

    ``size`` is the number of unknowns per dimension (grid side for blur2d).
    ``rate_scale=(rate_min, rate_max)`` rescales x_true so the Poisson rates
    exp(A x_true) land inside the target interval: the predictor z = A x_true
    is multiplied by the largest factor keeping max(e^z) <= rate_max and, when
    z takes negative values, min(e^z) >= rate_min.  Pure rescaling (no offset)
    keeps the scaled truth exactly representable by the same operator.  Pass
    ``rate_scale=None`` to disable.
    """
    if not (is_count(size) and size >= 8):
        raise InvalidData(f"size must be an integer of at least 8, got {size!r}")
    if rate_scale is not None and not (
        isinstance(rate_scale, (tuple, list))
        and len(rate_scale) == 2
        and all(is_real(v) for v in rate_scale)
        and 0 < rate_scale[0] < rate_scale[1]
    ):
        raise InvalidData(
            f"rate_scale must be None or two finite numbers with 0 < rate_min < rate_max, got {rate_scale!r}"
        )
    try:
        builder = _PROBLEMS[name]
    except KeyError:
        raise UnknownProblem(f"unknown test problem {name!r}; options: {sorted(_PROBLEMS)}") from None
    op, x_true = builder(size)
    if rate_scale is not None:
        rate_min, rate_max = rate_scale
        z = op.matvec(x_true)
        zmax, zmin = float(z.max()), float(z.min())
        if zmax <= 0:
            raise InvalidData("cannot rate-scale a problem with nonpositive predictor")
        a = np.log(rate_max) / zmax
        if zmin < 0:
            a = min(a, np.log(rate_min) / zmin)
        x_true = a * x_true
    return op, x_true


def _forward_difference(m: int):
    """Sparse bidiagonal difference factor with an anchored first row (nonsingular)."""
    return scipy.sparse.diags([np.ones(m), -np.ones(m - 1)], [0, -1], format="csr")


def make_prior(kind: str, alpha: float, m: int) -> PriorSpec:
    """Assemble one of the built-in prior structures, with mean 0.

    * ``L2``    -- Cbar0^{-1} = I;
    * ``H1``    -- Cbar0^{-1} = L1^t L1 with the anchored forward difference L1;
    * ``H1_2D`` -- Cbar0^{-1} = L^t L with L = I (x) L1 + L1 (x) I on a square grid.

    Every factor is ``scipy.sparse``: ``L2`` a CSR identity (built on first
    use), ``H1`` and ``H1_2D`` banded with at most three nonzeros per row.
    """
    if kind == "L2":
        L = None  # the identity
    elif kind == "H1":
        L = _forward_difference(m)
    elif kind == "H1_2D":
        side = int(round(np.sqrt(m)))
        if side * side != m:
            raise ConfigError(f"H1_2D prior needs a square grid; m={m} is not a perfect square")
        L1 = _forward_difference(side)
        eye = scipy.sparse.identity(side)
        L = scipy.sparse.kron(eye, L1, format="csr") + scipy.sparse.kron(L1, eye, format="csr")
    else:
        raise ConfigError(f"unknown prior kind {kind!r}; options: L2, H1, H1_2D")
    return PriorSpec(np.zeros(m), L, alpha)
