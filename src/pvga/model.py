"""Poisson observation model, Gaussian priors, and synthetic test problems.

The observation model is y_i ~ Pois(exp((a_i, x))) for the rows a_i of a
forward operator A, with a Gaussian prior N(mu0, C0) on x and
C0 = alpha^{-1} Cbar0 given through a precision factor L (Cbar0^{-1} = L^t L).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.special import gammaln

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    InvalidAlpha,
    InvalidData,
    RateOverflow,
    UnknownProblem,
    ConfigError,
)
from .linalg import LowRankFactor, cholesky

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
    """The linear map x -> Ax, in dense, low-rank, or structured kernel form.

    Representations:

    * ``dense``   -- an explicit n x m array;
    * ``lowrank`` -- a :class:`LowRankFactor` U diag(S) V^t;
    * ``conv1d``  -- a Toeplitz matrix given by its first column and row
      (quadrature discretizations of convolution kernels k(s - t));
    * ``blur2d``  -- separable circular Gaussian blur on a square image,
      applied as T X T^t with the 1-d circulant factor T.
    """

    def __init__(self, kind: str, n: int, m: int, payload):
        self.kind = kind
        self._n = int(n)
        self._m = int(m)
        self._payload = payload
        self._dense_cache: np.ndarray | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, A) -> "ForwardOperator":
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise DimensionMismatch("dense operator must be 2-d")
        op = cls("dense", A.shape[0], A.shape[1], A)
        op._dense_cache = A
        return op

    @classmethod
    def from_lowrank(cls, F: LowRankFactor) -> "ForwardOperator":
        n, m = F.shape
        return cls("lowrank", n, m, F)

    @classmethod
    def from_toeplitz(cls, col, row) -> "ForwardOperator":
        col = np.asarray(col, dtype=float)
        row = np.asarray(row, dtype=float)
        if col[0] != row[0]:
            raise InvalidData("Toeplitz first column/row disagree at (0,0)")
        # taps[p] = T[i, j] for i - j = p - (m - 1)
        taps = np.concatenate([row[:0:-1], col])
        return cls("conv1d", col.size, row.size, (col, row, taps))

    @classmethod
    def gaussian_blur_2d(cls, side: int, width: int = 99, variance: float = 1.5) -> "ForwardOperator":
        """Circular 2-d Gaussian blur on a side x side image (A = T kron T)."""
        if width < 1 or width % 2 == 0:
            raise InvalidData("blur width must be a positive odd integer")
        c = (width - 1) // 2
        taps = np.exp(-((np.arange(width) - c) ** 2) / (2.0 * variance))
        taps /= taps.sum()
        # Fold the taps into the first column of the circulant factor T.
        kc = np.zeros(side)
        for j, w in enumerate(taps):
            kc[(j - c) % side] += w
        i = np.arange(side)
        T = kc[(i[:, None] - i[None, :]) % side]
        m = side * side
        op = cls("blur2d", m, m, {"T": T, "side": side, "width": width, "variance": variance})
        return op

    # -- basic services ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self._n, self._m)

    @property
    def n_rows(self) -> int:
        return self._n

    @property
    def n_cols(self) -> int:
        return self._m

    @property
    def factor(self) -> LowRankFactor | None:
        return self._payload if self.kind == "lowrank" else None

    def _check_vec(self, x, length):
        x = np.asarray(x, dtype=float)
        if x.shape != (length,):
            raise DimensionMismatch(f"expected vector of length {length}, got shape {x.shape}")
        return x

    def matvec(self, x) -> np.ndarray:
        x = self._check_vec(x, self._m)
        if self.kind == "dense":
            return self._payload @ x
        if self.kind == "lowrank":
            F = self._payload
            return F.U @ (F.S * (F.V.T @ x))
        if self.kind == "conv1d":
            _, _, taps = self._payload
            return np.convolve(taps, x)[self._m - 1 : self._m - 1 + self._n]
        T = self._payload["T"]
        side = self._payload["side"]
        X = x.reshape(side, side)
        return (T @ X @ T.T).ravel()

    def rmatvec(self, y) -> np.ndarray:
        y = self._check_vec(y, self._n)
        if self.kind == "dense":
            return self._payload.T @ y
        if self.kind == "lowrank":
            F = self._payload
            return F.V @ (F.S * (F.U.T @ y))
        if self.kind == "conv1d":
            col, row, _ = self._payload
            # transpose of a Toeplitz swaps the roles of first column and row
            taps_t = np.concatenate([col[:0:-1], row])
            return np.convolve(taps_t, y)[self._n - 1 : self._n - 1 + self._m]
        T = self._payload["T"]
        side = self._payload["side"]
        Y = y.reshape(side, side)
        return (T.T @ Y @ T).ravel()

    def matmat(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self.kind == "dense":
            return self._payload @ X
        if self.kind == "lowrank":
            F = self._payload
            return F.U @ (F.S[:, None] * (F.V.T @ X))
        return np.column_stack([self.matvec(X[:, j]) for j in range(X.shape[1])])

    def rmatmat(self, Y) -> np.ndarray:
        Y = np.asarray(Y, dtype=float)
        if self.kind == "dense":
            return self._payload.T @ Y
        if self.kind == "lowrank":
            F = self._payload
            return F.V @ (F.S[:, None] * (F.U.T @ Y))
        return np.column_stack([self.rmatvec(Y[:, j]) for j in range(Y.shape[1])])

    def dense(self) -> np.ndarray:
        """Materialize A as a dense array (cached)."""
        if self._dense_cache is None:
            if self._n * self._m > _DENSE_LIMIT_ELEMS:
                raise DimensionTooLarge(
                    f"refusing to materialize a {self._n} x {self._m} dense operator"
                )
            if self.kind == "lowrank":
                self._dense_cache = self._payload.dense()
            elif self.kind == "conv1d":
                col, row, _ = self._payload
                self._dense_cache = scipy.linalg.toeplitz(col, row)
            else:
                T = self._payload["T"]
                self._dense_cache = np.kron(T, T)
        return self._dense_cache


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


class _PriorStructure:
    """Shared per-(mu0, L) caches so rescaled priors reuse factorizations."""

    def __init__(self, mu0: np.ndarray, L: np.ndarray):
        self.mu0 = mu0
        self.L = L
        self.m = mu0.size
        self.lower_triangular = bool(np.all(np.abs(np.triu(L, 1)) < 1e-14))
        self._prec = None  # L^t L
        self._cov = None  # (L^t L)^{-1}
        self._logdet_prec = None

    def prec_base(self) -> np.ndarray:
        if self._prec is None:
            self._prec = self.L.T @ self.L
        return self._prec

    def cov_base(self) -> np.ndarray:
        if self._cov is None:
            if self.lower_triangular:
                Linv = scipy.linalg.solve_triangular(self.L, np.eye(self.m), lower=True)
            else:
                Linv = np.linalg.inv(self.L)
            self._cov = Linv @ Linv.T
            self._cov = (self._cov + self._cov.T) / 2.0
        return self._cov

    def logdet_prec_base(self) -> float:
        if self._logdet_prec is None:
            if self.lower_triangular:
                diag = np.abs(np.diag(self.L))
                if np.any(diag == 0):
                    raise InvalidData("precision factor is singular")
                self._logdet_prec = 2.0 * float(np.sum(np.log(diag)))
            else:
                sign, ld = np.linalg.slogdet(self.L)
                if sign == 0:
                    raise InvalidData("precision factor is singular")
                self._logdet_prec = 2.0 * float(ld)
        return self._logdet_prec


class PriorSpec:
    """Gaussian prior N(mu0, alpha^{-1} Cbar0) with Cbar0^{-1} = L^t L."""

    def __init__(self, mu0, L, alpha: float, _structure: _PriorStructure | None = None):
        if alpha <= 0 or not np.isfinite(alpha):
            raise InvalidAlpha(f"alpha must be positive and finite, got {alpha}")
        mu0 = np.asarray(mu0, dtype=float)
        L = np.asarray(L, dtype=float)
        if mu0.ndim != 1 or L.shape != (mu0.size, mu0.size):
            raise DimensionMismatch("prior mean/precision factor shapes disagree")
        self.mu0 = mu0
        self.L = L
        self.alpha = float(alpha)
        self._s = _structure if _structure is not None else _PriorStructure(mu0, L)

    @property
    def m(self) -> int:
        return self.mu0.size

    def with_alpha(self, alpha: float) -> "PriorSpec":
        """Same interaction structure at a different strength (caches shared)."""
        return PriorSpec(self.mu0, self.L, alpha, _structure=self._s)

    # -- precision services -------------------------------------------------

    def prec_dense(self) -> np.ndarray:
        """C0^{-1} = alpha L^t L."""
        return self.alpha * self._s.prec_base()

    def prec_apply(self, x: np.ndarray) -> np.ndarray:
        return self.alpha * (self.L.T @ (self.L @ x))

    def quad_base(self, v: np.ndarray) -> float:
        """v^t Cbar0^{-1} v = ||L v||^2 (alpha-free)."""
        Lv = self.L @ v
        return float(Lv @ Lv)

    def logdet_prec(self) -> float:
        """ln|C0^{-1}| = m ln(alpha) + ln|L^t L|."""
        return self.m * np.log(self.alpha) + self._s.logdet_prec_base()

    # -- covariance services -------------------------------------------------

    def cov_dense(self) -> np.ndarray:
        return self._s.cov_base() / self.alpha

    def cov_matmat(self, X: np.ndarray) -> np.ndarray:
        return self._s.cov_base() @ X / self.alpha

    def cov_entries(self, rows, cols) -> np.ndarray:
        return self._s.cov_base()[rows, cols] / self.alpha

    def cov_apply(self, x: np.ndarray) -> np.ndarray:
        """C0 x via triangular solves (used as the PCG preconditioner)."""
        if self._s.lower_triangular:
            z = scipy.linalg.solve_triangular(self.L, x, lower=True, trans="T")
            z = scipy.linalg.solve_triangular(self.L, z, lower=True)
            return z / self.alpha
        return self.cov_matmat(x)


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
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return PoissonData(rng.poisson(np.exp(z)))


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


def _gravity(n: int, depth: float = 0.25):
    h = 1.0 / n
    t = h * (np.arange(n) + 0.5)
    col = h * depth * (depth**2 + (h * np.arange(n)) ** 2) ** (-1.5)
    op = ForwardOperator.from_toeplitz(col, col)
    return op, np.sin(np.pi * t) + 0.5 * np.sin(2.0 * np.pi * t)


def _heat(n: int, kappa: float = 1.0):
    h = 1.0 / n
    t = h * (np.arange(n) + 0.5)
    c = h / (2.0 * kappa * np.sqrt(np.pi))
    col = c * t ** (-1.5) * np.exp(-1.0 / (4.0 * kappa**2 * t))
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


def _blur2d(side: int, width: int | None = None, variance: float = 1.5):
    if width is None:
        width = min(99, 2 * side - 1)
        if width % 2 == 0:
            width -= 1
    op = ForwardOperator.gaussian_blur_2d(side, width=width, variance=variance)
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
    **params,
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
    if size < 8:
        raise InvalidData("size must be at least 8")
    try:
        builder = _PROBLEMS[name]
    except KeyError:
        raise UnknownProblem(f"unknown test problem {name!r}; options: {sorted(_PROBLEMS)}") from None
    op, x_true = builder(size, **params)
    if rate_scale is not None:
        rate_min, rate_max = rate_scale
        if not (0 < rate_min < rate_max):
            raise InvalidData("rate_scale must satisfy 0 < rate_min < rate_max")
        z = op.matvec(x_true)
        zmax, zmin = float(z.max()), float(z.min())
        if zmax <= 0:
            raise InvalidData("cannot rate-scale a problem with nonpositive predictor")
        a = np.log(rate_max) / zmax
        if zmin < 0:
            a = min(a, np.log(rate_min) / zmin)
        x_true = a * x_true
    return op, x_true


def _forward_difference(m: int) -> np.ndarray:
    """Bidiagonal difference factor with an anchored first row (nonsingular)."""
    L = np.eye(m)
    L[np.arange(1, m), np.arange(m - 1)] = -1.0
    return L


def make_prior(kind: str, alpha: float, m: int, mu0=None) -> PriorSpec:
    """Assemble one of the built-in prior structures.

    * ``L2``    -- Cbar0^{-1} = I;
    * ``H1``    -- Cbar0^{-1} = L1^t L1 with the anchored forward difference L1;
    * ``H1_2D`` -- Cbar0^{-1} = L^t L with L = I (x) L1 + L1 (x) I on a square grid.
    """
    if alpha <= 0 or not np.isfinite(alpha):
        raise InvalidAlpha(f"alpha must be positive and finite, got {alpha}")
    if mu0 is None:
        mu0 = np.zeros(m)
    if kind == "L2":
        L = np.eye(m)
    elif kind == "H1":
        L = _forward_difference(m)
    elif kind == "H1_2D":
        side = int(round(np.sqrt(m)))
        if side * side != m:
            raise ConfigError(f"H1_2D prior needs a square grid; m={m} is not a perfect square")
        L1 = _forward_difference(side)
        eye = scipy.sparse.identity(side)
        L = (scipy.sparse.kron(eye, L1) + scipy.sparse.kron(L1, eye)).toarray()
    else:
        raise ConfigError(f"unknown prior kind {kind!r}; options: L2, H1, H1_2D")
    return PriorSpec(mu0, L, alpha)
