"""Evidence lower bound for the Poisson model, its gradients, and divergences.

For q = N(xbar, C) the bound on the log evidence ln Z is

    F(xbar, C) = (y, A xbar) - (1, e^d) - (1, ln y!)
                 - 1/2 (xbar - mu0)^t C0^{-1} (xbar - mu0)
                 - 1/2 [tr(C0^{-1} C) - ln|C0^{-1} C| - m]

with the log-rate vector d_i = (a_i, xbar) + 1/2 a_i^t C a_i.  The last
bracket is the Bregman divergence d(C, C0) >= 0 (Stein's loss).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionMismatch, NoDenseCovariance, NotPositiveDefinite
# spd_solve: unused here, kept as a name perfbench's tracer wraps
from .linalg import (  # noqa: F401
    SparsityMask,
    cholesky,
    logdet,
    lower_inverse,
    spd_inverse,
    spd_solve,
)
from .model import LOG_RATE_LIMIT, ForwardOperator, PoissonData, PriorSpec

__all__ = [
    "DenseCov",
    "MaskedCov",
    "PointMass",
    "GaussianState",
    "ElboBreakdown",
    "rate_vector",
    "elbo",
    "grad_mean",
    "grad_cov",
    "bregman_divergence",
    "optimality_residual",
    "gaussian_kl",
]

class DenseCov:
    """A covariance held as its dense SPD m x m array ``values``, with ln|C|
    as given from a known factor, or else from a cached Cholesky factor."""

    def __init__(self, values, logdet: float | None = None):
        self.values = np.asarray(values, dtype=float)
        self.apply = self.values.__matmul__  # the product v -> C v
        self._chol: np.ndarray | None = None
        self._logdet = logdet

    def fits(self, m: int) -> bool:
        return self.values.shape == (m, m)

    def chol(self) -> np.ndarray:
        """Cached Cholesky factor (raises NotPositiveDefinite)."""
        if self._chol is None:
            self._chol = cholesky(self.values)
        return self._chol

    @property
    def logdet(self) -> float:
        if self._logdet is None:
            self._logdet = logdet(self.chol())
        return self._logdet

    def quad(self, A: ForwardOperator) -> np.ndarray:
        return _kernels.rowwise_quad_full(A.dense(), self.values)

    def trace_base(self, prior: PriorSpec) -> float:
        return prior.trace_base(self.values)


class MaskedCov:
    """The paper's sparse iterate: the entries of C on ``mask`` (``values``
    aligned with ``mask.rows``/``mask.cols``), the ln|C| of the unprojected
    map they came from, which the bound needs, and that map's product
    ``apply``, v -> C0 v - W M W^t v, from the Woodbury step that made it
    until ``run_vga`` returns it."""

    def __init__(self, mask: SparsityMask, values, logdet: float | None = None, apply=None):
        self.mask = mask
        self.values = np.asarray(values, dtype=float)
        self._logdet = logdet
        self.apply = apply

    def fits(self, m: int) -> bool:
        return self.mask.dim == m and self.values.shape == (self.mask.nnz,)

    @property
    def logdet(self) -> float:
        if self._logdet is None:
            raise NotPositiveDefinite("a masked state has no ln|C| unless it is built with one: "
                                      "its zero-filled projection need not be positive definite")
        return self._logdet

    def quad(self, A: ForwardOperator) -> np.ndarray:
        return A.masked_quad(self.mask, self.values)

    def trace_base(self, prior: PriorSpec) -> float:
        return prior.trace_base_masked(self.mask, self.values)


class PointMass:
    """C = 0, the Gaussian collapsed onto its mean: the state at which MAP
    takes its Newton steps and Laplace applies the covariance map."""

    def fits(self, m: int) -> bool:
        return True

    def quad(self, A: ForwardOperator) -> np.ndarray:
        return np.zeros(A.n_rows)


class GaussianState:
    """A Gaussian q = N(mean, C), with per-operator caches for the log-rates.

    ``C`` is one covariance type per mode, read only through its methods:
    :class:`DenseCov` (an array passed as ``C`` is wrapped in one),
    :class:`MaskedCov` or :class:`PointMass`.  ``cov`` raises
    NoDenseCovariance unless C is dense.  Of the log-rate pieces, A @ mean
    survives a covariance update, diag(A C A^t) a mean update.
    """

    __slots__ = ("mean", "C", "_z_cache", "_q_cache")

    def __init__(self, mean, C):
        mean = np.asarray(mean, dtype=float)
        C = C if isinstance(C, (DenseCov, MaskedCov, PointMass)) else DenseCov(C)
        if mean.ndim != 1 or not C.fits(mean.size):
            raise DimensionMismatch("mean/cov shapes disagree")
        self.mean = mean
        self.C = C
        self._z_cache: tuple | None = None  # (A, A @ mean)
        self._q_cache: tuple | None = None  # (A, rowwise a_i^t C a_i)

    @property
    def dim(self) -> int:
        return self.mean.size

    @property
    def cov(self) -> np.ndarray:
        """The covariance as a dense m x m array."""
        return self._dense().values

    def _dense(self) -> DenseCov:
        if not isinstance(self.C, DenseCov):
            raise NoDenseCovariance(f"a {type(self.C).__name__} state holds no dense covariance array")
        return self.C

    def replace_mean(self, mean) -> "GaussianState":
        out = GaussianState(mean, self.C)
        out._q_cache = self._q_cache
        return out

    def replace_cov(self, C) -> "GaussianState":
        """Same mean, new covariance (an array or a covariance type)."""
        out = GaussianState(self.mean, C)
        out._z_cache = self._z_cache
        return out

    # -- log-rate pieces -----------------------------------------------------

    def _z(self, A: ForwardOperator) -> np.ndarray:
        if self._z_cache is None or self._z_cache[0] is not A:
            self._z_cache = (A, A.matvec(self.mean))
        return self._z_cache[1]

    def _quad(self, A: ForwardOperator) -> np.ndarray:
        if self._q_cache is None or self._q_cache[0] is not A:
            self._q_cache = (A, self.C.quad(A))
        return self._q_cache[1]


@dataclass
class ElboBreakdown:
    """F split into fidelity and the two (positively stored) penalties."""

    fit: float
    mean_penalty: float
    cov_penalty_bregman: float
    total: float


def rate_vector(state: GaussianState, A: ForwardOperator) -> np.ndarray:
    """Log-rates d_i = (a_i, mean) + 1/2 a_i^t C a_i, row-wise (no A C A^t)."""
    if A.n_cols != state.dim:
        raise DimensionMismatch("operator/state dimension mismatch")
    return state._z(A) + 0.5 * state._quad(A)


def _saturates(d: np.ndarray) -> bool:
    """Whether the log-rates ``d`` reach past the overflow clamp."""
    return bool(d.size) and float(d.max()) > LOG_RATE_LIMIT


def _exp_rates(d: np.ndarray) -> np.ndarray:
    """e^d with d clamped at LOG_RATE_LIMIT."""
    return np.exp(np.minimum(d, LOG_RATE_LIMIT) if _saturates(d) else d)


def elbo(state: GaussianState, A: ForwardOperator, data: PoissonData, prior: PriorSpec) -> ElboBreakdown:
    """Evaluate F and its breakdown, with ln|C| from ``state.C.logdet``
    (raises NotPositiveDefinite when the state has none and cannot factor)."""
    if data.n != A.n_rows or prior.m != state.dim:
        raise DimensionMismatch("elbo arguments disagree in shape")
    return _bound_with_logdet(state, A, data, prior)


def _bound_with_logdet(
    state: GaussianState, A: ForwardOperator, data: PoissonData, prior: PriorSpec
) -> ElboBreakdown:
    """F without :func:`elbo`'s shape checks, with ln|C| from
    ``state.C.logdet``.  Every other term reads C through the row quadratic
    forms and the prior trace only, so in masked mode they stay well defined
    on the mask values."""
    z = state._z(A)
    d = z + 0.5 * state._quad(A)
    rates = _exp_rates(d)
    fit = float(data.y @ z - rates.sum())
    v = state.mean - prior.mu0
    mean_penalty = 0.5 * prior.alpha * prior.quad_base(v)
    tr_term = prior.alpha * state.C.trace_base(prior)
    # constant pieces -1/2 ln|C0| + m/2 - (1, ln y!) are cached on prior/data
    total = (
        fit
        - mean_penalty
        - 0.5 * tr_term
        + 0.5 * state.C.logdet
        + 0.5 * prior.logdet_prec()
        + 0.5 * state.dim
        - data.log_factorial_term
    )
    breg = tr_term - state.C.logdet - prior.logdet_prec() - state.dim
    if -1e-8 < breg < 0.0:
        breg = 0.0  # roundoff at C ~ C0; d(C, C0) is nonnegative
    return ElboBreakdown(fit=fit - data.log_factorial_term, mean_penalty=mean_penalty,
                         cov_penalty_bregman=breg, total=total)


def grad_mean(state: GaussianState, A: ForwardOperator, data: PoissonData, prior: PriorSpec) -> np.ndarray:
    """dF/dxbar = A^t y - A^t e^d - C0^{-1}(xbar - mu0)."""
    if data.n != A.n_rows or prior.m != state.dim:
        raise DimensionMismatch("grad_mean arguments disagree in shape")
    return _grad_mean_at(state.mean, _exp_rates(rate_vector(state, A)), A, data, prior)


def _grad_mean_at(mean, rates, A: ForwardOperator, data: PoissonData, prior: PriorSpec) -> np.ndarray:
    """dF/dxbar at ``mean`` from the rates e^d: :func:`grad_mean` without
    its shape checks, for the Newton step's trial means."""
    return A.rmatvec(data.y - rates) - prior.prec_apply(mean - prior.mu0)


def _dense_precision(A: ForwardOperator, prior: PriorSpec, rates: np.ndarray) -> np.ndarray:
    """A^t D A + C0^{-1} as a dense array, D = diag(rates).  The data term is
    B^t B with B = D^{1/2} A, which numpy forms by BLAS syrk, so it is
    exactly symmetric, and so is the sum with the prior precision."""
    B = np.sqrt(rates)[:, None] * A.dense()
    M = B.T @ B
    M += prior.prec_dense()
    return M


def grad_cov(state: GaussianState, A: ForwardOperator, data: PoissonData, prior: PriorSpec) -> np.ndarray:
    """dF/dC = 1/2 [C^{-1} - A^t D A - C0^{-1}], D = diag(e^d)."""
    rates = _exp_rates(rate_vector(state, A))
    G = spd_inverse(state._dense().chol())
    G -= _dense_precision(A, prior, rates)
    G *= 0.5
    return G


def bregman_divergence(C, C0) -> float:
    """Stein's loss d(C, C0) = tr(C0^{-1} C) - ln|C0^{-1} C| - m >= 0."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    C0 = np.atleast_2d(np.asarray(C0, dtype=float))
    if C.shape != C0.shape:
        raise DimensionMismatch("covariance shapes disagree")
    return _stein_loss(cholesky(C), lower_inverse(cholesky(C0)))


def _stein_loss(L: np.ndarray, L0_inv: np.ndarray) -> float:
    """d(C, C0) from the lower Cholesky factor L of C and the inverse L0^{-1}
    of that of C0.  Y = L0^{-1} L is lower triangular with diagonal
    y = diag(L) / diag(L0), so tr(C0^{-1} C) = ||Y||_F^2 and ln|C| - ln|C0|
    = sum ln y_i^2, and d = sum_{i>j} Y_ij^2 + sum_i (y_i^2 - 1 - ln y_i^2).
    Every term is nonnegative, so two close covariances lose no digits to
    the cancellation of tr(C0^{-1} C) - m against ln|C| - ln|C0|; Y is the
    only m x m array formed."""
    Y = L0_inv @ L
    t = np.diagonal(Y) ** 2
    Y[np.diag_indices_from(Y)] = 0.0
    y = Y.ravel()
    val = float(y @ y) + float(np.sum(t - 1.0 - np.log(t)))
    if -1e-8 < val < 0.0:
        val = 0.0
    return val


def optimality_residual(state: GaussianState, A: ForwardOperator, data: PoissonData, prior: PriorSpec):
    """(||dF/dxbar||_2, ||C^{-1} - A^t D A - C0^{-1}||_F): both 0 at the maximizer."""
    g = grad_mean(state, A, data, prior)
    S = 2.0 * grad_cov(state, A, data, prior)
    return float(np.linalg.norm(g)), float(np.linalg.norm(S, "fro"))


def gaussian_kl(q1: GaussianState, q2: GaussianState) -> float:
    """KL(q1 || q2) = 1/2 [d(C1, C2) + (x1-x2)^t C2^{-1} (x1-x2)], from the
    states' cached Cholesky factors; with z = L2^{-1} (x1 - x2) the quadratic
    form is z^t z."""
    if q1.dim != q2.dim:
        raise DimensionMismatch("states disagree in dimension")
    L2_inv = lower_inverse(q2._dense().chol())
    z = L2_inv @ (q1.mean - q2.mean)
    return 0.5 * (_stein_loss(q1._dense().chol(), L2_inv) + float(z @ z))
