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
from .errors import DimensionMismatch
from .linalg import SparsityMask, cholesky, logdet, spd_inverse, spd_solve, symmetrize
from .model import LOG_RATE_LIMIT, ForwardOperator, PoissonData, PriorSpec

__all__ = [
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

_GRAD_COV_DENSE_LIMIT = 2000


class GaussianState:
    """A Gaussian q = N(mean, cov), with per-operator caches for the log-rates.

    ``cov`` is a dense SPD array; in masked (sparse) mode it holds zeros off
    the mask and the mask rides along so row-wise quadratic forms only touch
    stored entries.  The two pieces of the log-rate vector are cached
    separately: A @ mean survives a covariance update, the quadratic part
    survives a mean update.
    """

    __slots__ = ("mean", "cov", "mask", "saturated", "_z_cache", "_q_cache", "_chol")

    def __init__(self, mean, cov, mask: SparsityMask | None = None):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise DimensionMismatch("mean/cov shapes disagree")
        self.mean = mean
        self.cov = cov
        self.mask = mask
        self.saturated = False  # set when a rate evaluation hit the overflow clamp
        self._z_cache: tuple | None = None  # (A, A @ mean)
        self._q_cache: tuple | None = None  # (A, rowwise a_i^t C a_i)
        self._chol: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.mean.size

    def chol(self) -> np.ndarray:
        """Cached Cholesky factor of cov (raises NotPositiveDefinite)."""
        if self._chol is None:
            self._chol = cholesky(self.cov)
        return self._chol

    def replace_mean(self, mean) -> "GaussianState":
        out = GaussianState(np.asarray(mean, dtype=float), self.cov, self.mask)
        out._q_cache = self._q_cache
        out._chol = self._chol
        return out

    def replace_cov(self, cov, mask: SparsityMask | None = None) -> "GaussianState":
        out = GaussianState(self.mean, cov, self.mask if mask is None else mask)
        out._z_cache = self._z_cache
        return out

    # -- log-rate pieces -----------------------------------------------------

    def _z(self, A: ForwardOperator) -> np.ndarray:
        if self._z_cache is None or self._z_cache[0] is not A:
            self._z_cache = (A, A.matvec(self.mean))
        return self._z_cache[1]

    def _quad(self, A: ForwardOperator) -> np.ndarray:
        if self._q_cache is None or self._q_cache[0] is not A:
            Ad = A.dense()
            if self.mask is not None:
                vals = self.cov[self.mask.rows, self.mask.cols]
                q = _kernels.rowwise_quad_masked(Ad, self.mask.rows, self.mask.cols, vals)
            else:
                q = _kernels.rowwise_quad_full(Ad, self.cov)
            self._q_cache = (A, q)
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


def _exp_rates(state: GaussianState, d: np.ndarray) -> np.ndarray:
    """e^d with the overflow clamp; a clamp event marks the state saturated."""
    if d.size and float(d.max()) > LOG_RATE_LIMIT:
        state.saturated = True
        d = np.minimum(d, LOG_RATE_LIMIT)
    return np.exp(d)


def _trace_prec_cov(prior: PriorSpec, C: np.ndarray) -> float:
    """tr(C0^{-1} C) = alpha * sum(Cbar0^{-1} o C)."""
    return prior.alpha * float(np.sum(prior._s.prec_base() * C))


def elbo(state: GaussianState, A: ForwardOperator, data: PoissonData, prior: PriorSpec) -> ElboBreakdown:
    """Evaluate F and its breakdown.  Raises NotPositiveDefinite via ln|C|."""
    if data.n != A.n_rows or prior.m != state.dim:
        raise DimensionMismatch("elbo arguments disagree in shape")
    return _bound_with_logdet(state, A, data, prior, logdet(state.cov, chol=state.chol()))


def _bound_with_logdet(
    state: GaussianState,
    A: ForwardOperator,
    data: PoissonData,
    prior: PriorSpec,
    logdet_C: float,
) -> ElboBreakdown:
    """F with ln|C| supplied by the caller.

    The solver's masked mode needs this: the masked covariance can be
    indefinite (the projection does not preserve definiteness), while the
    log-determinant of the unprojected update is known exactly from the
    low-rank inner system.  Every other term depends on C only through
    masked entries and stays well defined.
    """
    z = state._z(A)
    d = z + 0.5 * state._quad(A)
    rates = _exp_rates(state, d)
    fit = float(data.y @ z - rates.sum())
    v = state.mean - prior.mu0
    mean_penalty = 0.5 * prior.alpha * prior.quad_base(v)
    tr_term = _trace_prec_cov(prior, state.cov)
    # constant pieces -1/2 ln|C0| + m/2 - (1, ln y!) are cached on prior/data
    total = (
        fit
        - mean_penalty
        - 0.5 * tr_term
        + 0.5 * logdet_C
        + 0.5 * prior.logdet_prec()
        + 0.5 * state.dim
        - data.log_factorial_term
    )
    breg = tr_term - logdet_C - prior.logdet_prec() - state.dim
    if -1e-8 < breg < 0.0:
        breg = 0.0  # roundoff at C ~ C0; d(C, C0) is nonnegative
    return ElboBreakdown(fit=fit - data.log_factorial_term, mean_penalty=mean_penalty,
                         cov_penalty_bregman=breg, total=total)


def grad_mean(state: GaussianState, A: ForwardOperator, data: PoissonData, prior: PriorSpec) -> np.ndarray:
    """dF/dxbar = A^t y - A^t e^d - C0^{-1}(xbar - mu0)."""
    if data.n != A.n_rows or prior.m != state.dim:
        raise DimensionMismatch("grad_mean arguments disagree in shape")
    d = rate_vector(state, A)
    rates = _exp_rates(state, d)
    return A.rmatvec(data.y - rates) - prior.prec_apply(state.mean - prior.mu0)


def _weighted_gram(A: ForwardOperator, rates: np.ndarray, mask: SparsityMask | None, m: int) -> np.ndarray:
    """A^t diag(rates) A, dense below the size cutoff, masked entries above."""
    if mask is None or m <= _GRAD_COV_DENSE_LIMIT:
        Ad = A.dense()
        return Ad.T @ (rates[:, None] * Ad)
    X = np.ascontiguousarray((A.dense() * np.sqrt(rates)[:, None]).T)
    vals = _kernels.lowrank_masked_dots(X, X, mask.rows, mask.cols)
    out = np.zeros((m, m))
    out[mask.rows, mask.cols] = vals
    return symmetrize(out)


def grad_cov(state: GaussianState, A: ForwardOperator, data: PoissonData, prior: PriorSpec) -> np.ndarray:
    """dF/dC = 1/2 [C^{-1} - A^t D A - C0^{-1}], D = diag(e^d)."""
    d = rate_vector(state, A)
    rates = _exp_rates(state, d)
    C_inv = spd_inverse(state.cov, chol=state.chol())
    AtDA = _weighted_gram(A, rates, state.mask, state.dim)
    return 0.5 * (C_inv - AtDA - prior.prec_dense())


def bregman_divergence(C, C0) -> float:
    """Stein's loss d(C, C0) = tr(C0^{-1} C) - ln|C0^{-1} C| - m >= 0."""
    C = np.atleast_2d(np.asarray(C, dtype=float))
    C0 = np.atleast_2d(np.asarray(C0, dtype=float))
    if C.shape != C0.shape:
        raise DimensionMismatch("covariance shapes disagree")
    m = C.shape[0]
    L = cholesky(C)
    L0 = cholesky(C0)
    val = float(np.trace(spd_solve(C0, C, chol=L0))) - logdet(C, chol=L) + logdet(C0, chol=L0) - m
    if -1e-8 < val < 0.0:
        val = 0.0
    return val


def optimality_residual(state: GaussianState, A: ForwardOperator, data: PoissonData, prior: PriorSpec):
    """(||dF/dxbar||_2, ||C^{-1} - A^t D A - C0^{-1}||_F): both 0 at the maximizer."""
    g = grad_mean(state, A, data, prior)
    S = 2.0 * grad_cov(state, A, data, prior)
    return float(np.linalg.norm(g)), float(np.linalg.norm(S, "fro"))


def gaussian_kl(q1: GaussianState, q2: GaussianState) -> float:
    """KL(q1 || q2) = 1/2 [d(C1, C2) + (x1-x2)^t C2^{-1} (x1-x2)]."""
    if q1.dim != q2.dim:
        raise DimensionMismatch("states disagree in dimension")
    delta = q1.mean - q2.mean
    quad = float(delta @ spd_solve(q2.cov, delta, chol=q2.chol()))
    return 0.5 * (bregman_divergence(q1.cov, q2.cov) + quad)
