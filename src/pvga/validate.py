"""Reference estimators and posterior validation tools.

MAP/Laplace give the classical Gaussian baseline; a Metropolis-Hastings
independence sampler driven by a Gaussian proposal (typically the variational
solution) corrects it toward the exact posterior; HPD intervals and Gaussian
comparison metrics quantify the differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import logsumexp, ndtri

from . import _kernels
from .elbo import GaussianState, gaussian_kl
from .errors import (
    ConfigError,
    CovTooLargeForSampling,
    DimensionMismatch,
    DimensionTooLarge,
    InsufficientSamples,
    MaxIterationsExceeded,
)
from .linalg import cholesky, logdet, spd_inverse, symmetrize
from .model import LOG_RATE_LIMIT, ForwardOperator, PoissonData, PriorSpec

__all__ = [
    "McmcConfig",
    "ChainSummary",
    "OrbitDiagnostics",
    "map_estimate",
    "laplace_approximation",
    "evidence_quadrature",
    "mh_independence_sampler",
    "hpd_intervals",
    "compare_gaussians",
    "orbit_check",
]

_MH_CHUNK = 8192
_THIN_ABOVE = 1000
_DENSIFY_LIMIT = 5000


@dataclass
class McmcConfig:
    chain_length: int = 200_000
    burn_in: int = 100_000
    seed: int = 0

    def validate(self) -> None:
        if not 0 <= self.burn_in < self.chain_length:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < chain_length")


@dataclass
class ChainSummary:
    mean: np.ndarray
    covariance: np.ndarray
    acceptance_rate: float
    intervals: np.ndarray  # (m, 2) HPD bounds at level gamma
    gamma: float
    mean_stderr: np.ndarray  # batch-means standard error of the mean
    n_kept: int
    thin: int
    samples: np.ndarray  # kept (post burn-in, thinned) samples, time-ordered


def _posterior_parts(A: ForwardOperator, data: PoissonData, prior: PriorSpec):
    Ad = A.dense()
    prec = prior.prec_dense()

    def neg_log_post(x):
        z = Ad @ x
        with np.errstate(over="ignore"):
            e = np.exp(z)
        v = x - prior.mu0
        return float(e.sum() - data.y @ z + 0.5 * prior.alpha * prior.quad_base(v))

    def gradient(x):
        z = Ad @ x
        return Ad.T @ (np.exp(np.minimum(z, LOG_RATE_LIMIT)) - data.y) + prior.prec_apply(
            x - prior.mu0
        )

    def hessian(x):
        r = np.exp(np.minimum(Ad @ x, LOG_RATE_LIMIT))
        return Ad.T @ (r[:, None] * Ad) + prec

    return neg_log_post, gradient, hessian


def map_estimate(
    A: ForwardOperator,
    data: PoissonData,
    prior: PriorSpec,
    tol: float = 1e-10,
    maxit: int = 100,
) -> np.ndarray:
    """Posterior mode by damped Newton; returns with gradient norm <= tol."""
    obj, grad, hess = _posterior_parts(A, data, prior)
    x = prior.mu0.copy()
    f = obj(x)
    for _ in range(maxit):
        g = grad(x)
        if np.linalg.norm(g) <= tol:
            return x
        step = scipy.linalg.cho_solve(scipy.linalg.cho_factor(hess(x), lower=True), g)
        # full steps that contract the gradient are always taken; near the
        # mode the objective decrease drops below float resolution and an
        # f-monotone test alone would freeze short of the gradient tolerance
        full = x - step
        if np.linalg.norm(grad(full)) <= 0.5 * np.linalg.norm(g):
            x = full
            f = obj(x)
            continue
        t = 1.0
        for _ in range(30):
            f_new = obj(x - t * step)
            if np.isfinite(f_new) and f_new <= f:
                break
            t /= 2.0
        x = x - t * step
        f = obj(x)
    if np.linalg.norm(grad(x)) <= tol:
        return x
    raise MaxIterationsExceeded(f"posterior mode not located within {maxit} Newton steps")


def laplace_approximation(A: ForwardOperator, data: PoissonData, prior: PriorSpec) -> GaussianState:
    """Gaussian N(xhat, H^{-1}) from the second-order expansion at the mode."""
    x_hat = map_estimate(A, data, prior)
    _, _, hess = _posterior_parts(A, data, prior)
    return GaussianState(x_hat, spd_inverse(symmetrize(hess(x_hat))))


def _gaussian_logpdf_rows(X: np.ndarray, mean: np.ndarray, L: np.ndarray, ld: float) -> np.ndarray:
    V = scipy.linalg.solve_triangular(L, (X - mean).T, lower=True)
    return -0.5 * np.einsum("ij,ij->j", V, V) - 0.5 * ld - 0.5 * mean.size * np.log(2 * np.pi)


def _log_joint_rows(X: np.ndarray, Ad: np.ndarray, data: PoissonData, prior: PriorSpec) -> np.ndarray:
    """Unnormalized-model log-joint per row; -inf where the rates overflow."""
    Z = X @ Ad.T
    bad = Z.max(axis=1) > LOG_RATE_LIMIT
    Zc = np.minimum(Z, LOG_RATE_LIMIT)
    ll = Z @ data.y - np.exp(Zc).sum(axis=1) - data.log_factorial_term
    V = (X - prior.mu0) @ prior.L.T
    lp = (
        -0.5 * prior.alpha * np.einsum("ij,ij->i", V, V)
        - 0.5 * prior.m * np.log(2.0 * np.pi)
        + 0.5 * prior.logdet_prec()
    )
    out = ll + lp
    out[bad] = -np.inf
    return out


def evidence_quadrature(A: ForwardOperator, data: PoissonData, prior: PriorSpec, grid: int | None = None) -> float:
    """ln Z by tensor Gauss-Hermite quadrature centered at the Laplace fit.

    Substituting x = xhat + sqrt(2) L u with L L^t = H^{-1} gives

        ln Z = (m/2) ln 2 + ln|L| + ln sum_i w_i e^{g(x_i) + |u_i|^2}.

    With ``grid=None`` the degree is refined (24, 32, ..., 72) until two
    successive values agree to 5e-9; an explicit ``grid`` fixes the degree.
    Only for m <= 3 -- node count is exponential in m.
    """
    m = prior.m
    if m > 3:
        raise DimensionTooLarge(f"tensor quadrature supports m <= 3, got {m}")
    Ad = A.dense()
    xhat = map_estimate(A, data, prior)
    _, _, hess = _posterior_parts(A, data, prior)
    Lh = cholesky(np.linalg.inv(hess(xhat)))
    base = 0.5 * m * np.log(2.0) + float(np.sum(np.log(np.diag(Lh))))

    def _value(deg: int) -> float:
        nodes, weights = np.polynomial.hermite.hermgauss(deg)
        U = np.stack([g.ravel() for g in np.meshgrid(*([nodes] * m), indexing="ij")], axis=1)
        logw = sum(g.ravel() for g in np.meshgrid(*([np.log(weights)] * m), indexing="ij"))
        X = xhat[None, :] + np.sqrt(2.0) * (U @ Lh.T)
        g = _log_joint_rows(X, Ad, data, prior)
        return base + float(logsumexp(logw + g + np.einsum("ij,ij->i", U, U)))

    if grid is not None:
        return _value(int(grid))
    prev = _value(24)
    for deg in range(32, 80, 8):
        cur = _value(deg)
        if abs(cur - prev) < 5e-9:
            return cur
        prev = cur
    return prev


def mh_independence_sampler(
    A: ForwardOperator,
    data: PoissonData,
    prior: PriorSpec,
    proposal: GaussianState,
    cfg: McmcConfig | None = None,
    gamma: float = 0.9,
) -> ChainSummary:
    """Independence sampler targeting p(x|y) with a fixed Gaussian proposal.

    Proposals are drawn in fixed-size blocks from one substream and the accept
    draws from another, so results depend only on the seed.  The chain is run
    twice over the same proposal stream: the first pass records scalar
    log-weights and resolves the accept/reject path, the second regenerates
    the blocks and gathers the post-burn-in (thinned above m=1000) samples.
    Rate overflow in the likelihood rejects the proposal rather than erroring.
    """
    cfg = cfg or McmcConfig()
    cfg.validate()
    m = proposal.dim
    if proposal.mask is not None and m > _DENSIFY_LIMIT:
        raise CovTooLargeForSampling(
            f"masked covariance with m={m} > {_DENSIFY_LIMIT} cannot be densified for sampling"
        )
    Ad = A.dense()
    L = proposal.chol()
    ld = logdet(proposal.cov, chol=L)
    children = np.random.SeedSequence(cfg.seed).spawn(2)

    K = int(cfg.chain_length)
    x0 = proposal.mean
    logw0 = float(
        _log_joint_rows(x0[None, :], Ad, data, prior)[0]
        - _gaussian_logpdf_rows(x0[None, :], proposal.mean, L, ld)[0]
    )

    # pass 1: scalar log-weights for every proposal, then the accept scan
    rng_prop = np.random.default_rng(children[0])
    logw = np.empty(K)
    for lo in range(0, K, _MH_CHUNK):
        hi = min(lo + _MH_CHUNK, K)
        Z = rng_prop.standard_normal((hi - lo, m))
        X = proposal.mean + Z @ L.T
        logw[lo:hi] = _log_joint_rows(X, Ad, data, prior) - _gaussian_logpdf_rows(
            X, proposal.mean, L, ld
        )
    log_u = np.log(np.random.default_rng(children[1]).random(K))
    idx, n_acc = _kernels.mh_scan(logw, log_u, logw0)

    thin = 10 if m > _THIN_ABOVE else 1
    kept_times = np.arange(cfg.burn_in, K, thin)
    n_kept = kept_times.size
    if n_kept < 100:
        raise InsufficientSamples(f"only {n_kept} post-burn-in samples; need at least 100")
    kept_src = idx[kept_times]

    # pass 2: regenerate the proposal blocks and gather the kept samples
    samples = np.empty((n_kept, m))
    samples[kept_src == -1] = x0
    rng_prop = np.random.default_rng(children[0])
    for lo in range(0, K, _MH_CHUNK):
        hi = min(lo + _MH_CHUNK, K)
        Z = rng_prop.standard_normal((hi - lo, m))
        need = (kept_src >= lo) & (kept_src < hi)
        if np.any(need):
            X = proposal.mean + Z @ L.T
            samples[need] = X[kept_src[need] - lo]

    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = symmetrize(centered.T @ centered / max(n_kept - 1, 1))
    intervals = hpd_intervals(samples, gamma)
    nb = min(20, max(2, n_kept // 50))
    bs = n_kept // nb
    bm = samples[: nb * bs].reshape(nb, bs, m).mean(axis=1)
    stderr = bm.std(axis=0, ddof=1) / np.sqrt(nb)
    return ChainSummary(
        mean=mean,
        covariance=cov,
        acceptance_rate=n_acc / K,
        intervals=intervals,
        gamma=gamma,
        mean_stderr=stderr,
        n_kept=n_kept,
        thin=thin,
        samples=samples,
    )


def hpd_intervals(obj, gamma: float) -> np.ndarray:
    """Per-coordinate highest-density intervals at mass gamma.

    For a GaussianState these are the exact symmetric quantile intervals; for
    a (samples x dim) array, the narrowest order-statistic window containing a
    fraction gamma of the draws.
    """
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"gamma must lie in (0, 1), got {gamma}")
    if isinstance(obj, GaussianState):
        half = ndtri(0.5 * (1.0 + gamma)) * np.sqrt(np.diag(obj.cov))
        return np.stack([obj.mean - half, obj.mean + half], axis=1)
    samples = np.asarray(obj, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    N = samples.shape[0]
    if N < 100:
        raise InsufficientSamples(f"{N} samples are too few for interval estimates")
    h = int(np.ceil(gamma * N))
    h = min(max(h, 2), N)
    s = np.sort(samples, axis=0)
    widths = s[h - 1 :, :] - s[: N - h + 1, :]
    starts = np.argmin(widths, axis=0)
    cols = np.arange(samples.shape[1])
    return np.stack([s[starts, cols], s[starts + h - 1, cols]], axis=1)


def compare_gaussians(g1: GaussianState, g2: GaussianState):
    """(mean l2 distance, covariance spectral distance, KL(g1||g2), KL(g2||g1))."""
    if g1.dim != g2.dim:
        raise DimensionMismatch("states disagree in dimension")
    mean_err = float(np.linalg.norm(g1.mean - g2.mean))
    diff = symmetrize(g1.cov - g2.cov)
    cov_err = float(np.max(np.abs(np.linalg.eigvalsh(diff))))
    return mean_err, cov_err, gaussian_kl(g1, g2), gaussian_kl(g2, g1)


@dataclass
class OrbitDiagnostics:
    even_decreasing: bool
    odd_increasing: bool
    limits_ordered: bool  # odd limit below even limit in Loewner order
    gap: float  # Frobenius distance between the two limits
    worst_violation: float  # most negative eigenvalue over all order checks


def orbit_check(
    A: ForwardOperator,
    xbar: np.ndarray,
    prior: PriorSpec,
    k_max: int,
    slack: float = 1e-10,
) -> OrbitDiagnostics:
    """Iterate the covariance map from C0 with the mean frozen and test the
    alternating Loewner structure: even iterates descend, odd iterates climb,
    and the odd limit sits below the even limit."""
    Ad = A.dense()
    prec = prior.prec_dense()
    z = Ad @ np.asarray(xbar, dtype=float)
    C = prior.cov_dense()
    iterates = [C]
    for _ in range(k_max):
        q = _kernels.rowwise_quad_full(Ad, iterates[-1])
        rates = np.exp(np.minimum(z + 0.5 * q, LOG_RATE_LIMIT))
        M = symmetrize(Ad.T @ (rates[:, None] * Ad) + prec)
        iterates.append(spd_inverse(M))

    worst = 0.0

    def _ordered(hi, lo):
        nonlocal worst
        lam = float(np.linalg.eigvalsh(hi - lo).min())
        worst = min(worst, lam)
        return lam >= -slack

    even = iterates[0::2]
    odd = iterates[1::2]
    even_ok = all(_ordered(even[j], even[j + 1]) for j in range(len(even) - 1))
    odd_ok = all(_ordered(odd[j + 1], odd[j]) for j in range(len(odd) - 1))
    ordered = _ordered(even[-1], odd[-1]) if odd else True
    gap = float(np.linalg.norm(even[-1] - odd[-1])) if odd else 0.0
    return OrbitDiagnostics(
        even_decreasing=even_ok,
        odd_increasing=odd_ok,
        limits_ordered=ordered,
        gap=gap,
        worst_violation=worst,
    )
