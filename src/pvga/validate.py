"""Reference estimators and posterior validation tools.

MAP/Laplace give the classical Gaussian baseline, built from the solver's own
mean step and covariance map; a Metropolis-Hastings
independence sampler driven by a Gaussian proposal (typically the variational
solution) corrects it toward the exact posterior; HPD intervals and Gaussian
comparison metrics quantify the differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.special import logsumexp, ndtri

from . import _kernels, linalg
from .elbo import DenseCov, GaussianState, PointMass, gaussian_kl
from .errors import (
    ConfigError,
    DimensionMismatch,
    DimensionTooLarge,
    InsufficientSamples,
    MaxIterationsExceeded,
    is_count,
)
# cholesky, spd_inverse: unused here, kept as names perfbench's tracer wraps
from .linalg import cholesky, logdet, spd_inverse, symmetrize  # noqa: F401
from .model import LOG_RATE_LIMIT, ForwardOperator, PoissonData, PriorSpec
from .vga import fixed_point_step_cov, newton_step_mean

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

_THIN_ABOVE = 1000
_MAP_GRAD_TOL = 1e-10
_MAP_MAXIT = 100
_ORBIT_SLACK = 1e-10  # Loewner order tolerance of orbit_check
_HPD_GAMMA = 0.9  # mass of the sampler's HPD intervals


@dataclass
class McmcConfig:
    chain_length: int = 200_000
    burn_in: int = 100_000
    seed: int = 0

    def validate(self) -> None:
        for name in ("chain_length", "burn_in", "seed"):
            v = getattr(self, name)
            if not (is_count(v) and v >= 0):
                raise ConfigError(f"{name} must be a nonnegative integer, got {v!r}")
        if not self.burn_in < self.chain_length:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < chain_length")

    def kept(self, m: int) -> tuple[int, int]:
        """(thin, n_kept) of the chain on m coordinates: it keeps every step
        after burn-in, every 10th above m = 1000, and must keep at least 100
        (InsufficientSamples otherwise)."""
        thin = 10 if m > _THIN_ABOVE else 1
        n_kept = len(range(self.burn_in, self.chain_length, thin))
        if n_kept < 100:
            raise InsufficientSamples(f"only {n_kept} post-burn-in samples; need at least 100")
        return thin, n_kept


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


def map_estimate(A: ForwardOperator, data: PoissonData, prior: PriorSpec) -> np.ndarray:
    """Posterior mode: the solver's mean step at C = 0.

    With C = 0 the log-rates are Ax and the bound's mean objective is the
    log-posterior, so :func:`newton_step_mean` repeated on the point mass
    N(x, 0) from x = mu0, preconditioned with C0, climbs to the mode, with
    products by A and prior solves only (no dense operator).  Returns once the gradient norm at the
    returned mean is at most 1e-10; raises MaxIterationsExceeded after 100
    steps.
    """
    state = GaussianState(prior.mu0.copy(), PointMass())
    for _ in range(_MAP_MAXIT):
        x, step = newton_step_mean(state, A, data, prior, prior.cov_apply)
        if step.grad_norm <= _MAP_GRAD_TOL:
            return x
        state = state.replace_mean(x)
    raise MaxIterationsExceeded(f"posterior mode not located within {_MAP_MAXIT} Newton steps")


def laplace_approximation(A: ForwardOperator, data: PoissonData, prior: PriorSpec) -> GaussianState:
    """Gaussian N(xhat, H^{-1}) from the second-order expansion at the mode.

    H^{-1} = (C0^{-1} + A^t diag(e^{A xhat}) A)^{-1} is one dense application
    of the solver's covariance map at the point mass N(xhat, 0); the state
    carries the map's ln|H^{-1}|.
    """
    x_hat = map_estimate(A, data, prior)
    return GaussianState(x_hat, fixed_point_step_cov(GaussianState(x_hat, PointMass()), A, prior))


def _log_joint_rows(X: np.ndarray, Ad: np.ndarray, data: PoissonData, prior: PriorSpec) -> np.ndarray:
    """Unnormalized-model log-joint per row; -inf where the rates overflow.

    The log-rates are clamped and exponentiated in place, so the rows x n
    rate array is the one temporary of its size."""
    Z = X @ Ad.T
    bad = Z.max(axis=1) > LOG_RATE_LIMIT
    ll = Z @ data.y
    np.minimum(Z, LOG_RATE_LIMIT, out=Z)
    ll -= np.exp(Z, out=Z).sum(axis=1)
    ll -= data.log_factorial_term
    lp = (
        -0.5 * prior.alpha * prior.quad_base_rows(X - prior.mu0)
        - 0.5 * prior.m * np.log(2.0 * np.pi)
        + 0.5 * prior.logdet_prec()
    )
    out = ll + lp
    out[bad] = -np.inf
    return out


def evidence_quadrature(A: ForwardOperator, data: PoissonData, prior: PriorSpec) -> float:
    """ln Z by tensor Gauss-Hermite quadrature centered at the Laplace fit.

    Substituting x = xhat + sqrt(2) L u with L L^t = H^{-1} gives

        ln Z = (m/2) ln 2 + ln|L| + ln sum_i w_i e^{g(x_i) + |u_i|^2}.

    The degree is refined (24, 32, ..., 72) until two successive values
    agree to 5e-9.  Only for m <= 3 -- node count is exponential in m.
    """
    m = prior.m
    if m > 3:
        raise DimensionTooLarge(f"tensor quadrature supports m <= 3, got {m}")
    Ad = A.dense()
    lap = laplace_approximation(A, data, prior)
    xhat, Lh = lap.mean, lap.C.chol()
    base = 0.5 * m * np.log(2.0) + 0.5 * lap.C.logdet

    def _value(deg: int) -> float:
        nodes, weights = np.polynomial.hermite.hermgauss(deg)
        U = np.stack([g.ravel() for g in np.meshgrid(*([nodes] * m), indexing="ij")], axis=1)
        logw = sum(g.ravel() for g in np.meshgrid(*([np.log(weights)] * m), indexing="ij"))
        X = xhat[None, :] + np.sqrt(2.0) * (U @ Lh.T)
        g = _log_joint_rows(X, Ad, data, prior)
        return base + float(logsumexp(logw + g + np.einsum("ij,ij->i", U, U)))

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
) -> ChainSummary:
    """Independence sampler targeting p(x|y) with a fixed Gaussian proposal.

    Proposals are drawn in fixed-size blocks from one substream and the accept
    draws from another, so results depend only on the seed.  The chain runs in
    one pass: each block of standard normals z is drawn once, mapped to
    proposals x = mean + L z, weighed by log p(x, y) - log q(x) (where
    log q(x) = -|z|^2 / 2 - ln|C| / 2 - (m/2) ln 2 pi, so no solve with L is
    needed), scanned from the state carried over from the previous block, and
    its post-burn-in samples are gathered before the next block is drawn
    (:meth:`McmcConfig.kept` gives the thinning).  Rate overflow in the
    likelihood rejects the proposal rather than erroring.  A proposal without
    a :class:`DenseCov` is refused (ConfigError): a masked projection is not a
    covariance to draw from.

    Beyond the kept samples and its inputs, the sampler works in row blocks
    of at most ``linalg._BLOCK_ELEMS`` elements (2^16): a block holds
    max(m, n) columns, so 655 proposals at m = n = 100 and 65 at m = 1001.
    The normals and the proposals each fill one buffer that every block
    reuses, and the log-joint forms one rate block.  The covariance is summed
    over centered row blocks after the mean, in place into the m x m result,
    and the HPD intervals, at mass 0.9, sort as many coordinates at a time
    as one block holds.
    """
    cfg = cfg or McmcConfig()
    cfg.validate()
    m = proposal.dim
    if not isinstance(proposal.C, DenseCov):
        raise ConfigError("the sampler needs a dense proposal covariance, not a masked one")
    K = int(cfg.chain_length)
    thin, n_kept = cfg.kept(m)
    kept_times = np.arange(cfg.burn_in, K, thin)

    Ad = A.dense()
    L = proposal.C.chol()
    log_norm = -0.5 * logdet(L) - 0.5 * m * np.log(2 * np.pi)
    children = np.random.SeedSequence(cfg.seed).spawn(2)
    rng_prop = np.random.default_rng(children[0])
    rng_acc = np.random.default_rng(children[1])

    # the carried state: the chain's current point and its log-weight
    cur_x = proposal.mean
    cur_w = float(_log_joint_rows(cur_x[None, :], Ad, data, prior)[0] - log_norm)
    n_acc = 0
    samples = np.empty((n_kept, m))
    step = max(1, linalg._BLOCK_ELEMS // max(m, Ad.shape[0]))
    Z = np.empty((min(step, K), m))
    X = np.empty_like(Z)
    for lo in range(0, K, step):
        hi = min(lo + step, K)
        z, x = Z[: hi - lo], X[: hi - lo]
        rng_prop.standard_normal(out=z)
        np.matmul(z, L.T, out=x)
        x += proposal.mean
        logw = _log_joint_rows(x, Ad, data, prior)
        logw -= log_norm - 0.5 * np.einsum("ij,ij->i", z, z)
        # idx[k] = -1 means the chain still sits on the carried state
        idx, acc = _kernels.mh_scan(logw, np.log(rng_acc.random(hi - lo)), cur_w)
        n_acc += acc
        a, b = np.searchsorted(kept_times, (lo, hi))
        src = idx[kept_times[a:b] - lo]
        # -1 wraps to the block's last row; those rows are the carried state
        np.take(x, src, axis=0, out=samples[a:b], mode="wrap")
        samples[a:b][src < 0] = cur_x
        if idx[-1] >= 0:
            cur_x, cur_w = x[idx[-1]].copy(), logw[idx[-1]]

    mean = samples.mean(axis=0)
    cov = _sample_covariance(samples, mean)
    intervals = hpd_intervals(samples, _HPD_GAMMA)
    nb = min(20, max(2, n_kept // 50))
    bs = n_kept // nb
    bm = samples[: nb * bs].reshape(nb, bs, m).mean(axis=1)
    stderr = bm.std(axis=0, ddof=1) / np.sqrt(nb)
    return ChainSummary(
        mean=mean,
        covariance=cov,
        acceptance_rate=n_acc / K,
        intervals=intervals,
        gamma=_HPD_GAMMA,
        mean_stderr=stderr,
        n_kept=n_kept,
        thin=thin,
        samples=samples,
    )


def _sample_covariance(samples: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Covariance of the rows about their ``mean`` (divisor N - 1).

    Centered row blocks of at most ``linalg._BLOCK_ELEMS`` elements, held in
    one reused buffer, are added into one triangle of the result by BLAS
    ``syrk``; the triangle is then mirrored, so the result is exactly
    symmetric and no m x m array but the result is formed."""
    N, m = samples.shape
    scatter = np.zeros((m, m))
    step = max(1, linalg._BLOCK_ELEMS // m)
    buf = np.empty((min(step, N), m))
    for lo in range(0, N, step):
        block = buf[: min(step, N - lo)]
        np.subtract(samples[lo : lo + step], mean, out=block)
        # on the Fortran-ordered views: scatter^t's upper (scatter's lower)
        # triangle += block^t block, written in place
        dsyrk(1.0, block.T, beta=1.0, c=scatter.T, overwrite_c=1)
    for i in range(1, m):
        scatter[:i, i] = scatter[i, :i]
    scatter /= max(N - 1, 1)
    return scatter


def hpd_intervals(obj, gamma: float) -> np.ndarray:
    """Per-coordinate highest-density intervals at mass gamma.

    For a GaussianState these are the exact symmetric quantile intervals; for
    a (samples x dim) array, the narrowest order-statistic window containing a
    fraction gamma of the draws.  The draws are sorted a few coordinates at a
    time, as many as ``linalg._BLOCK_ELEMS`` elements hold (at least one),
    in one reused buffer.
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
    # one coordinate per contiguous row of the buffer: sorting along the
    # strided sample axis is about twice as slow, and sorting a copy leaves
    # the caller's draws in their order.
    dim = samples.shape[1]
    out = np.empty((dim, 2))
    step = max(1, linalg._BLOCK_ELEMS // N)
    buf = np.empty((min(step, dim), N))
    for lo in range(0, dim, step):
        s = buf[: min(step, dim - lo)]
        s[...] = samples[:, lo : lo + step].T
        s.sort(axis=1)
        widths = s[:, h - 1 :] - s[:, : N - h + 1]
        starts = np.argmin(widths, axis=1)
        rows = np.arange(s.shape[0])
        out[lo : lo + step, 0] = s[rows, starts]
        out[lo : lo + step, 1] = s[rows, starts + h - 1]
    return out


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


def orbit_check(A: ForwardOperator, xbar: np.ndarray, prior: PriorSpec, k_max: int) -> OrbitDiagnostics:
    """Iterate the covariance map from C0 with the mean frozen and test the
    alternating Loewner structure: even iterates descend, odd iterates climb,
    and the odd limit sits below the even limit, each up to an eigenvalue
    slack of 1e-10.

    Each iterate is one dense :func:`fixed_point_step_cov`, so a numerically
    singular system raises IllConditioned, as it does in the solver.
    """
    state = GaussianState(np.asarray(xbar, dtype=float), prior.cov_dense())
    iterates = [state.cov]
    for _ in range(k_max):
        state = state.replace_cov(fixed_point_step_cov(state, A, prior))
        iterates.append(state.cov)

    worst = 0.0

    def _ordered(hi, lo):
        nonlocal worst
        lam = float(np.linalg.eigvalsh(hi - lo).min())
        worst = min(worst, lam)
        return lam >= -_ORBIT_SLACK

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
