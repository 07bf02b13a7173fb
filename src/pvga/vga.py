"""Alternating Newton / fixed-point maximization of the evidence lower bound.

One outer iteration takes a few Newton steps on the mean (the covariance held
fixed), then applies the covariance fixed-point map

    C  <-  (C0^{-1} + A^t D A)^{-1},   D = diag(e^d),

densely, through a low-rank factorization of A (Woodbury form), or restricted
to a sparsity mask.  The bound increases monotonically along the iterates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .elbo import GaussianState, elbo, rate_vector, _bound_with_logdet, _exp_rates
from .errors import ConfigError, IllConditioned, PcgBreakdown
from .linalg import (
    LowRankFactor,
    SparsityMask,
    cholesky,
    pcg_solve,
    rsvd,
    spd_inverse,
    spd_rcond,
    symmetrize,
    woodbury_cov,
)
from .model import LOG_RATE_LIMIT, ForwardOperator, PoissonData, PriorSpec

__all__ = [
    "VgaConfig",
    "SolverReport",
    "MeanStepReport",
    "newton_step_mean",
    "fixed_point_step_cov",
    "run_vga",
    "select_mode",
]

_MODES = ("dense", "lowrank", "lowrank_sparse")
_COND_LIMIT = 1e14


@dataclass
class VgaConfig:
    """Solver settings; the defaults are the ones the algorithm is tuned for
    (five Newton updates and one fixed-point update per outer sweep, stopping
    when the bound moves less than 1e-10)."""

    max_outer: int = 50
    newton_steps_per_outer: int = 5
    fixedpoint_steps_per_outer: int = 1
    outer_tol_elbo: float = 1e-10
    pcg_tol: float = 1e-6
    pcg_maxit: int = 10
    mode: str = "dense"
    rank: int | None = None
    mask: SparsityMask | None = None
    init_mean: np.ndarray | None = None
    init_cov: str = "identity"  # "identity" | "prior"
    mean_step_tol: float = 1e-8  # early exit for the inner Newton loop
    rsvd_seed: int = 0

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.init_cov not in ("identity", "prior"):
            raise ConfigError(f"init_cov must be 'identity' or 'prior', got {self.init_cov!r}")
        for name in ("outer_tol_elbo", "pcg_tol", "mean_step_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("max_outer", "newton_steps_per_outer", "fixedpoint_steps_per_outer", "pcg_maxit"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.mode != "dense" and self.rank is None:
            raise ConfigError(f"mode {self.mode!r} requires an explicit rank")
        if self.mode == "lowrank_sparse" and self.mask is None:
            raise ConfigError("mode 'lowrank_sparse' requires a sparsity mask")


@dataclass
class MeanStepReport:
    delta_norm: float
    pcg_iterations: int
    pcg_converged: bool
    halvings: int


@dataclass
class SolverReport:
    elbo_trace: list = field(default_factory=list)
    mean_residual_trace: list = field(default_factory=list)
    cov_residual_trace: list = field(default_factory=list)
    inner_counts: list = field(default_factory=list)
    converged: bool = False
    wall_time: float = 0.0
    flags: list = field(default_factory=list)


def _check_conditioning(apply_J, prior: PriorSpec, m: int, rng_dim: int) -> None:
    """Cheap spectral guard: power-iterate J and bound its condition number
    through lambda_min(J) >= lambda_min(C0^{-1})."""
    v = np.ones(m) / np.sqrt(m)
    lam = 0.0
    for _ in range(20):
        w = apply_J(v)
        lam = float(np.linalg.norm(w))
        if lam == 0.0:
            return
        v = w / lam
    # lambda_max(C0) via a short power iteration on the cached base
    base = prior._s.cov_base()
    u = np.ones(m) / np.sqrt(m)
    for _ in range(20):
        w = base @ u
        mu = float(np.linalg.norm(w))
        u = w / mu
    cond_bound = lam * mu / prior.alpha
    if cond_bound > _COND_LIMIT:
        raise IllConditioned(
            f"Newton system condition estimate {cond_bound:.2e} exceeds {_COND_LIMIT:.0e}"
        )


def newton_step_mean(
    state: GaussianState,
    A: ForwardOperator,
    data: PoissonData,
    prior: PriorSpec,
    cfg: VgaConfig,
) -> tuple[np.ndarray, MeanStepReport]:
    """One Newton step on the mean: solve (A^t D A + C0^{-1}) dx = -G by PCG
    with the prior covariance as preconditioner, then backtrack on ||G||.

    G(x) = A^t (e^d - y) + C0^{-1}(x - mu0) with d = Ax + 1/2 diag(A C A^t)
    and the rates clamped at e^LOG_RATE_LIMIT.  Its norms are taken with
    BLAS nrm2, which stays finite where sqrt(G.G) would overflow.
    """
    def gradient(v, rates):
        return A.rmatvec(rates - data.y) + prior.prec_apply(v - prior.mu0)

    rates = _exp_rates(state, rate_vector(state, A))
    q = state._quad(A)
    x = state.mean
    G = gradient(x, rates)
    g_norm = scipy.linalg.norm(G, check_finite=False)

    def apply_J(v):
        return A.rmatvec(rates * A.matvec(v)) + prior.prec_apply(v)

    if state.saturated:
        _check_conditioning(apply_J, prior, state.dim, state.dim)

    res = pcg_solve(apply_J, -G, precond=prior.cov_apply, tol=cfg.pcg_tol, maxit=cfg.pcg_maxit)
    step = res.x
    if not np.all(np.isfinite(step)):
        raise PcgBreakdown("non-finite Newton step")

    t = 1.0
    halvings = 0
    for _ in range(20):
        x_new = x + t * step
        trial_rates = np.exp(np.minimum(A.matvec(x_new) + 0.5 * q, LOG_RATE_LIMIT))
        if scipy.linalg.norm(gradient(x_new, trial_rates), check_finite=False) <= g_norm:
            break
        t *= 0.5
        halvings += 1
    else:
        x_new = x  # no decrease found; keep the current point
        t = 0.0
    report = MeanStepReport(
        delta_norm=float(np.linalg.norm(t * step)),
        pcg_iterations=res.iterations,
        pcg_converged=res.converged,
        halvings=halvings,
    )
    return x_new, report


def fixed_point_step_cov(
    state: GaussianState,
    A: ForwardOperator,
    data: PoissonData,
    prior: PriorSpec,
    cfg: VgaConfig,
    factor: LowRankFactor | None = None,
    return_logdet: bool = False,
) -> np.ndarray | tuple[np.ndarray, float]:
    """One application of the covariance map T(C) = (C0^{-1} + A^t D A)^{-1}.

    Dense mode inverts directly; the low-rank modes use the Woodbury form on a
    factorization of A (computed here once if not supplied).  In masked mode
    only the mask entries of the result are materialized (zeros elsewhere).

    ``return_logdet=True`` additionally returns ln|T(C)| of the *unprojected*
    map, a byproduct of either path (Cholesky of the precision, or the
    determinant lemma on the low-rank inner system).  The solver monitors its
    bound with this value in masked mode, where the projected matrix itself
    can be indefinite.
    """
    d = rate_vector(state, A)
    rates = _exp_rates(state, d)
    if cfg.mode == "dense":
        Ad = A.dense()
        M = Ad.T @ (rates[:, None] * Ad) + prior.prec_dense()
        M = symmetrize(M)
        L = cholesky(M)
        if spd_rcond(M, chol=L) < 1.0 / _COND_LIMIT:
            raise IllConditioned("covariance fixed-point system is numerically singular")
        C_new = spd_inverse(M, chol=L)
        if return_logdet:
            return C_new, -2.0 * float(np.sum(np.log(np.diag(L))))
        return C_new
    if factor is None:
        factor = rsvd(A, cfg.rank, seed=cfg.rsvd_seed)
    mask = cfg.mask if cfg.mode == "lowrank_sparse" else None
    if return_logdet:
        C_new, inner_logdet = woodbury_cov(prior, factor, rates, mask=mask, return_inner_logdet=True)
        return C_new, -prior.logdet_prec() - inner_logdet
    return woodbury_cov(prior, factor, rates, mask=mask)


def _initial_state(A: ForwardOperator, prior: PriorSpec, cfg: VgaConfig) -> GaussianState:
    m = A.n_cols
    x0 = np.zeros(m) if cfg.init_mean is None else np.asarray(cfg.init_mean, dtype=float)
    mask = cfg.mask if cfg.mode == "lowrank_sparse" else None
    if cfg.init_cov == "identity":
        C0 = np.eye(m)
    else:
        C0 = prior.cov_dense()
        if mask is not None:
            C0 = mask.apply(C0)
    return GaussianState(x0, C0, mask)


def run_vga(
    A: ForwardOperator,
    data: PoissonData,
    prior: PriorSpec,
    cfg: VgaConfig | None = None,
    initial_state: GaussianState | None = None,
) -> tuple[GaussianState, SolverReport]:
    """Run the alternating scheme until the bound stalls below outer_tol_elbo.

    Returns the final state and a report; a run that exhausts max_outer comes
    back with ``converged=False`` rather than raising.  ``initial_state``
    overrides the configured initialization (used for warm starts).
    """
    cfg = cfg or VgaConfig()
    cfg.validate()
    t0 = time.perf_counter()
    state = initial_state if initial_state is not None else _initial_state(A, prior, cfg)
    factor = None
    if cfg.mode != "dense":
        factor = rsvd(A, cfg.rank, seed=cfg.rsvd_seed)
    masked = cfg.mode == "lowrank_sparse"
    report = SolverReport()
    if masked:
        # The projected covariance may be indefinite, so ln|C| comes from the
        # unprojected update throughout.  At initialization that value is
        # exact for the identity; for other starts (prior init, warm starts)
        # the prior log-determinant stands in until the first fixed-point
        # step replaces it, which only shifts where the very first stall
        # test sits.
        if initial_state is None and cfg.init_cov == "identity":
            logdet_c = 0.0
        else:
            logdet_c = -prior.logdet_prec()
        F = _bound_with_logdet(state, A, data, prior, logdet_c).total
    else:
        F = elbo(state, A, data, prior).total
    report.elbo_trace.append(F)

    cov_prev = cov_two_ago = None
    for _ in range(cfg.max_outer):
        counts = {"newton": 0, "pcg": 0, "fixed_point": 0, "halvings": 0}
        delta = 0.0
        for _ in range(cfg.newton_steps_per_outer):
            x_new, step = newton_step_mean(state, A, data, prior, cfg)
            state = state.replace_mean(x_new)
            counts["newton"] += 1
            counts["pcg"] += step.pcg_iterations
            counts["halvings"] += step.halvings
            delta = step.delta_norm
            if delta <= cfg.mean_step_tol * max(1.0, float(np.linalg.norm(x_new))):
                break
        cov_residual = 0.0
        for _ in range(cfg.fixedpoint_steps_per_outer):
            C_new, logdet_c = fixed_point_step_cov(
                state, A, data, prior, cfg, factor=factor, return_logdet=True
            )
            scale = max(1.0, float(np.linalg.norm(state.cov)))
            cov_residual = float(np.linalg.norm(C_new - state.cov)) / scale
            cov_two_ago = cov_prev
            cov_prev = state.cov
            state = state.replace_cov(C_new)
            counts["fixed_point"] += 1
        if masked:
            F_new = _bound_with_logdet(state, A, data, prior, logdet_c).total
        else:
            F_new = elbo(state, A, data, prior).total
        report.elbo_trace.append(F_new)
        report.mean_residual_trace.append(delta)
        report.cov_residual_trace.append(cov_residual)
        report.inner_counts.append(counts)
        if abs(F_new - F) < cfg.outer_tol_elbo:
            report.converged = True
            F = F_new
            break
        F = F_new
    # period-2 limit diagnosis: consecutive covariance iterates stay apart
    # while the every-other-step change has collapsed
    if cov_two_ago is not None:
        scale = max(1.0, float(np.linalg.norm(state.cov)))
        near = float(np.linalg.norm(state.cov - cov_two_ago)) / scale
        far = float(np.linalg.norm(state.cov - cov_prev)) / scale
        if far > 1e-8 and near < 1e-10:
            report.flags.append("CovarianceOscillation")
    if state.saturated:
        report.flags.append("NumericallySaturated")
    report.wall_time = time.perf_counter() - t0
    return state, report


def select_mode(A: ForwardOperator, m: int, n: int, memory_budget: float | None = None):
    """Pick an execution mode (and a rank for the factored modes).

    Dense covariance algebra up to m = 1000 (unless the budget forbids the
    m x m footprint); factored above, switching to the masked variant once
    dense intermediates get large.  The rank suggestion probes the spectrum
    and cuts at a 1e-6 relative singular-value threshold.
    """
    dense_bytes = 8.0 * m * m
    if m <= 1000 and (memory_budget is None or dense_bytes <= memory_budget):
        return "dense", None
    probe = rsvd(A, min(200, m, n), oversample=10, power_iters=2, seed=0)
    s = probe.S
    below = np.nonzero(s < 1e-6 * s[0])[0]
    rank = int(below[0]) if below.size else int(s.size)
    rank = max(rank, 1)
    if m > 4096:
        return "lowrank_sparse", rank
    return "lowrank", rank
