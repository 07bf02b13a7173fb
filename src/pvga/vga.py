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
    woodbury_basis,
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
# Each sweep takes up to _NEWTON_STEPS Newton steps on the mean, ending early
# once a step is below _MEAN_STEP_TOL relative to the mean.  Each step's PCG
# solve runs until its relative residual is below _PCG_TOL; _PCG_MAXIT is only
# a safety ceiling, and a solve that reaches it is counted in the report's
# ``pcg_unconverged``.
_NEWTON_STEPS = 5
_MEAN_STEP_TOL = 1e-8
_PCG_TOL = 1e-6
_PCG_MAXIT = 200
# Stop rules: the bound moves less than _STALL_ELBO ("bound"), or a sweep
# leaves the covariance at its fixed point and the bound moves less than its
# own round-off, which grows with |F| and so with m ("fixed_point"; the
# absolute _STALL_ELBO alone can sit below that round-off).
_STALL_ELBO = 1e-10
_STALL_COV_RESIDUAL = 1e-10
_STALL_REL_ELBO = 1e-11


@dataclass
class VgaConfig:
    """Solver settings: the sweep budget, the execution mode, the rank of the
    factored modes, the sparsity mask of ``lowrank_sparse`` and the seed of
    the randomized factorization.

    The algorithm's own step counts and tolerances are module constants: five
    Newton updates and one fixed-point update per outer sweep, stopping when
    the bound moves less than 1e-10, or less than 1e-11 |F| once the
    covariance residual is below 1e-10.
    """

    max_outer: int = 50
    mode: str = "dense"
    rank: int | None = None
    mask: SparsityMask | None = None
    rsvd_seed: int = 0

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_outer < 1:
            raise ConfigError("max_outer must be at least 1")
        if self.mode != "dense" and self.rank is None:
            raise ConfigError(f"mode {self.mode!r} requires an explicit rank")
        if self.mode == "lowrank_sparse" and self.mask is None:
            raise ConfigError("mode 'lowrank_sparse' requires a sparsity mask")


@dataclass
class MeanStepReport:
    delta_norm: float
    grad_norm: float  # ||G|| at the returned mean, from the accepted trial
    pcg_iterations: int
    pcg_converged: bool
    halvings: int


@dataclass
class SolverReport:
    elbo_trace: list = field(default_factory=list)
    mean_residual_trace: list = field(default_factory=list)
    cov_residual_trace: list = field(default_factory=list)
    inner_counts: list = field(default_factory=list)
    # "bound", "fixed_point", or None when the run used up max_outer
    stop_rule: str | None = None
    wall_time: float = 0.0
    flags: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stop_rule is not None


def _check_conditioning(apply_J, prior: PriorSpec, m: int) -> None:
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
    # lambda_max(Cbar0) via a short power iteration through the prior factorization
    u = np.ones(m) / np.sqrt(m)
    for _ in range(20):
        w = prior._s.solve(u)
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
) -> tuple[np.ndarray, MeanStepReport]:
    """One Newton step on the mean: solve (A^t D A + C0^{-1}) dx = -G by PCG,
    then backtrack on ||G||.  The report's ``grad_norm`` is ||G|| at the
    returned mean, read off the accepted trial.

    The preconditioner is the current covariance C when it is stored whole
    (dense and low-rank modes).  After a fixed-point step C = (A^t D' A +
    C0^{-1})^{-1}, with A's rank-r factor in low-rank mode: the inverse of
    this system at the rates C was built from, so PCG needs only a few
    iterations once the rates settle.  Masked mode, whose C is only a
    projection, preconditions with C0.

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
        _check_conditioning(apply_J, prior, state.dim)

    precond = prior.cov_apply if state.mask is not None else state.cov
    res = pcg_solve(apply_J, -G, precond=precond, tol=_PCG_TOL, maxit=_PCG_MAXIT)
    step = res.x
    if not np.all(np.isfinite(step)):
        raise PcgBreakdown("non-finite Newton step")

    t = 1.0
    halvings = 0
    for _ in range(20):
        x_new = x + t * step
        trial_rates = np.exp(np.minimum(A.matvec(x_new) + 0.5 * q, LOG_RATE_LIMIT))
        trial_norm = scipy.linalg.norm(gradient(x_new, trial_rates), check_finite=False)
        if trial_norm <= g_norm:
            break
        t *= 0.5
        halvings += 1
    else:
        x_new = x  # no decrease found; keep the current point
        t = 0.0
        trial_norm = g_norm
    report = MeanStepReport(
        delta_norm=float(np.linalg.norm(t * step)),
        grad_norm=float(trial_norm),
        pcg_iterations=res.iterations,
        pcg_converged=res.converged,
        halvings=halvings,
    )
    return x_new, report


def fixed_point_step_cov(
    state: GaussianState,
    A: ForwardOperator,
    prior: PriorSpec,
    cfg: VgaConfig,
    factor: LowRankFactor | None = None,
    basis: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, float]:
    """One application of the covariance map T(C) = (C0^{-1} + A^t D A)^{-1}.

    Dense mode inverts directly; the low-rank modes use the Woodbury form on a
    factorization of A (computed here once if not supplied) and its
    rate-free ``basis = (C0 V, R)`` from :func:`woodbury_basis` (likewise).
    In masked mode only the mask entries of the result are computed, and
    they are returned as values aligned with ``mask.rows``/``mask.cols``.

    Returns the new covariance and ln|T(C)| of the *unprojected* map, a
    byproduct of either path (Cholesky of the precision, or the determinant
    lemma on the low-rank inner system).
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
        return spd_inverse(M, chol=L), -2.0 * float(np.sum(np.log(np.diag(L))))
    if factor is None:
        factor = rsvd(A, cfg.rank, seed=cfg.rsvd_seed)
    mask = cfg.mask if cfg.mode == "lowrank_sparse" else None
    C_new, inner_logdet = woodbury_cov(prior, factor, rates, mask=mask, basis=basis)
    return C_new, -prior.logdet_prec() - inner_logdet


def _initial_state(m: int, mask: SparsityMask | None) -> GaussianState:
    """The identity start: zero mean, C = I (ln|C| = 0), held on ``mask``."""
    cov = np.eye(m) if mask is None else (mask.rows == mask.cols).astype(float)
    return GaussianState(np.zeros(m), cov, mask, logdet=0.0)


def run_vga(
    A: ForwardOperator,
    data: PoissonData,
    prior: PriorSpec,
    cfg: VgaConfig | None = None,
    initial_state: GaussianState | None = None,
) -> tuple[GaussianState, SolverReport]:
    """Run the alternating scheme until the bound stalls: it moves less than
    1e-10, or the covariance residual is below 1e-10 and the bound moves less
    than 1e-11 |F|.  The report's ``stop_rule`` names the rule that fired.

    Returns the final state and a report; a run that exhausts max_outer comes
    back with ``converged=False`` rather than raising.  The run starts from
    ``initial_state`` (any start, e.g. a warm start), or else from the zero
    mean and identity covariance.  A state held on another mask, or on none,
    is re-held on this run's and keeps its ln|C|.  A masked state
    warm-starting an unmasked run gives its mean only: its projection need
    not be positive definite, so the covariance and ln|C| come from the
    identity start.  Every mode evaluates the bound alike: ln|C| is the
    state's own at entry and the fixed-point step's after each sweep.
    """
    cfg = cfg or VgaConfig()
    cfg.validate()
    t0 = time.perf_counter()
    mask = cfg.mask if cfg.mode == "lowrank_sparse" else None
    state = initial_state if initial_state is not None else _initial_state(A.n_cols, mask)
    if state.mask is not None and mask is None:
        state = _initial_state(A.n_cols, None).replace_mean(state.mean)
    elif state.mask is not mask:
        state = GaussianState(state.mean, state.cov, mask, logdet=state.logdet)
    factor = basis = None
    if cfg.mode != "dense":
        factor = rsvd(A, cfg.rank, seed=cfg.rsvd_seed)
        basis = woodbury_basis(prior, factor.V)
    report = SolverReport()
    F = elbo(state, A, data, prior).total
    report.elbo_trace.append(F)

    cov_prev = cov_two_ago = None
    for _ in range(cfg.max_outer):
        counts = {"newton": 0, "pcg": 0, "pcg_unconverged": 0, "fixed_point": 1, "halvings": 0}
        delta = 0.0
        for _ in range(_NEWTON_STEPS):
            x_new, step = newton_step_mean(state, A, data, prior)
            state = state.replace_mean(x_new)
            counts["newton"] += 1
            counts["pcg"] += step.pcg_iterations
            counts["pcg_unconverged"] += not step.pcg_converged
            counts["halvings"] += step.halvings
            delta = step.delta_norm
            if delta <= _MEAN_STEP_TOL * max(1.0, float(np.linalg.norm(x_new))):
                break
        C_new, logdet_c = fixed_point_step_cov(state, A, prior, cfg, factor=factor, basis=basis)
        # masked: the values, whose norms are those of the zero-filled matrices
        C_old = state.values
        scale = max(1.0, float(np.linalg.norm(C_old)))
        cov_residual = float(np.linalg.norm(C_new - C_old)) / scale
        cov_two_ago, cov_prev = cov_prev, C_old
        state = state.replace_cov(C_new, logdet_c)
        F_new = _bound_with_logdet(state, A, data, prior, logdet_c).total
        report.elbo_trace.append(F_new)
        report.mean_residual_trace.append(delta)
        report.cov_residual_trace.append(cov_residual)
        report.inner_counts.append(counts)
        dF = abs(F_new - F)
        F = F_new
        if dF < _STALL_ELBO:
            report.stop_rule = "bound"
        elif cov_residual < _STALL_COV_RESIDUAL and dF < _STALL_REL_ELBO * abs(F_new):
            report.stop_rule = "fixed_point"
        if report.converged:
            break
    # period-2 limit diagnosis: consecutive covariance iterates stay apart
    # while the every-other-step change has collapsed
    if cov_two_ago is not None:
        C_last = state.values
        scale = max(1.0, float(np.linalg.norm(C_last)))
        near = float(np.linalg.norm(C_last - cov_two_ago)) / scale
        far = float(np.linalg.norm(C_last - cov_prev)) / scale
        if far > 1e-8 and near < 1e-10:
            report.flags.append("CovarianceOscillation")
    if state.saturated:
        report.flags.append("NumericallySaturated")
    report.wall_time = time.perf_counter() - t0
    return state, report


def select_mode(A: ForwardOperator, memory_budget: float | None = None):
    """Pick an execution mode (and a rank for the factored modes) for A.

    Dense covariance algebra up to m = 1000 (unless the budget forbids the
    m x m footprint); factored above, switching to the masked variant once
    dense intermediates get large.  The rank suggestion probes the spectrum
    and cuts at a 1e-6 relative singular-value threshold.
    """
    n, m = A.shape
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
