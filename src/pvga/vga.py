"""Alternating Newton / fixed-point maximization of the evidence lower bound.

One outer iteration takes a few Newton steps on the mean (the covariance held
fixed), then applies the covariance fixed-point map

    C  <-  (C0^{-1} + A^t D A)^{-1},   D = diag(e^d),

densely, through a low-rank factorization of A (Woodbury form), or restricted
to a sparsity mask.  In dense mode the bound increases monotonically along
the iterates.  The factored modes hold no such guarantee: on phillips 100
with the CLI's seed-0 data, low rank 5 with H1 at alpha = 400 drops it by
1e-8 on one sweep (5e-11 relative to |F| = 217, above round-off), and the
masked mode at rank 20 with a 3-band mask and L2 at alpha = 10 by 1.7e-5.
The masked bound is a surrogate: it pairs the mask values with the ln|C| of
the unprojected Woodbury update.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .elbo import DenseCov, GaussianState, MaskedCov, PointMass, elbo, rate_vector
from .elbo import _bound_with_logdet, _dense_precision, _exp_rates, _saturates
from .errors import BreakdownError, ConfigError, DimensionMismatch, IllConditioned, is_count
# spd_rcond: unused here, kept as a name perfbench's tracer wraps
from .linalg import (  # noqa: F401
    SparsityMask,
    WoodburyBasis,
    cholesky,
    logdet,
    pcg_solve,
    rsvd,
    spd_inverse,
    spd_rcond,
    woodbury_basis,
    woodbury_cov,
)
from .model import ForwardOperator, PoissonData, PriorSpec

__all__ = [
    "VgaConfig",
    "SolverReport",
    "MeanStepReport",
    "newton_step_mean",
    "fixed_point_step_cov",
    "run_vga",
]

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
    """Solver settings: the sweep budget, and the rank and mask that choose
    the mode (:attr:`execution_mode`): dense without a rank, low-rank with
    one, masked with a rank and a mask.  :meth:`validate` refuses a
    ``max_outer`` or rank that is not an integer of at least 1 (a bool is
    not an integer), a mask without a rank, and a disagreeing stated ``mode``.

    The algorithm's own step counts and tolerances are module constants: five
    Newton updates and one fixed-point update per outer sweep, stopping when
    the bound moves less than 1e-10, or less than 1e-11 |F| once the
    covariance residual is below 1e-10.
    """

    max_outer: int = 50
    rank: int | None = None
    mask: SparsityMask | None = None
    # read only by validate(); kept while perfbench's workloads pass mode=,
    # until the benchmark change of ROADMAP item 5 deletes both
    mode: str | None = None

    @property
    def execution_mode(self) -> str:
        return "dense" if self.rank is None else "lowrank" if self.mask is None else "lowrank_sparse"

    def validate(self) -> None:
        if not (is_count(self.max_outer) and self.max_outer >= 1):
            raise ConfigError(f"max_outer must be an integer of at least 1, got {self.max_outer!r}")
        if self.rank is not None and not (is_count(self.rank) and self.rank >= 1):
            raise ConfigError(f"rank must be an integer of at least 1, got {self.rank!r}")
        if self.mask is not None and self.rank is None:
            raise ConfigError("a sparsity mask needs a rank")
        if self.mode is not None and self.mode != self.execution_mode:
            raise ConfigError(f"mode {self.mode!r} disagrees with the rank and mask, "
                              f"which give {self.execution_mode!r}")


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


def _check_conditioning(apply_J, prior: PriorSpec) -> None:
    """Cheap spectral guard: power-iterate J and bound its condition number
    through lambda_min(J) >= lambda_min(C0^{-1}).  The norms are BLAS nrm2,
    which stays finite at the clamped rates where sqrt(w.w) overflows."""
    v = np.ones(prior.m) / np.sqrt(prior.m)
    lam = 0.0
    for _ in range(20):
        w = apply_J(v)
        lam = float(scipy.linalg.norm(w, check_finite=False))
        if lam == 0.0:
            return
        v = w / lam
    # lambda_max(C0) via a short power iteration through the prior factorization
    u = np.ones(prior.m) / np.sqrt(prior.m)
    for _ in range(20):
        w = prior.cov_apply(u)
        mu = float(scipy.linalg.norm(w, check_finite=False))
        u = w / mu
    cond_bound = lam * mu
    if cond_bound > _COND_LIMIT:
        raise IllConditioned(
            f"Newton system condition estimate {cond_bound:.2e} exceeds {_COND_LIMIT:.0e}"
        )


def newton_step_mean(
    state: GaussianState,
    A: ForwardOperator,
    data: PoissonData,
    prior: PriorSpec,
    precond,
) -> tuple[np.ndarray, MeanStepReport]:
    """One Newton step on the mean: solve (A^t D A + C0^{-1}) dx = -G by PCG
    preconditioned with ``precond`` (a product v -> P v with P SPD), then
    backtrack on ||G||.  The report's ``grad_norm`` is ||G|| at the returned
    mean, read off the accepted trial.

    G(x) = A^t (e^d - y) + C0^{-1}(x - mu0) with d = Ax + 1/2 diag(A C A^t)
    and the rates clamped at e^LOG_RATE_LIMIT; a clamp first runs the
    conditioning guard.  Its norms are taken with BLAS nrm2, which stays
    finite where sqrt(G.G) would overflow.
    """
    def gradient(v, rates):
        return A.rmatvec(rates - data.y) + prior.prec_apply(v - prior.mu0)

    d = rate_vector(state, A)
    rates = _exp_rates(d)
    q = state._quad(A)
    x = state.mean
    G = gradient(x, rates)
    g_norm = scipy.linalg.norm(G, check_finite=False)

    def apply_J(v):
        return A.rmatvec(rates * A.matvec(v)) + prior.prec_apply(v)

    if _saturates(d):
        _check_conditioning(apply_J, prior)

    res = pcg_solve(apply_J, -G, precond=precond, tol=_PCG_TOL, maxit=_PCG_MAXIT)
    step = res.x
    if not np.all(np.isfinite(step)):
        raise BreakdownError("non-finite Newton step")

    t = 1.0
    halvings = 0
    for _ in range(20):
        x_new = x + t * step
        trial_rates = _exp_rates(A.matvec(x_new) + 0.5 * q)
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
    basis: WoodburyBasis | None = None,
) -> DenseCov | MaskedCov:
    """One application of the covariance map T(C) = (C0^{-1} + A^t D A)^{-1}.

    The inputs choose the form.  Without a ``basis`` the map is inverted
    densely into a :class:`DenseCov`, whatever the state holds (only its
    rates are read).  With the :func:`woodbury_basis` of a rank-r factor of
    A it takes the Woodbury form C0 - W M W^t: a DenseCov, or for a
    :class:`MaskedCov` state the entries on its mask, carrying the product
    v -> C0 v - W M W^t v.  Either carries ln|T(C)| of the *unprojected*
    map, a byproduct of either path (Cholesky of the precision, or the
    determinant lemma on the low-rank inner system).  The dense path raises
    IllConditioned when the precision's 1-norm condition number, taken
    exactly from the inverse it forms, is above 1e14; it runs on numpy's
    BLAS runtime alone (README, Kernels).
    """
    rates = _exp_rates(rate_vector(state, A))
    if basis is None:
        M = _dense_precision(A, prior, rates)
        L = cholesky(M)
        C = spd_inverse(L)
        # the exact 1-norm condition number, from the inverse at hand
        cond = float(np.linalg.norm(M, 1)) * float(np.linalg.norm(C, 1))
        if not cond <= _COND_LIMIT:
            raise IllConditioned(f"covariance fixed-point system is numerically singular "
                                 f"(condition number {cond:.3e})")
        return DenseCov(C, -logdet(L))
    mask = state.C.mask if isinstance(state.C, MaskedCov) else None
    C_new, inner_logdet, M = woodbury_cov(prior, basis, rates, mask=mask)
    logdet_c = -prior.logdet_prec() - inner_logdet
    if mask is None:
        return DenseCov(C_new, logdet_c)
    # the product keeps W and M alive with the state, not the rest of the basis
    return MaskedCov(mask, C_new, logdet_c, lambda v, W=basis.W: prior.cov_apply(v) - W @ (M @ (W.T @ v)))


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
    back with ``converged=False`` rather than raising.  A returned
    :class:`MaskedCov` holds no product, so a caller that keeps it between
    runs (EM on alpha) holds one basis's W and M at a time.  This is the one
    place a :class:`VgaConfig` becomes a Woodbury basis (from a rank-r factor
    of A) and a mask; the steps below read the mode from those.

    The run starts from the zero mean and identity covariance, or from
    ``initial_state`` (e.g. a warm start).  A :class:`DenseCov` start is
    used as it is, or on a masked run gives its entries on the mask and its
    ln|C|.  A :class:`MaskedCov` start on this run's mask pattern gives its
    values and ln|C|, not its product.  Any other start gives its mean only:
    a projection need not be positive definite, so the covariance and ln|C|
    come from the identity start.
    Every mode evaluates the bound alike, with the state's own ln|C|.

    The Newton solves are preconditioned with the held covariance's product
    ``C.apply``, or with C0 where it has none.  After a fixed-point step it
    inverts the Newton system at the rates it was built from, so PCG needs
    only a few iterations once the rates settle.  A DenseCov is its own
    product; a MaskedCov, only a projection, carries its Woodbury step's
    unprojected C0 - W M W^t.  The report flags NumericallySaturated when
    the log-rates of any state of the run reached past the overflow clamp.
    """
    cfg = cfg or VgaConfig()
    cfg.validate()
    t0 = time.perf_counter()
    mask = cfg.mask
    state = initial_state or GaussianState(np.zeros(A.n_cols), PointMass())
    if state.dim != A.n_cols:
        raise DimensionMismatch(f"initial state has dimension {state.dim}; the operator has {A.n_cols} columns")
    C = state.C
    if isinstance(C, DenseCov) and mask is not None:
        C = MaskedCov(mask, C.values[mask.rows, mask.cols], C.logdet)
    elif isinstance(C, MaskedCov) and mask is not None and mask.same_pattern(C.mask):
        C = MaskedCov(mask, C.values, C.logdet)
    elif mask is not None:  # the identity start, C = I with ln|C| = 0
        C = MaskedCov(mask, (mask.rows == mask.cols).astype(float), 0.0)
    elif not isinstance(C, DenseCov):
        C = DenseCov(np.eye(A.n_cols), 0.0)
    if C is not state.C:
        state = state.replace_cov(C)
    basis = None if cfg.rank is None else woodbury_basis(prior, rsvd(A, cfg.rank))
    report = SolverReport()
    F = elbo(state, A, data, prior).total
    report.elbo_trace.append(F)

    cov_prev = cov_two_ago = None
    saturated = False  # read off each state's cached log-rates once evaluated
    for _ in range(cfg.max_outer):
        counts = {"newton": 0, "pcg": 0, "pcg_unconverged": 0, "halvings": 0}
        delta = 0.0
        precond = state.C.apply or prior.cov_apply
        for _ in range(_NEWTON_STEPS):
            x_new, step = newton_step_mean(state, A, data, prior, precond)
            saturated |= _saturates(rate_vector(state, A))
            state = state.replace_mean(x_new)
            counts["newton"] += 1
            counts["pcg"] += step.pcg_iterations
            counts["pcg_unconverged"] += not step.pcg_converged
            counts["halvings"] += step.halvings
            delta = step.delta_norm
            if delta <= _MEAN_STEP_TOL * max(1.0, float(np.linalg.norm(x_new))):
                break
        C_new = fixed_point_step_cov(state, A, prior, basis)
        saturated |= _saturates(rate_vector(state, A))
        # masked: the values, whose norms are those of the zero-filled matrices
        C_old = state.C.values
        scale = max(1.0, float(np.linalg.norm(C_old)))
        cov_residual = float(np.linalg.norm(C_new.values - C_old)) / scale
        cov_two_ago, cov_prev = cov_prev, C_old
        state = state.replace_cov(C_new)
        F_new = _bound_with_logdet(state, A, data, prior).total
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
        C_last = state.C.values
        scale = max(1.0, float(np.linalg.norm(C_last)))
        near = float(np.linalg.norm(C_last - cov_two_ago)) / scale
        far = float(np.linalg.norm(C_last - cov_prev)) / scale
        if far > 1e-8 and near < 1e-10:
            report.flags.append("CovarianceOscillation")
    if saturated or _saturates(rate_vector(state, A)):
        report.flags.append("NumericallySaturated")
    if isinstance(state.C, MaskedCov):  # this run's last product: no warm start reads it
        state.C.apply = None
    report.wall_time = time.perf_counter() - t0
    return state, report
