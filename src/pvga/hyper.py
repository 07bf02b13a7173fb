"""Hierarchical estimation of the prior strength alpha by EM.

The prior covariance is C0 = alpha^{-1} Cbar0 with a Gamma(a, b) hyperprior
on alpha.  Each EM sweep solves the full variational problem at the current
alpha (E-step, warm-started) and then updates

    alpha  <-  (m + 2(a - 1)) / ((xbar-mu0)^t Cbar0^{-1} (xbar-mu0)
                                  + tr(Cbar0^{-1} C) + 2 b),

which drives the joint bound upward; the alpha iterates are monotone and
bounded by (m + 2(a-1)) / (2b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .elbo import GaussianState, elbo
from .errors import (
    AlphaCollapse,
    ConfigError,
    InvalidAlpha,
    MaxIterationsExceeded,
    NonpositiveDenominator,
)
from .model import ForwardOperator, PoissonData, PriorSpec
from .vga import VgaConfig, run_vga

__all__ = [
    "HyperConfig",
    "HyperTrace",
    "joint_lower_bound",
    "phi_psi",
    "update_alpha",
    "run_hierarchical",
    "alpha_upper_bound",
]


@dataclass
class HyperConfig:
    a: float = 1.0
    b: float = 1e-4  # strictly positive keeps the alpha iterates bounded
    alpha_init: float = 1.0
    max_em: int = 100
    alpha_tol: float = 1e-8
    inner: VgaConfig = field(default_factory=VgaConfig)

    def validate(self) -> None:
        if self.a <= 0 or self.b <= 0:
            raise ConfigError("hyperprior parameters a, b must be positive")
        if self.alpha_init <= 0:
            raise InvalidAlpha(f"alpha_init must be positive, got {self.alpha_init}")
        if self.max_em < 1 or self.alpha_tol <= 0:
            raise ConfigError("max_em >= 1 and alpha_tol > 0 required")
        self.inner.validate()


@dataclass
class HyperTrace:
    alpha_sequence: list = field(default_factory=list)
    psi_sequence: list = field(default_factory=list)
    joint_bound_sequence: list = field(default_factory=list)
    estep_converged: list = field(default_factory=list)  # per E-step: run_vga converged
    estep_sweeps: list = field(default_factory=list)  # per E-step: outer sweeps taken
    converged: bool = False
    flags: list = field(default_factory=list)


def alpha_upper_bound(m: int, a: float, b: float) -> float:
    """(m + 2(a-1)) / (2b), the ceiling every alpha iterate respects."""
    return (m + 2.0 * (a - 1.0)) / (2.0 * b)


def joint_lower_bound(
    state: GaussianState,
    alpha: float,
    A: ForwardOperator,
    data: PoissonData,
    prior_structure: PriorSpec,
    a: float,
    b: float,
) -> float:
    """Bound on the joint evidence: F_alpha(state) + (a-1) ln(alpha) - alpha b
    + ln(b^a / Gamma(a)).  The structure's own alpha is ignored."""
    if alpha <= 0 or not np.isfinite(alpha):
        raise InvalidAlpha(f"alpha must be positive, got {alpha}")
    if a <= 0 or b <= 0:
        raise ConfigError("hyperprior parameters a, b must be positive")
    F = elbo(state, A, data, prior_structure.with_alpha(alpha)).total
    return F + (a - 1.0) * np.log(alpha) - alpha * b + a * np.log(b) - float(gammaln(a))


def phi_psi(
    state: GaussianState,
    A: ForwardOperator,
    data: PoissonData,
    prior_structure: PriorSpec,
) -> tuple[float, float]:
    """Split F_alpha = phi + alpha * psi at the structure's alpha.

    psi = -1/2 (xbar-mu0)^t Cbar0^{-1} (xbar-mu0) - 1/2 tr(Cbar0^{-1} C) is
    alpha-free and nonpositive; phi collects the remainder, so the two parts
    reassemble F_alpha exactly at the alpha carried by ``prior_structure``.
    """
    v = state.mean - prior_structure.mu0
    psi = -0.5 * prior_structure.quad_base(v) - 0.5 * prior_structure.trace_base(state.cov)
    F = elbo(state, A, data, prior_structure).total
    return F - prior_structure.alpha * psi, psi


def update_alpha(state: GaussianState, prior_structure: PriorSpec, a: float, b: float, m: int) -> float:
    """M-step: alpha = (m + 2(a-1)) / (quad + trace + 2b) = (m/2+a-1)/(b - psi)."""
    v = state.mean - prior_structure.mu0
    denom = prior_structure.quad_base(v) + prior_structure.trace_base(state.cov) + 2.0 * b
    if denom <= 0:
        raise NonpositiveDenominator(
            f"alpha update denominator {denom:.3e} is nonpositive (b must be > 0)"
        )
    alpha = (m + 2.0 * (a - 1.0)) / denom
    if alpha <= 0:
        raise InvalidAlpha(
            f"alpha update produced {alpha:.3e}; shape a={a} too small for dimension m={m}"
        )
    return float(alpha)


def run_hierarchical(
    A: ForwardOperator,
    data: PoissonData,
    prior_structure: PriorSpec,
    cfg: HyperConfig | None = None,
) -> tuple[GaussianState, float, HyperTrace]:
    """Alternate full variational solves with alpha updates until the alpha
    increments fall below alpha_tol (relative).

    Returns the last E-step state, the limiting alpha, and the trace.  A run
    that exhausts max_em raises MaxIterationsExceeded with the trace attached
    as ``partial``.
    """
    cfg = cfg or HyperConfig()
    cfg.validate()
    m = A.n_cols
    bound = alpha_upper_bound(m, cfg.a, cfg.b)
    trace = HyperTrace()
    alpha = cfg.alpha_init
    trace.alpha_sequence.append(alpha)
    state = None
    converged = False
    for _ in range(cfg.max_em):
        prior_k = prior_structure.with_alpha(alpha)
        state, report = run_vga(A, data, prior_k, cfg.inner, initial_state=state)
        trace.estep_converged.append(report.converged)
        trace.estep_sweeps.append(len(report.inner_counts))
        _phi, psi = phi_psi(state, A, data, prior_k)
        trace.psi_sequence.append(psi)
        trace.joint_bound_sequence.append(
            joint_lower_bound(state, alpha, A, data, prior_structure, cfg.a, cfg.b)
        )
        alpha_new = update_alpha(state, prior_structure, cfg.a, cfg.b, m)
        if alpha_new < 1e-12:
            raise AlphaCollapse(
                f"alpha fell to {alpha_new:.3e}; the data overwhelm the prior or "
                "the hyperprior is misconfigured"
            )
        trace.alpha_sequence.append(alpha_new)
        done = abs(alpha_new - alpha) < cfg.alpha_tol * alpha
        alpha = alpha_new
        if done:
            converged = True
            break
    trace.converged = converged
    if alpha > 0.5 * bound:
        trace.flags.append("PossiblyDegenerateFixedPoint")
    if not converged:
        err = MaxIterationsExceeded(
            f"alpha iteration did not settle within {cfg.max_em} EM sweeps"
        )
        err.partial = (state, alpha, trace)
        raise err
    return state, alpha, trace
