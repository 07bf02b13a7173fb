"""Hierarchical estimation of the prior strength alpha by EM.

The prior covariance is C0 = alpha^{-1} Cbar0 with a Gamma(a, b) hyperprior
on alpha.  One EM map g solves the full variational problem at alpha
(E-step, warm-started) and then updates

    g(alpha) = (m + 2(a - 1)) / ((xbar-mu0)^t Cbar0^{-1} (xbar-mu0)
                                  + tr(Cbar0^{-1} C) + 2 b),

which never exceeds (m + 2(a-1)) / (2b).  The profiled joint bound rises in
the direction of h(alpha) = g(alpha) - alpha, so its maximizer is a root of h.
Plain iteration of g converges only linearly; :func:`run_hierarchical` finds
the root instead by a safeguarded secant / regula falsi (Illinois) search.
The sign of h at ``alpha_init`` fixes the direction.  A trial that keeps
that sign is accepted: it is recorded and warm-starts the next E-step.  A
trial where h has flipped lies past the root; it is rejected and only
bounds the search from the far side.  The accepted iterates are therefore
monotone, and the joint bound rises along them as it does under plain EM,
provided each E-step raises the bound, which holds in dense mode only (see
:mod:`pvga.vga` for drops measured in the factored modes).
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
    is_count,
    is_real,
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
    """EM settings.  ``max_em`` caps the number of E-step solves, accepted and
    rejected trials alike; ``alpha_tol`` is the relative stopping tolerance on
    |g(alpha) - alpha| and on the width of a closing bracket."""

    a: float = 1.0
    b: float = 1e-4  # strictly positive keeps the alpha iterates bounded
    alpha_init: float = 1.0
    # a ceiling, not a budget: on phillips 100 (L2, seed-0 data) the
    # bracketed root search takes 8 E-step solves
    max_em: int = 400
    alpha_tol: float = 1e-8
    inner: VgaConfig = field(default_factory=VgaConfig)

    def validate(self) -> None:
        _check_hyperprior(self.a, self.b)
        if not (is_real(self.alpha_init) and self.alpha_init > 0):
            raise InvalidAlpha(f"alpha_init must be positive and finite, got {self.alpha_init!r}")
        if not (is_count(self.max_em) and self.max_em >= 1):
            raise ConfigError(f"max_em must be an integer of at least 1, got {self.max_em!r}")
        # an infinite tolerance would stop EM after one E-step
        if not (is_real(self.alpha_tol) and self.alpha_tol > 0):
            raise ConfigError(f"alpha_tol must be positive and finite, got {self.alpha_tol!r}")
        self.inner.validate()


def _check_hyperprior(a, b) -> None:
    """Refuse a Gamma(a, b) hyperprior whose a or b is not a positive finite
    number; a NaN would pass through every formula here as a NaN result."""
    for name, v in (("a", a), ("b", b)):
        if not (is_real(v) and v > 0):
            raise ConfigError(f"hyperprior parameter {name} must be positive and finite, got {v!r}")


@dataclass
class HyperTrace:
    """One entry per accepted E-step in ``psi_sequence``,
    ``joint_bound_sequence`` and ``estep_*``; ``alpha_sequence`` holds the
    accepted alphas followed by the returned one.  ``rejected_alphas`` lists,
    in order, the trials whose h = g(alpha) - alpha had the opposite sign to
    the first one; they were solved but never recorded or warm-started from."""

    alpha_sequence: list = field(default_factory=list)
    psi_sequence: list = field(default_factory=list)
    joint_bound_sequence: list = field(default_factory=list)
    estep_converged: list = field(default_factory=list)  # per E-step: run_vga converged
    estep_sweeps: list = field(default_factory=list)  # per E-step: outer sweeps taken
    rejected_alphas: list = field(default_factory=list)
    converged: bool = False
    flags: list = field(default_factory=list)


def alpha_upper_bound(m: int, a: float, b: float) -> float:
    """(m + 2(a-1)) / (2b), the ceiling every alpha iterate respects."""
    _check_hyperprior(a, b)
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
    if not (is_real(alpha) and alpha > 0):
        raise InvalidAlpha(f"alpha must be positive and finite, got {alpha!r}")
    _check_hyperprior(a, b)
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
    psi = _psi(state, prior_structure)
    F = elbo(state, A, data, prior_structure).total
    return F - prior_structure.alpha * psi, psi


def _psi(state: GaussianState, prior_structure: PriorSpec) -> float:
    """psi of :func:`phi_psi` alone, with no bound evaluation."""
    v = state.mean - prior_structure.mu0
    return -0.5 * prior_structure.quad_base(v) - 0.5 * state.C.trace_base(prior_structure)


def update_alpha(state: GaussianState, prior_structure: PriorSpec, a: float, b: float) -> float:
    """M-step: alpha = (m + 2(a-1)) / (quad + trace + 2b) = (m/2+a-1)/(b - psi),
    with m the dimension of ``prior_structure``.  A b that makes the
    denominator nonpositive raises :class:`NonpositiveDenominator`; any other
    a or b that is not positive and finite is a ``ConfigError``."""
    m = prior_structure.m
    v = state.mean - prior_structure.mu0
    denom = prior_structure.quad_base(v) + state.C.trace_base(prior_structure) + 2.0 * b
    if denom <= 0:
        raise NonpositiveDenominator(
            f"alpha update denominator {denom:.3e} is nonpositive (b must be > 0)"
        )
    _check_hyperprior(a, b)
    alpha = (m + 2.0 * (a - 1.0)) / denom
    if alpha <= 0:
        raise InvalidAlpha(
            f"alpha update produced {alpha:.3e}; shape a={a} too small for dimension m={m}"
        )
    return float(alpha)


def _next_trial(x, hx, wx, prev, far, limit, s):
    """The next alpha to try from the last accepted point (x, hx), strictly
    inside (x, limit) and never short of the plain EM step x + hx.

    With a far end (z, hz) of the bracket this is regula falsi, with wx in
    place of hx (the two differ once Illinois has halved it); without one it
    is the secant through the previous accepted point ``prev``, which is
    Aitken's delta-squared step when x came from a plain step.  A candidate
    outside the interval falls back to the farther of the plain step and the
    midpoint of (x, limit), then to the midpoint alone.
    """
    plain = x + hx
    mid = 0.5 * (x + limit)
    cand = plain
    if far is not None:
        z, hz = far
        cand = x - wx * (z - x) / (hz - wx)
    elif prev is not None:
        xp, hp = prev
        cand = x - hx * (x - xp) / (hx - hp) if hx != hp else np.nan
        if not s * (cand - plain) >= 0:
            # |h| is not shrinking ahead of x: widen the search instead,
            # doubling the last step in ln(alpha)
            cand = x * (x / xp) ** 2
    if not s * (cand - plain) >= 0:  # shorter than the plain step, or nan
        cand = plain
    for t in (cand, max(plain, mid, key=lambda v: s * v)):
        if s * (t - x) > 0 and s * (limit - t) > 0:
            return t
    return mid


def run_hierarchical(
    A: ForwardOperator,
    data: PoissonData,
    prior_structure: PriorSpec,
    cfg: HyperConfig | None = None,
) -> tuple[GaussianState, float, HyperTrace]:
    """Find the EM fixed point alpha = g(alpha) by a bracketed root search on
    h(alpha) = g(alpha) - alpha (see the module docstring).

    Stops when an accepted trial has |h| < alpha_tol * alpha, returning g
    there, or when the bracket between the last accepted x and the nearest
    rejected trial is narrower than alpha_tol * x, returning x (appended once
    more, a zero step).  Near the root the sign of h is E-step noise, so the
    second rule is what ends a search whose trials keep straddling it.
    Returns the last accepted E-step state, the limiting alpha, and the
    trace.  A run that exhausts max_em solves raises MaxIterationsExceeded
    with the trace attached as ``partial``.
    """
    cfg = cfg or HyperConfig()
    cfg.validate()
    bound = alpha_upper_bound(A.n_cols, cfg.a, cfg.b)
    trace = HyperTrace()
    state = None
    s = 0.0  # direction of the search, the sign of h at alpha_init
    x = hx = wx = None  # last accepted alpha, its h, and hx's regula falsi weight
    prev = far = None  # (alpha, h) of the accepted point before x / of the far end
    last_accepted = True
    trial = cfg.alpha_init
    converged = False
    for _ in range(cfg.max_em):
        prior_k = prior_structure.with_alpha(trial)
        trial_state, report = run_vga(A, data, prior_k, cfg.inner, initial_state=state)
        g = update_alpha(trial_state, prior_structure, cfg.a, cfg.b)
        if g < 1e-12:
            raise AlphaCollapse(
                f"alpha fell to {g:.3e}; the data overwhelm the prior or "
                "the hyperprior is misconfigured"
            )
        h = g - trial
        if s == 0.0:
            s = 1.0 if h >= 0 else -1.0
        if s * h < 0:
            trace.rejected_alphas.append(trial)
            if not last_accepted:  # Illinois: x survived two trials
                wx *= 0.5
            far, last_accepted = (trial, h), False
        else:
            state = trial_state
            trace.alpha_sequence.append(trial)
            trace.estep_converged.append(report.converged)
            trace.estep_sweeps.append(len(report.inner_counts))
            trace.psi_sequence.append(_psi(state, prior_k))
            trace.joint_bound_sequence.append(
                joint_lower_bound(state, trial, A, data, prior_structure, cfg.a, cfg.b)
            )
            if x is not None:
                prev = (x, hx)
            x, hx, wx, alpha = trial, h, h, g
            if abs(h) < cfg.alpha_tol * trial:
                trace.alpha_sequence.append(g)
                converged = True
                break
            if far is not None and last_accepted:  # Illinois: the far end survived two
                far = (far[0], 0.5 * far[1])
            last_accepted = True
        if far is not None and abs(far[0] - x) < cfg.alpha_tol * x:
            trace.alpha_sequence.append(x)
            alpha = x
            converged = True
            break
        limit = far[0] if far is not None else (bound if s > 0 else 0.0)
        trial = _next_trial(x, hx, wx, prev, far, limit, s)
    else:
        trace.alpha_sequence.append(alpha)
    trace.converged = converged
    if alpha > 0.5 * bound:
        trace.flags.append("PossiblyDegenerateFixedPoint")
    if not converged:
        raise MaxIterationsExceeded(f"alpha iteration did not settle within {cfg.max_em} E-step solves",
                                    partial=(state, alpha, trace))
    return state, alpha, trace
