"""Variational Gaussian approximation for Poisson inverse problems.

The posterior of a log-linear Poisson model with a Gaussian prior is
approximated by the Gaussian N(xbar, C) maximizing the evidence lower bound,
via alternating Newton (mean) and fixed-point (covariance) updates, with
dense, low-rank, and masked execution paths, hierarchical estimation of the
prior strength, and MAP/Laplace/MCMC validation tools.
"""

from .elbo import (
    DenseCov,
    ElboBreakdown,
    GaussianState,
    MaskedCov,
    PointMass,
    bregman_divergence,
    elbo,
    gaussian_kl,
    grad_cov,
    grad_mean,
    optimality_residual,
    rate_vector,
)
from .errors import (
    AlphaCollapse,
    BreakdownError,
    ConfigError,
    DimensionMismatch,
    DimensionTooLarge,
    IllConditioned,
    InsufficientSamples,
    InvalidAlpha,
    InvalidData,
    MaxIterationsExceeded,
    NoDenseCovariance,
    NonpositiveDenominator,
    NotPositiveDefinite,
    PvgaError,
    RankTooLarge,
    RateOverflow,
    SingularInnerSystem,
    UnknownProblem,
)
from .formats import (
    dump_config_text,
    load_config,
    parse_config_text,
    read_csv,
    read_vgam,
    substream_seed,
    write_csv,
    write_vgam,
)
from .hyper import (
    HyperConfig,
    HyperTrace,
    alpha_upper_bound,
    joint_lower_bound,
    phi_psi,
    run_hierarchical,
    update_alpha,
)
from .linalg import (
    LowRankFactor,
    PcgResult,
    SparsityMask,
    WoodburyBasis,
    cholesky,
    logdet,
    pcg_solve,
    rsvd,
    spd_inverse,
    spd_rcond,
    spd_solve,
    symmetrize,
    woodbury_basis,
    woodbury_cov,
)
from .model import (
    ForwardOperator,
    PoissonData,
    PriorSpec,
    make_prior,
    make_test_problem,
    sample_poisson_data,
)
from .validate import (
    ChainSummary,
    McmcConfig,
    OrbitDiagnostics,
    compare_gaussians,
    evidence_quadrature,
    hpd_intervals,
    laplace_approximation,
    map_estimate,
    mh_independence_sampler,
    orbit_check,
)
from .vga import (
    MeanStepReport,
    SolverReport,
    VgaConfig,
    fixed_point_step_cov,
    newton_step_mean,
    run_vga,
)

__version__ = "0.1.0"
