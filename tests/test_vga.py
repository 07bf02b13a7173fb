"""Alternating solver: Newton mean steps, fixed-point covariance steps.

The scalar Newton example is validated against a bisection root oracle, and
a two-dimensional solve is validated against an exhaustive lattice search
over mean and Cholesky-parameterized covariance.
"""

import functools
import importlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect
from scipy.special import gammaln

from pvga import (
    DenseCov,
    HyperConfig,
    ForwardOperator,
    GaussianState,
    MaskedCov,
    PointMass,
    PoissonData,
    PriorSpec,
    SparsityMask,
    VgaConfig,
    compare_gaussians,
    elbo,
    fixed_point_step_cov,
    gaussian_kl,
    grad_cov,
    hpd_intervals,
    laplace_approximation,
    newton_step_mean,
    optimality_residual,
    rate_vector,
    rsvd,
    run_hierarchical,
    run_vga,
    sample_poisson_data,
    woodbury_basis,
    woodbury_cov,
)
from pvga.errors import (
    ConfigError,
    DimensionMismatch,
    IllConditioned,
    MaxIterationsExceeded,
    NoDenseCovariance,
    NotPositiveDefinite,
)
from pvga.formats import substream_seed
from pvga.model import make_prior, make_test_problem

from conftest import prior_start, random_problem, random_spd, random_state

vga_module = importlib.import_module("pvga.vga")
linalg_module = importlib.import_module("pvga.linalg")


def scalar_problem(y=1):
    A = ForwardOperator.from_dense(np.array([[1.0]]))
    data = PoissonData(np.array([y]))
    prior = PriorSpec(np.zeros(1), np.eye(1), 1.0)
    return A, data, prior


# -- newton step -------------------------------------------------------------


def test_newton_scalar_hand_value():
    A, data, prior = scalar_problem(y=1)
    state = GaussianState(np.zeros(1), np.eye(1))
    x1, report = newton_step_mean(state, A, data, prior, state.cov.__matmul__)
    e = np.exp(0.5)
    np.testing.assert_allclose(x1, [-(e - 1) / (e + 1)], rtol=1e-12)
    assert report.halvings == 0
    assert report.delta_norm == pytest.approx((e - 1) / (e + 1), rel=1e-12)


def test_newton_iterates_to_bisection_root():
    # root of the stationarity condition e^{x+1/2} + x - 1 = 0 (covariance
    # frozen at 1), located independently by bisection
    root = bisect(lambda x: np.exp(x + 0.5) + x - 1.0, -1.0, 1.0, xtol=1e-15)
    A, data, prior = scalar_problem(y=1)
    state = GaussianState(np.zeros(1), np.eye(1))
    deltas = []
    for _ in range(30):
        x_new, report = newton_step_mean(state, A, data, prior, state.cov.__matmul__)
        state = state.replace_mean(x_new)
        deltas.append(report.delta_norm)
        if report.delta_norm < 1e-13:
            break
    assert abs(state.mean[0] - root) <= 1e-10
    # superlinear contraction once in the basin
    meaningful = [d for d in deltas if d > 1e-13]
    for a, b in zip(meaningful[1:-1], meaningful[2:]):
        assert b <= 0.1 * a


def test_newton_no_move_at_root():
    root = bisect(lambda x: np.exp(x + 0.5) + x - 1.0, -1.0, 1.0, xtol=1e-15)
    A, data, prior = scalar_problem(y=1)
    state = GaussianState(np.array([root]), np.eye(1))
    _, report = newton_step_mean(state, A, data, prior, state.cov.__matmul__)
    assert report.delta_norm <= 1e-12


def test_newton_pcg_reads_the_preconditioner_it_is_given(rng):
    # with the exact inverse of its Newton system as the preconditioner, PCG
    # converges in one iteration
    for _ in range(10):
        A, data, prior = random_problem(rng, m=6, n=8)
        state = random_state(rng, 6)
        Ad = A.dense()
        J = Ad.T @ (np.exp(rate_vector(state, A))[:, None] * Ad) + prior.prec_dense()
        _, report = newton_step_mean(state, A, data, prior, np.linalg.inv(J).__matmul__)
        assert report.pcg_iterations == 1 and report.pcg_converged


def test_newton_zero_operator_one_step(rng):
    m = 4
    A = ForwardOperator.from_dense(np.zeros((3, m)))
    data = PoissonData(np.zeros(3, dtype=int))
    prior = PriorSpec(rng.standard_normal(m), np.eye(m), 1.7)
    state = GaussianState(rng.standard_normal(m), np.eye(m))
    x1, report = newton_step_mean(state, A, data, prior, state.cov.__matmul__)
    np.testing.assert_allclose(x1, prior.mu0, atol=1e-12)
    assert report.halvings == 0


# -- fixed-point step --------------------------------------------------------


def test_fixed_point_scalar_hand_value():
    A, data, prior = scalar_problem()
    state = GaussianState(np.zeros(1), np.eye(1))
    C1 = fixed_point_step_cov(state, A, prior)
    np.testing.assert_allclose(C1.values, [[1.0 / (1.0 + np.exp(0.5))]], rtol=1e-14)
    assert C1.logdet == pytest.approx(-np.log(1.0 + np.exp(0.5)), rel=1e-14)


def test_fixed_point_zero_operator(rng):
    m = 3
    A = ForwardOperator.from_dense(np.zeros((2, m)))
    data = PoissonData(np.zeros(2, dtype=int))
    from conftest import random_prior

    prior = random_prior(rng, m)
    state = random_state(rng, m)
    C1 = fixed_point_step_cov(state, A, prior)
    np.testing.assert_allclose(C1.values, prior.cov_dense(), rtol=1e-12, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_fixed_point_dense_vs_lowrank_full_rank(m, seed):
    # the step reads its form from its inputs: no basis is the dense
    # inverse, the basis of a full-rank factor the same map in Woodbury form,
    # and a masked state the mask entries of the step on the zero-filled
    # matrix, carrying the unprojected step's product
    rng = np.random.default_rng(seed)
    A, _, prior = random_problem(rng, m=m)
    state = random_state(rng, m)
    Ad = A.dense()
    direct = np.linalg.inv(Ad.T @ (np.exp(rate_vector(state, A))[:, None] * Ad) + prior.prec_dense())
    dense = fixed_point_step_cov(state, A, prior)
    np.testing.assert_allclose(dense.values, direct, rtol=1e-9, atol=1e-12)
    assert dense.logdet == pytest.approx(np.linalg.slogdet(direct)[1], rel=1e-9, abs=1e-12)

    basis = woodbury_basis(prior, rsvd(A, min(A.n_rows, m)))
    low = fixed_point_step_cov(state, A, prior, basis)
    np.testing.assert_allclose(low.values, dense.values, rtol=1e-8, atol=1e-10)
    assert low.logdet == pytest.approx(dense.logdet, rel=1e-8, abs=1e-10)

    mask = SparsityMask(m, rng.integers(0, m, m), rng.integers(0, m, m))
    zero_filled = np.zeros((m, m))
    zero_filled[mask.rows, mask.cols] = state.cov[mask.rows, mask.cols]
    masked = fixed_point_step_cov(GaussianState(state.mean, MaskedCov(mask, zero_filled[mask.rows, mask.cols])),
                                  A, prior, basis)
    full = fixed_point_step_cov(GaussianState(state.mean, zero_filled), A, prior, basis)
    assert isinstance(masked, MaskedCov) and masked.values.shape == (mask.nnz,)
    np.testing.assert_allclose(masked.values, full.values[mask.rows, mask.cols], rtol=1e-10, atol=1e-12)
    assert masked.logdet == pytest.approx(full.logdet, rel=1e-10, abs=1e-12)
    v = rng.standard_normal(m)
    assert np.linalg.norm(masked.apply(v) - full.values @ v) <= 1e-10 * np.linalg.norm(full.values @ v)


def test_fixed_point_ill_conditioned_system():
    A = ForwardOperator.from_dense(np.zeros((2, 2)))
    data = PoissonData(np.zeros(2, dtype=int))
    prior = PriorSpec(np.zeros(2), np.diag([1.0, 1e10]), 1.0)  # cov spread 1e20
    state = GaussianState(np.zeros(2), np.eye(2))
    with pytest.raises(IllConditioned):
        fixed_point_step_cov(state, A, prior)


@pytest.mark.parametrize("spread", [1.5e7, 9e6])
def test_fixed_point_condition_limit_is_1e14(spread):
    # precision diag(1, spread^2): condition number 2.25e14 just above the
    # limit, and 8.1e13 just inside it
    A = ForwardOperator.from_dense(np.zeros((2, 2)))
    prior = PriorSpec(np.zeros(2), np.diag([1.0, spread]), 1.0)
    state = GaussianState(np.zeros(2), np.eye(2))
    if spread**2 > 1e14:
        with pytest.raises(IllConditioned):
            fixed_point_step_cov(state, A, prior)
    else:
        C = fixed_point_step_cov(state, A, prior)
        np.testing.assert_allclose(np.diag(C.values), [1.0, spread**-2], rtol=1e-15)


# -- full solver -------------------------------------------------------------


def test_run_vga_zero_operator(rng):
    m = 3
    A = ForwardOperator.from_dense(np.zeros((2, m)))
    data = PoissonData(np.zeros(2, dtype=int))
    from conftest import random_prior

    prior = random_prior(rng, m)
    state, report = run_vga(A, data, prior)
    assert report.converged
    assert len(report.elbo_trace) <= 3  # settles within one outer sweep
    np.testing.assert_allclose(state.mean, prior.mu0, atol=1e-12)
    np.testing.assert_allclose(state.cov, prior.cov_dense(), rtol=1e-12, atol=1e-14)


def test_run_vga_phillips_converges_fast():
    A, x_true = make_test_problem("phillips", 100)
    rng = np.random.default_rng(7)
    data = PoissonData(rng.poisson(np.exp(A.matvec(x_true))))
    prior = make_prior("L2", 10.0, 100)
    state, report = run_vga(A, data, prior)
    assert report.converged
    assert len(report.elbo_trace) - 1 <= 10
    diffs = np.diff(report.elbo_trace)
    assert abs(diffs[-1]) < 1e-10
    r_mean, r_cov = optimality_residual(state, A, data, prior)
    assert r_mean <= 1e-5 and r_cov <= 1e-5


def test_run_vga_beats_grid_search():
    # exhaustive lattice over (mean, covariance Cholesky factor) in 2-d
    A_mat = np.array([[0.8, 0.2], [-0.3, 0.5], [0.4, -0.6]])
    A = ForwardOperator.from_dense(A_mat)
    data = PoissonData(np.array([2, 1, 0]))
    prior = PriorSpec(np.zeros(2), np.eye(2), 1.0)
    state, report = run_vga(A, data, prior)
    assert report.converged
    best = elbo(state, A, data, prior).total

    g = np.linspace(-0.5, 0.5, 9)
    X = np.stack(np.meshgrid(state.mean[0] + g, state.mean[1] + g), -1).reshape(-1, 2)
    diag = np.linspace(0.3, 1.5, 9)
    l11, l22, l21 = (a.ravel() for a in np.meshgrid(diag, diag, g))
    C = np.empty((l11.size, 2, 2))
    C[:, 0, 0] = l11**2
    C[:, 0, 1] = C[:, 1, 0] = l11 * l21
    C[:, 1, 1] = l21**2 + l22**2
    quad = np.einsum("jk,ckl,jl->cj", A_mat, C, A_mat)
    z = X @ A_mat.T
    d = z[:, None, :] + 0.5 * quad[None, :, :]
    lf = float(np.sum(gammaln(data.y + 1.0)))
    tr = C[:, 0, 0] + C[:, 1, 1]
    ld = 2.0 * (np.log(l11) + np.log(l22))
    F = (
        (z @ data.y)[:, None]
        - np.exp(d).sum(-1)
        - lf
        - 0.5 * (X**2).sum(1)[:, None]
        - 0.5 * (tr - ld - 2.0)[None, :]
    )
    # oracle formula agrees with the library pointwise
    for xi, ci in ((0, 0), (40, 364), (80, 728), (13, 500)):
        direct = elbo(GaussianState(X[xi], C[ci]), A, data, prior).total
        np.testing.assert_allclose(F[xi, ci], direct, rtol=1e-12)
    assert best >= float(F.max()) - 1e-6


def test_monotone_ascent_dense(rng):
    for _ in range(20):
        A, data, prior = random_problem(rng)
        _, report = run_vga(A, data, prior)
        assert np.all(np.diff(report.elbo_trace) >= -1e-8)


def test_covariance_iterates_stay_below_prior(rng):
    for _ in range(5):
        A, data, prior = random_problem(rng)
        C0 = prior.cov_dense()
        lam0 = float(np.max(np.linalg.eigvalsh(C0)))
        state = GaussianState(np.zeros(prior.m), np.eye(prior.m))
        for _ in range(3):
            x, _ = newton_step_mean(state, A, data, prior, state.cov.__matmul__)
            state = state.replace_mean(x)
            state = state.replace_cov(fixed_point_step_cov(state, A, prior))
            assert np.min(np.linalg.eigvalsh(C0 - state.cov)) >= -1e-10
            assert np.max(np.linalg.eigvalsh(state.cov)) <= lam0 + 1e-10


def test_unique_limit_from_two_initializations(rng):
    for _ in range(10):
        A, data, prior = random_problem(rng)
        s1, r1 = run_vga(A, data, prior)
        s2, r2 = run_vga(A, data, prior, initial_state=prior_start(prior, rng.standard_normal(prior.m)))
        assert r1.converged and r2.converged
        np.testing.assert_allclose(s1.mean, s2.mean, atol=1e-6)
        np.testing.assert_allclose(s1.cov, s2.cov, atol=1e-5)


def test_lowrank_full_rank_matches_dense(rng):
    for _ in range(3):
        m = int(rng.integers(4, 9))
        A, data, prior = random_problem(rng, m=m, n=m + 2)
        dense_state, _ = run_vga(A, data, prior)
        low_state, low_report = run_vga(A, data, prior, VgaConfig(rank=m))
        assert low_report.converged
        np.testing.assert_allclose(low_state.mean, dense_state.mean, atol=1e-6)
        np.testing.assert_allclose(low_state.cov, dense_state.cov, atol=1e-6)


def test_run_vga_budget_exhausted_returns_partial(rng):
    A, data, prior = random_problem(rng, m=6, n=8)
    state, report = run_vga(A, data, prior, VgaConfig(max_outer=1))
    assert not report.converged and report.stop_rule is None
    assert len(report.elbo_trace) == 2
    assert np.all(np.isfinite(state.mean))


def test_alternating_covariance_steps_raise_the_oscillation_flag(rng, monkeypatch):
    A, data, prior = random_problem(rng, m=3, n=4)
    _, report = run_vga(A, data, prior)
    assert report.converged and "CovarianceOscillation" not in report.flags

    # a planted covariance step that alternates between two SPD matrices:
    # consecutive iterates stay apart while every other one repeats
    covs = [random_spd(rng, 3), random_spd(rng, 3)]
    calls = []

    def alternate(state, A, prior, basis=None):
        C = covs[len(calls) % 2]
        calls.append(C)
        return DenseCov(C, float(np.linalg.slogdet(C)[1]))

    monkeypatch.setattr(vga_module, "fixed_point_step_cov", alternate)
    _, report = run_vga(A, data, prior, VgaConfig(max_outer=6))
    assert len(calls) == 6 and not report.converged
    assert report.flags == ["CovarianceOscillation"]


def test_report_bookkeeping(rng):
    A, data, prior = random_problem(rng, m=4, n=5)
    _, report = run_vga(A, data, prior)
    outers = len(report.elbo_trace) - 1
    assert len(report.inner_counts) == outers
    assert len(report.mean_residual_trace) == outers
    assert report.wall_time >= 0.0
    assert report.flags == []
    for counts in report.inner_counts:
        assert 1 <= counts["newton"] <= 5
        assert 0 <= counts["pcg_unconverged"] <= counts["newton"]


def test_default_newton_steps_solve_to_tolerance_and_truncation_is_reported(monkeypatch):
    side = 16
    A, x_true = make_test_problem("blur2d", side)
    data = sample_poisson_data(A, x_true, seed=0)
    prior = make_prior("H1_2D", 1.0, side * side)
    cfg = dict(rank=51, mask=SparsityMask.grid4(side))
    _, report = run_vga(A, data, prior, VgaConfig(**cfg))
    assert report.converged
    assert sum(c["pcg_unconverged"] for c in report.inner_counts) == 0
    # the Newton step takes pcg_solve's default ceiling: cap it at 2
    monkeypatch.setattr(vga_module, "pcg_solve", functools.partial(vga_module.pcg_solve, maxit=2))
    _, capped = run_vga(A, data, prior, VgaConfig(max_outer=3, **cfg))
    assert sum(c["pcg_unconverged"] for c in capped.inner_counts) > 0


def test_masked_blur_fit_builds_no_dense_operator_or_prior_covariance(monkeypatch):
    # the masked sweep on a blur problem works from T, the prior's banded
    # selected inverse and the mask values alone; a masked state, like a
    # point mass, refuses every reader that needs a dense covariance
    side = 16
    A, x_true = make_test_problem("blur2d", side)
    data = sample_poisson_data(A, x_true, seed=0)
    prior = make_prior("H1_2D", 1.0, side * side)
    mask = SparsityMask.grid4(side)

    def refuse(*args, **kwargs):
        raise AssertionError("a dense m x m operator or prior covariance was built")

    monkeypatch.setattr(ForwardOperator, "dense", refuse)
    monkeypatch.setattr(PriorSpec, "cov_dense", refuse)
    state, report = run_vga(A, data, prior, VgaConfig(rank=51, mask=mask))
    assert report.converged
    # the final bound of the implementation that densified A and C0 and held
    # the masked covariance as a zero-filled m x m array
    assert report.elbo_trace[-1] == pytest.approx(-557.2582926978919, rel=1e-9)
    warm, _ = run_vga(A, data, prior, VgaConfig(rank=51, mask=mask, max_outer=1),
                      initial_state=prior_start(prior, np.zeros(side * side), mask))
    dense = GaussianState(state.mean, np.eye(side * side))
    for held in (state, warm, GaussianState(state.mean, PointMass())):
        for read in (lambda: held.cov, lambda: compare_gaussians(held, dense),
                     lambda: gaussian_kl(dense, held), lambda: hpd_intervals(held, 0.9),
                     lambda: grad_cov(held, A, data, prior), lambda: optimality_residual(held, A, data, prior)):
            with pytest.raises(NoDenseCovariance, match=type(held.C).__name__):
                read()


def _traced_peak(fn):
    """fn's result and the traced peak of what it allocates, above what the
    caller holds."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_masked_blur_fit_holds_at_most_three_tall_blocks():
    # deblur_40's problem (blur2d 40², rank 300, grid4, seed-0 data), each
    # phase against the budget its docstring states, with k = r + 10 and a
    # row block of at most max(linalg._BLOCK_ELEMS, k^2) elements: rsvd holds
    # three m x k blocks and two k x k matrices, or one and a row block; the
    # basis its W and two r x r matrices or two column blocks of at most
    # max(linalg._BLOCK_ELEMS, r^2) elements; a masked
    # Woodbury step no m x r array.  The slack is one ufunc buffer (numpy's
    # buffered loops, as in M - M^t) and 16 KiB of small objects.  At 40² a
    # k x k matrix is a fifth of a block.
    side, r = 40, 300
    m, k = side * side, r + 10
    block, row_block = 8 * m * k, 8 * max(linalg_module._BLOCK_ELEMS, k * k)
    slack = 8 * np.getbufsize() + 2**14
    A, x_true = make_test_problem("blur2d", side)
    data = sample_poisson_data(A, x_true, seed=substream_seed(0, "data"))
    prior = make_prior("H1_2D", 1.0, m)
    mask = SparsityMask.grid4(side)
    factor, peak = _traced_peak(lambda: rsvd(A, r))
    assert peak <= 3 * block + 8 * k * k + row_block + slack, peak / block
    basis, peak = _traced_peak(lambda: woodbury_basis(prior, factor))
    assert peak <= 8 * m * r + 2 * 8 * max(linalg_module._BLOCK_ELEMS, r * r) + slack, peak / block
    del factor
    prior.cov_entries(mask.rows, mask.cols)  # the prior's cached band, held across steps
    _, peak = _traced_peak(lambda: woodbury_cov(prior, basis, np.exp(A.matvec(x_true)), mask=mask))
    assert peak <= 1.3 * block, peak / block
    del basis
    cfg = VgaConfig(rank=r, mask=mask)
    (_, report), peak = _traced_peak(lambda: run_vga(A, data, prior, cfg))
    assert report.converged
    assert peak <= 13.5 * 2**20, peak / 2**20  # the fit peaks in rsvd, beside its start state


def test_warm_start_is_held_on_the_run_mask(rng):
    # a warm start from another mode is re-held on this run's mask (and off
    # it for unmasked modes), so every sweep reads one representation
    A, data, prior = random_problem(rng, m=6, n=8)
    mask = SparsityMask.banded(6, 3)
    masked_cfg = VgaConfig(rank=6, mask=mask)
    dense_fit, _ = run_vga(A, data, prior)
    fit, report = run_vga(A, data, prior, masked_cfg, initial_state=dense_fit)
    fresh, _ = run_vga(A, data, prior, masked_cfg)
    assert fit.C.mask is mask and report.converged
    np.testing.assert_allclose(fit.C.values, fresh.C.values, rtol=1e-5, atol=1e-6)
    # a masked fit on an equal mask built apart is used as it is, re-held on
    # this run's mask: the same run as the same-object warm start
    again, report = run_vga(A, data, prior, masked_cfg, initial_state=fit)
    equal_cfg = VgaConfig(rank=6, mask=SparsityMask.banded(6, 3))
    equal, equal_report = run_vga(A, data, prior, equal_cfg, initial_state=fit)
    assert equal.C.mask is equal_cfg.mask
    assert equal_report.elbo_trace == report.elbo_trace
    np.testing.assert_array_equal(equal.C.values, again.C.values)
    back, report = run_vga(A, data, prior, initial_state=fit)
    assert isinstance(back.C, DenseCov) and report.converged
    np.testing.assert_allclose(back.cov, dense_fit.cov, rtol=1e-5, atol=1e-6)
    # a masked fit warm-starting a run on another mask gives its mean only
    other = SparsityMask.banded(6, 5)
    other_cfg = VgaConfig(rank=6, mask=other)
    moved, report = run_vga(A, data, prior, other_cfg, initial_state=fit)
    cold_start = GaussianState(fit.mean, MaskedCov(other, (other.rows == other.cols).astype(float), 0.0))
    cold, cold_report = run_vga(A, data, prior, other_cfg, initial_state=cold_start)
    assert moved.C.mask is other and report.converged
    assert report.elbo_trace == cold_report.elbo_trace
    np.testing.assert_array_equal(moved.C.values, cold.C.values)
    # a start of another dimension is refused before it is held on the
    # mask, as a dense run refuses it
    wrong = GaussianState(np.zeros(5), np.eye(5))
    for cfg in (masked_cfg, VgaConfig()):
        with pytest.raises(DimensionMismatch, match="dimension 5"):
            run_vga(A, data, prior, cfg, initial_state=wrong)


@pytest.mark.parametrize("mode", ["dense", "lowrank"])
def test_masked_fit_warm_starts_an_unmasked_run_with_its_mean(mode):
    # a masked fit's zero-filled projection is indefinite here, so an
    # unmasked run takes only its mean and starts the covariance afresh:
    # the same run as a cold start from that mean
    side = 16
    A, x_true = make_test_problem("blur2d", side)
    data = sample_poisson_data(A, x_true, seed=0)
    prior = make_prior("H1_2D", 1.0, side * side)
    mask = SparsityMask.grid4(side)
    masked, _ = run_vga(A, data, prior, VgaConfig(rank=51, mask=mask))
    zero_filled = np.zeros((side * side, side * side))
    zero_filled[mask.rows, mask.cols] = masked.C.values
    assert np.linalg.eigvalsh(zero_filled)[0] < 0.0
    rank = None if mode == "dense" else 51
    warm, report = run_vga(A, data, prior, VgaConfig(rank=rank), initial_state=masked)
    cold, cold_report = run_vga(A, data, prior, VgaConfig(rank=rank),
                                initial_state=GaussianState(masked.mean, DenseCov(np.eye(side * side), 0.0)))
    assert report.converged and isinstance(warm.C, DenseCov)
    assert report.elbo_trace == cold_report.elbo_trace
    np.testing.assert_array_equal(warm.mean, cold.mean)


def test_run_stops_at_the_first_sweep_at_the_fixed_point_within_roundoff():
    # phillips n=100, H1 prior at alpha 400, banded-3 mask (A06): once the
    # covariance has reached its fixed point the bound still moves by 1e-10
    # to 5e-10 at |F| ~ 220, above the absolute 1e-10, for many sweeps; the
    # relative rule ends the run at the first such sweep
    A, x_true = make_test_problem("phillips", 100, rate_scale=(0.5, 50.0))
    data = sample_poisson_data(A, x_true, seed=substream_seed(0, "data"))
    prior = make_prior("H1", 400.0, 100)
    cfg = VgaConfig(rank=50, mask=SparsityMask.banded(100, 3))
    _, report = run_vga(A, data, prior, cfg)
    F = np.asarray(report.elbo_trace)
    dF = np.abs(np.diff(F))
    stall = (dF < 1e-10) | (
        (np.asarray(report.cov_residual_trace) < 1e-10) & (dF < 1e-11 * np.abs(F[1:]))
    )
    assert report.converged and report.stop_rule == "fixed_point"
    assert stall[-1] and not stall[:-1].any()


def test_dense_phillips_run_stops_on_the_absolute_bound_rule():
    # phillips n=100, L2 prior at alpha 10, the CLI's seed-0 data: the last
    # sweep moves the bound by 4.5e-13 while the covariance residual (1.9e-10)
    # is still above the fixed-point rule's 1e-10
    A, x_true = make_test_problem("phillips", 100, rate_scale=(0.5, 50.0))
    data = sample_poisson_data(A, x_true, seed=substream_seed(0, "data"))
    _, report = run_vga(A, data, make_prior("L2", 10.0, 100), VgaConfig())
    assert report.converged and report.stop_rule == "bound"
    assert abs(report.elbo_trace[-1] - report.elbo_trace[-2]) < 1e-10
    assert report.cov_residual_trace[-1] >= 1e-10


@pytest.mark.parametrize("mode", ["dense", "lowrank", "lowrank_sparse"])
def test_returned_state_carries_the_last_bound(mode):
    # the state carries the ln|C| of its last fixed-point step, so the bound
    # of the returned state is the last trace entry in every mode (masked
    # included, where the zero-filled projection has no ln|C| of its own)
    side = 16
    A, x_true = make_test_problem("blur2d", side)
    data = sample_poisson_data(A, x_true, seed=0)
    prior = make_prior("H1_2D", 1.0, side * side)
    mask = SparsityMask.grid4(side) if mode == "lowrank_sparse" else None
    cfg = VgaConfig(rank=None if mode == "dense" else 51, mask=mask)
    state, report = run_vga(A, data, prior, cfg)
    assert report.converged
    F = elbo(state, A, data, prior).total
    assert F == pytest.approx(report.elbo_trace[-1], rel=1e-12, abs=0.0)


def test_masked_state_without_a_logdet_refuses_the_bound():
    A, data, prior = random_problem(np.random.default_rng(3), m=6, n=8)
    mask = SparsityMask.banded(6, 3)
    identity = (mask.rows == mask.cols).astype(float)
    with pytest.raises(NotPositiveDefinite, match="masked state"):
        elbo(GaussianState(np.zeros(6), MaskedCov(mask, identity)), A, data, prior)
    carried = GaussianState(np.zeros(6), MaskedCov(mask, identity, 0.0))
    dense = GaussianState(np.zeros(6), np.eye(6))
    assert elbo(carried, A, data, prior).total == pytest.approx(elbo(dense, A, data, prior).total, rel=1e-12)


def test_dense_run_never_refactors_its_covariance(rng, monkeypatch):
    # ln|C| comes from the fixed-point step's factor of the precision, not
    # from a second Cholesky factorization of C per bound evaluation
    elbo_module = importlib.import_module("pvga.elbo")  # pvga.elbo is the function
    calls = []
    real = elbo_module.cholesky
    monkeypatch.setattr(elbo_module, "cholesky", lambda M: calls.append(1) or real(M))
    A, x_true = make_test_problem("phillips", 100)
    data = sample_poisson_data(A, x_true, seed=0)
    _, report = run_vga(A, data, make_prior("L2", 10.0, 100), VgaConfig())
    assert report.converged and len(report.elbo_trace) > 2
    assert calls == []


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(["dense", "lowrank"]),
    init_cov=st.sampled_from(["identity", "prior"]),
    m=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_bound_rises_on_every_sweep(mode, init_cov, m, seed):
    # dense mode, and low-rank mode at full rank; a warm restart from the
    # returned state continues the trace from that state's own bound
    A, data, prior = random_problem(np.random.default_rng(seed), m=m)
    rank = min(A.n_rows, m) if mode == "lowrank" else None
    cfg = VgaConfig(rank=rank)
    start = prior_start(prior, np.zeros(m)) if init_cov == "prior" else None
    state, report = run_vga(A, data, prior, cfg, initial_state=start)
    _, again = run_vga(A, data, prior, cfg, initial_state=state)
    trace = np.array(report.elbo_trace + again.elbo_trace)
    steps = np.diff(trace)
    assert np.all(steps >= -1e-12 * np.maximum(1.0, np.abs(trace[1:]))), steps


@pytest.mark.parametrize("mode", ["dense", "lowrank_sparse"])
def test_newton_pcg_is_preconditioned_by_the_covariance_the_run_holds(mode):
    # after a fixed-point step the run's covariance inverts the Newton system
    # at that step's rates, so after the first sweep each solve needs only a
    # few PCG iterations: dense phillips holds C (about 8 per solve with the
    # prior as preconditioner); masked blur2d 16^2 at rank 51 holds the last
    # Woodbury step's unprojected C0 - W M W^t (about 23 per solve with C0)
    if mode == "dense":
        A, x_true = make_test_problem("phillips", 100, rate_scale=(0.5, 50.0))
        prior, cfg, per_solve = make_prior("L2", 10.0, 100), VgaConfig(), 4
    else:
        A, x_true = make_test_problem("blur2d", 16)
        prior, per_solve = make_prior("H1_2D", 1.0, 256), 10
        cfg = VgaConfig(rank=51, mask=SparsityMask.grid4(16))
    data = sample_poisson_data(A, x_true, seed=substream_seed(0, "data"))
    _, report = run_vga(A, data, prior, cfg)
    assert report.converged
    later = report.inner_counts[1:]
    assert sum(c["pcg"] for c in later) <= per_solve * sum(c["newton"] for c in later)


def test_start_whose_gradient_norm_overflows_is_not_reported_as_converged():
    # at a start mean of 650 the gradient is about e^650 ~ 1e282 and its
    # square overflows; the Newton steps must still move the mean down
    # rather than stop the run on the "bound" rule at the start
    A, data, prior = scalar_problem(y=3)
    state, report = run_vga(A, data, prior, initial_state=GaussianState(np.array([650.0]), np.eye(1)))
    assert report.stop_rule is None
    assert state.mean[0] < 450.0
    assert np.all(np.diff(report.elbo_trace) > 0)


@pytest.mark.parametrize("start", [1e153, 7.05e152])
def test_a_run_whose_rates_reach_the_clamp_is_flagged_saturated(start):
    # log-rates start at 1000 and 705, past the clamp at 700; from 705 the
    # run ends well below the clamp, so only its early states saw it
    A = ForwardOperator.from_dense(np.array([[1e-150]]))
    data = PoissonData(np.array([3]))
    prior = PriorSpec(np.zeros(1), np.eye(1), 1.0)
    start_state = GaussianState(np.array([start]), np.eye(1))
    _, report = run_vga(A, data, prior, VgaConfig(max_outer=3), initial_state=start_state)
    assert report.flags == ["NumericallySaturated"]


def test_start_at_clamped_rates_is_refused_as_ill_conditioned():
    # at 800 the rates hit the overflow clamp (about e^700) and the guard's
    # power iteration sees a Newton system of norm about 1e304
    A, data, prior = scalar_problem(y=3)
    with pytest.raises(IllConditioned, match="1.01e\\+304"):
        run_vga(A, data, prior, initial_state=GaussianState(np.array([800.0]), np.eye(1)))


# -- config -----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError, match="max_outer"):
        VgaConfig(max_outer=0).validate()
    with pytest.raises(ConfigError, match="rank"):
        VgaConfig(rank=0).validate()
    with pytest.raises(ConfigError, match="mask needs a rank"):
        VgaConfig(mask=SparsityMask.banded(20, 3)).validate()
    for cfg in (VgaConfig(), VgaConfig(rank=10), VgaConfig(rank=10, mask=SparsityMask.banded(20, 3))):
        cfg.validate()


@pytest.mark.parametrize(
    "rank, mask, mode",
    [(None, None, "dense"), (10, None, "lowrank"), (10, SparsityMask.banded(20, 3), "lowrank_sparse")],
)
def test_rank_and_mask_give_the_mode_a_stated_one_must_match(rank, mask, mode):
    # the form the benchmark's workloads still use: a stated mode is checked
    # against the one rank and mask give, and read nowhere else
    assert VgaConfig(rank=rank, mask=mask).execution_mode == mode
    VgaConfig(rank=rank, mask=mask, mode=mode).validate()
    for other in ("dense", "lowrank", "lowrank_sparse", "banded"):
        if other != mode:
            with pytest.raises(ConfigError, match="disagrees"):
                VgaConfig(rank=rank, mask=mask, mode=other).validate()


# -- BLAS runtime ------------------------------------------------------------


def test_dense_gaussian_path_calls_no_scipy_factorization_kernel(monkeypatch):
    # numpy and scipy each bring an OpenBLAS with its own thread pool (README,
    # Kernels): with scipy's cho_solve, dpocon and dpotri refused, the dense
    # fit, Laplace, two E-steps of EM, a KL divergence and the optimality
    # residual still run, so none of them wakes scipy's pool
    A, x_true = make_test_problem("phillips", 20)
    data = sample_poisson_data(A, x_true, seed=substream_seed(0, "data"))
    prior = make_prior("L2", 1.0, 20)

    def refuse(*args, **kwargs):
        raise AssertionError("the dense Gaussian path called a scipy factorization kernel")

    monkeypatch.setattr(scipy.linalg, "cho_solve", refuse)
    for name in ("dpocon", "dpotri"):
        monkeypatch.setattr(scipy.linalg.lapack, name, refuse)
    fit, report = run_vga(A, data, prior, VgaConfig())
    assert report.converged
    laplace = laplace_approximation(A, data, prior)
    with pytest.raises(MaxIterationsExceeded) as exc:
        run_hierarchical(A, data, prior, HyperConfig(max_em=2))
    assert exc.value.partial[2].estep_converged == [True, True]
    assert gaussian_kl(laplace, fit) > 0.0
    assert all(np.isfinite(optimality_residual(fit, A, data, prior)))
