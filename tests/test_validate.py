"""Baselines and posterior validators.

Scalar cases are pinned to independent root-finding and quadrature oracles;
the sampler is held against a five-times-longer reference chain with
batch-means error bars computed here in the test.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.optimize import brentq
from scipy.special import ndtri

from pvga import (
    ForwardOperator,
    GaussianState,
    MaskedCov,
    McmcConfig,
    PoissonData,
    PriorSpec,
    compare_gaussians,
    hpd_intervals,
    laplace_approximation,
    map_estimate,
    mh_independence_sampler,
    orbit_check,
    run_vga,
    validate,
)
from pvga.errors import (
    ConfigError,
    DimensionMismatch,
    InsufficientSamples,
)
from pvga.elbo import grad_mean
from pvga import linalg
from pvga.linalg import SparsityMask
from pvga.model import make_prior, make_test_problem, sample_poisson_data
from pvga.vga import newton_step_mean

from conftest import mh_scan_reference, random_problem, random_state


def scalar_problem(y):
    A = ForwardOperator.from_dense(np.array([[1.0]]))
    data = PoissonData(np.array([y]))
    prior = PriorSpec(np.zeros(1), np.eye(1), 1.0)
    return A, data, prior


def zero_operator(m, n=2, mu0=None, rng=None):
    A = ForwardOperator.from_dense(np.zeros((n, m)))
    data = PoissonData(np.zeros(n, dtype=int))
    mu0 = mu0 if mu0 is not None else (rng.standard_normal(m) if rng else np.zeros(m))
    return A, data, PriorSpec(mu0, np.eye(m), 1.0)


# -- MAP and Laplace ---------------------------------------------------------


def test_map_zero_operator(rng):
    A, data, prior = zero_operator(4, rng=rng)
    np.testing.assert_allclose(map_estimate(A, data, prior), prior.mu0, atol=1e-12)


def test_map_scalar_root_is_zero():
    # posterior gradient e^x - y + x vanishes at exactly x = 0 when y = 1
    A, data, prior = scalar_problem(y=1)
    np.testing.assert_allclose(map_estimate(A, data, prior), [0.0], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_map_stationarity(m, seed):
    # MAP and Laplace come from the solver's mean step and covariance map;
    # the dense posterior Hessian is the reference, kept here in the test
    A, data, prior = random_problem(np.random.default_rng(seed), m=m)
    xhat = map_estimate(A, data, prior)
    Ad = A.dense()
    z = Ad @ xhat
    grad = Ad.T @ (np.exp(z) - data.y) + prior.prec_apply(xhat - prior.mu0)
    assert np.linalg.norm(grad) <= 1e-10
    ref = np.linalg.inv(Ad.T @ (np.exp(z)[:, None] * Ad) + prior.prec_dense())
    lap = laplace_approximation(A, data, prior)
    np.testing.assert_array_equal(lap.mean, xhat)
    assert np.linalg.norm(lap.cov - ref) <= 1e-10 * np.linalg.norm(ref)
    sign, ld = np.linalg.slogdet(lap.cov)
    assert sign == 1.0 and abs(lap.C.logdet - ld) <= 1e-10 * max(1.0, abs(ld))
    # the step reports the gradient norm at the mean it returns
    state = GaussianState(prior.mu0, prior.cov_dense())
    x_new, step = newton_step_mean(state, A, data, prior, state.cov.__matmul__)
    g_new = np.linalg.norm(grad_mean(state.replace_mean(x_new), A, data, prior))
    np.testing.assert_allclose(step.grad_norm, g_new, rtol=1e-12, atol=0.0)


def test_map_runs_without_a_dense_operator(monkeypatch):
    side = 16
    A, x_true = make_test_problem("blur2d", side)
    data = sample_poisson_data(A, x_true, seed=0)
    prior = make_prior("H1_2D", 1.0, side * side)

    def refuse(self):
        raise AssertionError("map_estimate formed the dense operator")

    monkeypatch.setattr(ForwardOperator, "dense", refuse)
    xhat = map_estimate(A, data, prior)
    grad = A.rmatvec(np.exp(A.matvec(xhat)) - data.y) + prior.prec_apply(xhat - prior.mu0)
    assert np.linalg.norm(grad) <= 1e-10


def test_laplace_zero_operator(rng):
    A, data, prior = zero_operator(3, rng=rng)
    g = laplace_approximation(A, data, prior)
    np.testing.assert_allclose(g.mean, prior.mu0, atol=1e-12)
    np.testing.assert_allclose(g.cov, prior.cov_dense(), rtol=1e-12)


def test_laplace_and_variational_means_differ():
    A, data, prior = scalar_problem(y=0)
    lap = laplace_approximation(A, data, prior)
    lap_root = brentq(lambda x: np.exp(x) + x, -2.0, 1.0, xtol=1e-14)
    np.testing.assert_allclose(lap.mean, [lap_root], atol=1e-10)
    state, _ = run_vga(A, data, prior)
    c = state.cov[0, 0]
    vga_root = brentq(lambda x: np.exp(x + c / 2.0) + x, -2.0, 1.0, xtol=1e-14)
    np.testing.assert_allclose(state.mean, [vga_root], atol=1e-5)
    assert abs(lap.mean[0] - state.mean[0]) > 1e-3


def test_laplace_covariance_below_prior(rng):
    for _ in range(5):
        A, data, prior = random_problem(rng)
        g = laplace_approximation(A, data, prior)
        lam = np.linalg.eigvalsh(prior.cov_dense() - g.cov)
        assert lam.min() >= -1e-10


# -- MH independence sampler ---------------------------------------------------


def test_mh_accepts_everything_when_target_is_proposal(rng):
    A, data, prior = zero_operator(3, rng=rng)
    proposal = GaussianState(prior.mu0.copy(), prior.cov_dense())
    out = mh_independence_sampler(
        A, data, prior, proposal, McmcConfig(chain_length=2000, burn_in=500, seed=1)
    )
    assert out.acceptance_rate == 1.0
    assert out.n_kept == 1500


def test_mh_scalar_mean_matches_quadrature():
    A, data, prior = scalar_problem(y=3)
    x = np.linspace(-8.0, 6.0, 20001)
    logw = 3.0 * x - np.exp(x) - 0.5 * x**2
    w = np.exp(logw - logw.max())
    quad_mean = float(np.trapezoid(x * w, x) / np.trapezoid(w, x))

    proposal, _ = run_vga(A, data, prior)
    out = mh_independence_sampler(
        A, data, prior, proposal, McmcConfig(chain_length=30000, burn_in=10000, seed=3)
    )
    assert abs(out.mean[0] - quad_mean) <= 3.0 * out.mean_stderr[0]
    assert out.acceptance_rate > 0.8
    # the draws stay in chain order (m = 1 once got them sorted in place by
    # the interval estimate, inflating the batch-means error)
    assert np.any(np.diff(out.samples[:, 0]) < 0.0)
    nb = 20
    bm = out.samples.reshape(nb, -1).mean(axis=1)
    assert out.mean_stderr[0] == bm.std(ddof=1) / np.sqrt(nb)
    assert out.mean_stderr[0] < 0.01


def batch_stderr(values, n_batches=25):
    """Batch-means standard error for each column of a (N, m) sample array."""
    N = values.shape[0]
    size = N // n_batches
    batches = values[: size * n_batches].reshape(n_batches, size, -1).mean(axis=1)
    return batches.std(axis=0, ddof=1) / np.sqrt(n_batches)


def test_mh_agrees_with_longer_reference_chain():
    m = 40
    A, x_true = make_test_problem("phillips", m)
    data = PoissonData(np.random.default_rng(2).poisson(np.exp(A.matvec(x_true))))
    prior = make_prior("L2", 10.0, m)
    proposal, _ = run_vga(A, data, prior)

    short = mh_independence_sampler(
        A, data, prior, proposal, McmcConfig(chain_length=50_000, burn_in=25_000, seed=11)
    )
    ref = mh_independence_sampler(
        A, data, prior, proposal, McmcConfig(chain_length=250_000, burn_in=125_000, seed=12)
    )
    gap = np.abs(short.mean - ref.mean)
    bars = 3.0 * np.sqrt(short.mean_stderr**2 + ref.mean_stderr**2)
    assert np.all(gap <= bars)

    # second moments with batch-means bars computed from the raw samples
    sq_short, sq_ref = short.samples**2, ref.samples**2
    gap2 = np.abs(sq_short.mean(axis=0) - sq_ref.mean(axis=0))
    bars2 = 3.0 * np.sqrt(batch_stderr(sq_short) ** 2 + batch_stderr(sq_ref) ** 2)
    assert np.all(gap2 <= bars2)


def test_mh_deterministic_given_seed(rng):
    A, data, prior = random_problem(rng, m=3, n=4)
    proposal, _ = run_vga(A, data, prior)
    cfg = McmcConfig(chain_length=3000, burn_in=1000, seed=9)
    a = mh_independence_sampler(A, data, prior, proposal, cfg)
    b = mh_independence_sampler(A, data, prior, proposal, cfg)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.acceptance_rate == b.acceptance_rate


def test_mh_refuses_huge_masked_proposal():
    # a masked proposal is refused at every size, not densified below one
    for m in (3, 5001):
        A = ForwardOperator.from_dense(np.zeros((2, m)))
        data = PoissonData(np.zeros(2, dtype=int))
        prior = make_prior("L2", 1.0, m)
        proposal = GaussianState(np.zeros(m), MaskedCov(SparsityMask.banded(m, 1), np.ones(m), 0.0))
        with pytest.raises(ConfigError, match="masked"):
            mh_independence_sampler(A, data, prior, proposal)


def test_mh_refuses_short_chain_before_drawing(monkeypatch):
    A, data, prior = zero_operator(3)
    proposal = GaussianState(np.zeros(3), np.eye(3))

    def no_draws(*args, **kwargs):
        raise AssertionError("the sampler drew proposals before checking the chain length")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(InsufficientSamples):
        mh_independence_sampler(
            A, data, prior, proposal, McmcConfig(chain_length=150, burn_in=100)
        )


def reference_chain(A, data, prior, proposal, cfg):
    """The whole chain at once: all proposals and accept uniforms drawn from the
    sampler's two substreams in one call each, the proposal density through a
    triangular solve, one accept scan, then the kept rows gathered."""
    K, m = cfg.chain_length, proposal.dim
    Ad = A.dense()
    L = proposal.C.chol()
    prop_seq, acc_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    X = proposal.mean + np.random.default_rng(prop_seq).standard_normal((K, m)) @ L.T
    log_u = np.log(np.random.default_rng(acc_seq).random(K))

    def log_w(X):
        V = solve_triangular(L, (X - proposal.mean).T, lower=True)
        log_q = (
            -0.5 * np.einsum("ij,ij->j", V, V)
            - np.sum(np.log(np.diag(L)))
            - 0.5 * m * np.log(2.0 * np.pi)
        )
        return validate._log_joint_rows(X, Ad, data, prior) - log_q

    idx, n_acc = mh_scan_reference(log_w(X), log_u, log_w(proposal.mean[None, :])[0])
    thin = 10 if m > 1000 else 1
    src = idx[np.arange(cfg.burn_in, K, thin)]
    samples = np.where((src < 0)[:, None], proposal.mean, X[src])
    return samples, n_acc / K


def phillips20():
    m = 20
    A, x_true = make_test_problem("phillips", m)
    data = PoissonData(np.random.default_rng(2).poisson(np.exp(A.matvec(x_true))))
    prior = make_prior("L2", 10.0, m)
    fit, _ = run_vga(A, data, prior)
    return A, data, prior, fit


@pytest.mark.parametrize("inflate", [1.0, 2.0])
def test_mh_blocks_match_whole_chain_reference(monkeypatch, inflate):
    # a budget of 7 rows of max(m, n) = 20 puts many block boundaries inside
    # the chain and makes burn_in (1003) no multiple of the block; an
    # inflated proposal covariance drops acceptance so the chain sits on a
    # carried state across boundaries
    A, data, prior, fit = phillips20()
    proposal = GaussianState(fit.mean, inflate * fit.cov)
    cfg = McmcConfig(chain_length=2000, burn_in=1003, seed=5)
    monkeypatch.setattr(linalg, "_BLOCK_ELEMS", 7 * 20)
    out = mh_independence_sampler(A, data, prior, proposal, cfg)
    ref_samples, ref_acc = reference_chain(A, data, prior, proposal, cfg)
    assert out.acceptance_rate == ref_acc
    assert out.n_kept == 997 and out.thin == 1
    np.testing.assert_allclose(out.samples, ref_samples, rtol=0, atol=1e-12)
    if inflate > 1.0:
        assert 0.0 < out.acceptance_rate < 0.5


def test_mh_thinned_blocks_match_whole_chain_reference(monkeypatch):
    m = 1001
    A, data, prior = zero_operator(m)
    proposal = GaussianState(prior.mu0.copy(), prior.cov_dense())
    cfg = McmcConfig(chain_length=3000, burn_in=1000, seed=2)
    monkeypatch.setattr(linalg, "_BLOCK_ELEMS", 7 * m)  # 7-row blocks across the thinning
    out = mh_independence_sampler(A, data, prior, proposal, cfg)
    ref_samples, ref_acc = reference_chain(A, data, prior, proposal, cfg)
    assert out.thin == 10 and out.n_kept == 200
    assert out.acceptance_rate == ref_acc
    np.testing.assert_allclose(out.samples, ref_samples, rtol=0, atol=1e-12)


def test_mh_covariance_matches_np_cov(monkeypatch):
    # a 150-row block budget sums the 997 kept rows in six full blocks and a
    # partial one, into one triangle that is then mirrored
    A, data, prior, fit = phillips20()
    monkeypatch.setattr(linalg, "_BLOCK_ELEMS", 150 * 20)
    cfg = McmcConfig(chain_length=2000, burn_in=1003, seed=5)
    out = mh_independence_sampler(A, data, prior, fit, cfg)
    ref = np.cov(out.samples, rowvar=False)
    assert np.max(np.abs(out.covariance - ref)) <= 1e-12 * np.max(np.abs(ref))
    np.testing.assert_array_equal(out.covariance, out.covariance.T)


def test_mh_memory_beyond_the_samples_does_not_grow_with_the_chain():
    # the kept samples are the one chain-sized array: from 20k to 100k kept
    # rows the traced peak grows by the samples' growth alone (a second
    # chain-sized temporary would double it)
    A, x_true = make_test_problem("phillips", 100, rate_scale=(0.5, 50.0))
    data = sample_poisson_data(A, x_true, seed=3)
    prior = make_prior("L2", 10.0, 100)
    fit, _ = run_vga(A, data, prior)
    peaks, sizes = [], []
    for kept in (20_000, 100_000):
        cfg = McmcConfig(chain_length=2 * kept, burn_in=kept, seed=1)
        tracemalloc.start()
        try:
            out = mh_independence_sampler(A, data, prior, fit, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(out.samples.nbytes)
        del out
    assert peaks[1] - peaks[0] <= 1.1 * (sizes[1] - sizes[0]), (peaks, sizes)


@pytest.mark.parametrize("m", [100, 1001])
def test_mh_memory_beyond_the_samples_is_a_few_row_blocks(m):
    # beyond the kept samples and its inputs (the dense operator and the
    # proposal's Cholesky factor, built before tracing), the sampler holds
    # the m x m covariance and a few row blocks of the package's budget: the
    # normals, the proposals, the rates and the centered prior argument; at
    # m = 1001 the chain is thinned
    A, x_true = make_test_problem("phillips", m, rate_scale=(0.5, 50.0))
    data = sample_poisson_data(A, x_true, seed=3)
    prior = make_prior("L2", 10.0, m)
    proposal = GaussianState(prior.mu0.copy(), prior.cov_dense())
    A.dense(), proposal.C.chol()
    cfg = McmcConfig(chain_length=3000, burn_in=1000, seed=1)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = mh_independence_sampler(A, data, prior, proposal, cfg)
        beyond = tracemalloc.get_traced_memory()[1] - held - out.samples.nbytes
    finally:
        tracemalloc.stop()
    assert out.thin == (10 if m > 1000 else 1)
    block = 8 * linalg._BLOCK_ELEMS
    assert beyond <= 8 * m * m + 5 * block, beyond / block


def test_mcmc_config_validation():
    with pytest.raises(ConfigError):
        McmcConfig(chain_length=100, burn_in=100).validate()
    McmcConfig().validate()


# -- HPD intervals -----------------------------------------------------------


def test_hpd_gaussian_standard_normal():
    g = GaussianState(np.zeros(3), np.eye(3))
    iv = hpd_intervals(g, 0.9)
    z = ndtri(0.95)
    np.testing.assert_allclose(iv[:, 0], -z, rtol=1e-12)
    np.testing.assert_allclose(iv[:, 1], z, rtol=1e-12)
    assert z == pytest.approx(1.6449, abs=1e-4)


def test_hpd_gaussian_nesting_and_scaling(rng):
    g = random_state(rng, 4)
    widths = []
    for gamma in (0.5, 0.9, 0.99):
        iv = hpd_intervals(g, gamma)
        widths.append(iv[:, 1] - iv[:, 0])
        np.testing.assert_allclose((iv[:, 0] + iv[:, 1]) / 2.0, g.mean, atol=1e-12)
    assert np.all(widths[1] > widths[0]) and np.all(widths[2] > widths[1])
    np.testing.assert_allclose(
        widths[1], 2.0 * ndtri(0.95) * np.sqrt(np.diag(g.cov)), rtol=1e-12
    )


def test_hpd_empirical_matches_analytic():
    draws = np.random.default_rng(4).standard_normal((100_000, 2))
    iv = hpd_intervals(draws, 0.9)
    analytic = 2.0 * ndtri(0.95)
    widths = iv[:, 1] - iv[:, 0]
    assert np.all(np.abs(widths - analytic) / analytic < 0.05)


@pytest.mark.parametrize("layout", ["1d", "column", "fortran"])
def test_hpd_leaves_the_draws_unchanged(layout):
    # the layouts whose transpose is already C-contiguous: the sort must
    # still work on a copy
    draws = np.random.default_rng(5).standard_normal((500, 3))
    arr = {"1d": draws[:, 0].copy(), "column": draws[:, :1].copy(),
           "fortran": np.asfortranarray(draws)}[layout]
    before = arr.copy()
    iv = hpd_intervals(arr, 0.9)
    np.testing.assert_array_equal(arr, before)
    np.testing.assert_array_equal(iv, hpd_intervals(np.ascontiguousarray(before), 0.9))


def test_hpd_blocks_match_one_shot_sort(monkeypatch):
    # a three-coordinate budget splits ten coordinates 3 + 3 + 3 + 1; rounded
    # draws put ties inside the windows
    draws = np.round(np.random.default_rng(6).standard_normal((500, 10)), 1)
    before = draws.copy()
    monkeypatch.setattr(linalg, "_BLOCK_ELEMS", 3 * 500 + 499)
    iv = hpd_intervals(draws, 0.9)
    s = np.sort(before.T, axis=1)
    h = int(np.ceil(0.9 * 500))
    starts = np.argmin(s[:, h - 1 :] - s[:, : 500 - h + 1], axis=1)
    rows = np.arange(10)
    ref = np.stack([s[rows, starts], s[rows, starts + h - 1]], axis=1)
    np.testing.assert_array_equal(iv, ref)
    np.testing.assert_array_equal(draws, before)


def test_hpd_guards():
    with pytest.raises(InsufficientSamples):
        hpd_intervals(np.zeros((99, 2)), 0.9)
    with pytest.raises(ConfigError):
        hpd_intervals(GaussianState(np.zeros(1), np.eye(1)), 1.0)


# -- gaussian comparison -------------------------------------------------------


def test_compare_gaussians_identity(rng):
    g = random_state(rng, 3)
    assert compare_gaussians(g, g) == (0.0, 0.0, pytest.approx(0.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))


def test_compare_gaussians_unit_shift():
    g1 = GaussianState(np.array([1.0, 0.0]), np.eye(2))
    g2 = GaussianState(np.zeros(2), np.eye(2))
    mean_err, cov_err, kl12, kl21 = compare_gaussians(g1, g2)
    assert mean_err == pytest.approx(1.0, rel=1e-12)
    assert cov_err == pytest.approx(0.0, abs=1e-12)
    assert kl12 == pytest.approx(0.5, rel=1e-12)
    assert kl21 == pytest.approx(0.5, rel=1e-12)


def test_compare_gaussians_swap(rng):
    g1, g2 = random_state(rng, 3), random_state(rng, 3)
    a = compare_gaussians(g1, g2)
    b = compare_gaussians(g2, g1)
    assert a[0] == b[0] and a[1] == b[1]
    assert a[2] == pytest.approx(b[3], rel=1e-12) and a[3] == pytest.approx(b[2], rel=1e-12)


def test_compare_gaussians_dimension_guard(rng):
    with pytest.raises(DimensionMismatch):
        compare_gaussians(random_state(rng, 2), random_state(rng, 3))


# -- covariance orbit --------------------------------------------------------


def test_orbit_zero_operator(rng):
    A, _, prior = zero_operator(4, rng=rng)
    out = orbit_check(A, np.zeros(4), prior, k_max=6)
    assert out.even_decreasing and out.odd_increasing and out.limits_ordered
    assert out.gap == 0.0


def test_orbit_alternating_structure(rng):
    for _ in range(6):
        m = int(rng.integers(2, 11))
        A, data, prior = random_problem(rng, m=m, n=m + 2)
        xbar = prior.mu0 + 0.3 * rng.standard_normal(m)
        out = orbit_check(A, xbar, prior, k_max=24)
        assert out.even_decreasing and out.odd_increasing and out.limits_ordered
        assert out.worst_violation >= -1e-10


def test_orbit_gap_closes_on_smooth_problem():
    m = 100
    A, x_true = make_test_problem("phillips", m)
    data = PoissonData(np.random.default_rng(0).poisson(np.exp(A.matvec(x_true))))
    prior = make_prior("L2", 10.0, m)
    state, _ = run_vga(A, data, prior)
    out = orbit_check(A, state.mean, prior, k_max=60)
    assert out.gap <= 1e-8
    assert out.even_decreasing and out.odd_increasing
