"""Hierarchical estimation of the prior strength.

The zero-operator case has a closed-form E-step, which turns the whole EM
loop into a scalar fixed-point iteration we can run independently and
compare against entry by entry.
"""

import importlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from pvga import (
    ForwardOperator,
    GaussianState,
    HyperConfig,
    PoissonData,
    PriorSpec,
    SparsityMask,
    VgaConfig,
    alpha_upper_bound,
    elbo,
    joint_lower_bound,
    phi_psi,
    run_hierarchical,
    run_vga,
    sample_poisson_data,
    update_alpha,
)
from pvga.errors import (
    AlphaCollapse,
    ConfigError,
    InvalidAlpha,
    MaxIterationsExceeded,
    NonpositiveDenominator,
)
from pvga.formats import substream_seed
from pvga.model import make_prior, make_test_problem

from conftest import random_prior, random_problem, random_state


# -- joint bound -------------------------------------------------------------


def test_joint_bound_is_elbo_plus_offset(rng):
    for _ in range(8):
        A, data, prior = random_problem(rng)
        state = random_state(rng, prior.m)
        a = float(rng.uniform(0.5, 3.0))
        b = float(rng.uniform(0.01, 2.0))
        alpha = float(rng.uniform(0.2, 5.0))
        F = elbo(state, A, data, prior.with_alpha(alpha)).total
        offset = (a - 1) * np.log(alpha) - alpha * b + a * np.log(b) - gammaln(a)
        got = joint_lower_bound(state, alpha, A, data, prior, a, b)
        np.testing.assert_allclose(got, F + offset, rtol=1e-12)


def test_joint_bound_noninformative_offset_is_minus_alpha(rng):
    A, data, prior = random_problem(rng)
    state = random_state(rng, prior.m)
    alpha = 1.7
    F = elbo(state, A, data, prior.with_alpha(alpha)).total
    got = joint_lower_bound(state, alpha, A, data, prior, 1.0, 1.0)
    np.testing.assert_allclose(got, F - alpha, rtol=1e-12)


def test_joint_bound_stationary_at_alpha_update(rng):
    for _ in range(5):
        A, data, prior = random_problem(rng)
        state = random_state(rng, prior.m)
        a, b = 1.2, 0.3
        alpha_hat = update_alpha(state, prior, a, b)
        h = 1e-5 * alpha_hat
        up = joint_lower_bound(state, alpha_hat + h, A, data, prior, a, b)
        dn = joint_lower_bound(state, alpha_hat - h, A, data, prior, a, b)
        deriv = (up - dn) / (2 * h)
        assert abs(deriv) <= 1e-6 * max(1.0, abs(up))


def test_joint_bound_rejects_bad_alpha(rng):
    A, data, prior = random_problem(rng)
    state = random_state(rng, prior.m)
    with pytest.raises(InvalidAlpha):
        joint_lower_bound(state, -1.0, A, data, prior, 1.0, 1.0)


@pytest.mark.parametrize("a, b", [(1.0, np.nan), (np.nan, 1e-4), (1.0, np.inf), (np.inf, 1.0), (True, 1.0)])
def test_hyperprior_functions_refuse_bad_a_b(rng, a, b):
    # a NaN or infinite a or b is refused, not carried into a NaN result
    A, data, prior = random_problem(rng)
    state = random_state(rng, prior.m)
    with pytest.raises(ConfigError, match="hyperprior parameter"):
        update_alpha(state, prior, a, b)
    with pytest.raises(ConfigError, match="hyperprior parameter"):
        joint_lower_bound(state, 1.0, A, data, prior, a, b)
    with pytest.raises(ConfigError, match="hyperprior parameter"):
        alpha_upper_bound(20, a, b)
    with pytest.raises(ConfigError, match="hyperprior parameter"):
        HyperConfig(a=a, b=b).validate()


# -- phi / psi decomposition ---------------------------------------------------


def test_psi_small_covariance_value():
    m, eps = 3, 1e-6
    prior = PriorSpec(np.zeros(m), np.eye(m), 1.0)
    state = GaussianState(np.zeros(m), eps * np.eye(m))
    A = ForwardOperator.from_dense(np.zeros((2, m)))
    data = PoissonData(np.zeros(2, dtype=int))
    _, psi = phi_psi(state, A, data, prior)
    np.testing.assert_allclose(psi, -eps * m / 2.0, rtol=1e-12)


def test_psi_nonpositive(rng):
    for _ in range(10):
        A, data, prior = random_problem(rng)
        state = random_state(rng, prior.m)
        assert phi_psi(state, A, data, prior)[1] <= 0.0


def test_phi_psi_reassembles_bound(rng):
    for _ in range(20):
        A, data, prior = random_problem(rng)
        alpha = float(rng.uniform(0.2, 5.0))
        scaled = prior.with_alpha(alpha)
        state = random_state(rng, prior.m)
        phi, psi = phi_psi(state, A, data, scaled)
        F = elbo(state, A, data, scaled).total
        np.testing.assert_allclose(phi + alpha * psi, F, rtol=1e-10, atol=1e-10)


# -- alpha update ------------------------------------------------------------


def test_update_alpha_hand_values():
    m = 2
    prior = PriorSpec(np.zeros(m), np.eye(m), 1.0)
    state = GaussianState(np.zeros(m), np.eye(m))
    near_one = update_alpha(state, prior, 1.0, 1e-12)
    np.testing.assert_allclose(near_one, 1.0, rtol=1e-11)
    assert update_alpha(state, prior, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)


def test_update_alpha_consistent_with_psi(rng):
    for _ in range(10):
        A, data, prior = random_problem(rng)
        state = random_state(rng, prior.m)
        a, b = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.01, 1.0))
        _, psi = phi_psi(state, A, data, prior)
        expect = (prior.m / 2.0 + a - 1.0) / (b - psi)
        np.testing.assert_allclose(update_alpha(state, prior, a, b), expect, rtol=1e-12)


def test_update_alpha_nonpositive_denominator():
    m = 2
    prior = PriorSpec(np.zeros(m), np.eye(m), 1.0)
    state = GaussianState(np.zeros(m), 1e-300 * np.eye(m))
    with pytest.raises(NonpositiveDenominator):
        update_alpha(state, prior, 1.0, -1.0)


# -- EM loop -----------------------------------------------------------------


def zero_operator_problem(m=4):
    A = ForwardOperator.from_dense(np.zeros((2, m)))
    data = PoissonData(np.zeros(2, dtype=int))
    prior = PriorSpec(np.zeros(m), np.eye(m), 1.0)
    return A, data, prior


def test_hierarchical_zero_operator_matches_scalar_iteration():
    # E-step in closed form: (mu0, alpha^{-1} I), so EM reduces to the scalar
    # map alpha <- m / (m/alpha + 2b); run that map independently
    m, b = 4, 1e-6
    A, data, prior = zero_operator_problem(m)
    cfg = HyperConfig(a=1.0, b=b, alpha_tol=1e-6)
    state, alpha_star, trace = run_hierarchical(A, data, prior, cfg)

    oracle = [1.0]
    for _ in range(len(trace.alpha_sequence) - 1):
        oracle.append(m / (m / oracle[-1] + 2 * b))
    np.testing.assert_allclose(trace.alpha_sequence, oracle, rtol=1e-6)

    diffs = np.diff(trace.alpha_sequence)
    assert np.all(diffs <= 0)  # decreasing toward the degenerate root
    residual = abs(update_alpha(state, prior, 1.0, b) - alpha_star)
    assert residual <= 1e-6 * alpha_star
    np.testing.assert_allclose(state.mean, prior.mu0, atol=1e-10)
    # the returned state is the last E-step, taken at the second-to-last alpha
    np.testing.assert_allclose(state.cov, np.eye(m) / trace.alpha_sequence[-2], rtol=1e-8)


def test_hierarchical_two_starts_share_a_limit(rng):
    A, data, prior = random_problem(rng, m=12, n=14)
    inner = VgaConfig()
    limits, directions = [], []
    for start in (0.05, 50.0):
        cfg = HyperConfig(alpha_init=start, max_em=400, alpha_tol=1e-6, inner=inner)
        _, alpha_star, trace = run_hierarchical(A, data, prior, cfg)
        assert trace.converged
        diffs = np.diff(trace.alpha_sequence)
        signs = np.sign(diffs[np.abs(diffs) > 1e-12])
        assert len(set(signs.tolist())) == 1  # increments never change direction
        directions.append(signs[0])
        limits.append(alpha_star)
    assert directions[0] > 0 > directions[1]  # one climbs, one descends
    assert abs(limits[0] - limits[1]) <= 1e-3 * limits[1]


def test_alpha_iterates_respect_upper_bound(rng):
    A, data, prior = random_problem(rng, m=8, n=10)
    cfg = HyperConfig(a=1.5, b=0.05, max_em=400)
    _, _, trace = run_hierarchical(A, data, prior, cfg)
    ceiling = alpha_upper_bound(8, 1.5, 0.05)
    assert np.max(trace.alpha_sequence) <= ceiling * (1 + 1e-12)


def test_psi_monotone_in_alpha(rng):
    A, data, prior = random_problem(rng, m=6, n=8)
    assert int(np.sum(data.y)) > 0
    psis = []
    for scale in (0.25, 0.5, 1.0, 2.0, 4.0):
        state, report = run_vga(A, data, prior.with_alpha(scale))
        assert report.converged
        psis.append(phi_psi(state, A, data, prior.with_alpha(scale))[1])
    diffs = np.diff(psis)
    assert np.all(diffs >= -1e-8)
    assert np.all(diffs > 1e-10)  # strict when counts are present


def test_joint_bound_nondecreasing_along_em(rng):
    A, data, prior = random_problem(rng, m=8, n=10)
    _, _, trace = run_hierarchical(A, data, prior, HyperConfig(max_em=400))
    assert np.all(np.diff(trace.joint_bound_sequence) >= -1e-8)


def test_alpha_star_maximizes_profiled_bound():
    A, x_true = make_test_problem("phillips", 60)
    data = PoissonData(np.random.default_rng(5).poisson(np.exp(A.matvec(x_true))))
    prior = make_prior("L2", 1.0, 60)
    cfg = HyperConfig(max_em=400, alpha_tol=1e-6)
    state_star, alpha_star, _ = run_hierarchical(A, data, prior, cfg)
    best = joint_lower_bound(state_star, alpha_star, A, data, prior, cfg.a, cfg.b)
    grid = np.geomspace(alpha_star / 3.0, alpha_star * 3.0, 30)
    profiled = []
    for alpha in grid:
        state, _ = run_vga(A, data, prior.with_alpha(alpha), initial_state=state_star)
        profiled.append(joint_lower_bound(state, alpha, A, data, prior, cfg.a, cfg.b))
    assert best >= max(profiled) - 1e-6


def test_alpha_collapse(rng):
    A, data, prior = random_problem(rng, m=4, n=5)
    with pytest.raises(AlphaCollapse):
        run_hierarchical(A, data, prior, HyperConfig(b=1e15))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degenerate_fixed_point_flag():
    m = 4
    y = 1000 * np.ones(m, dtype=int)
    A = ForwardOperator.from_dense(np.eye(m))
    prior = PriorSpec(np.log(1000.0) * np.ones(m), np.eye(m), 1.0)
    # a=1, b=1 puts the ceiling at m/2 = 2; the data pin the state so hard
    # that alpha* lands just under the ceiling
    _, alpha_star, trace = run_hierarchical(A, PoissonData(y), prior, HyperConfig(b=1.0))
    assert alpha_star > 1.0
    assert "PossiblyDegenerateFixedPoint" in trace.flags


def test_max_em_exhaustion_attaches_partial():
    A, data, prior = zero_operator_problem(4)
    cfg = HyperConfig(b=1e-3, max_em=10)  # decays forever, never settles
    with pytest.raises(MaxIterationsExceeded) as info:
        run_hierarchical(A, data, prior, cfg)
    state, alpha, trace = info.value.partial
    assert not trace.converged
    assert len(trace.alpha_sequence) == 11
    assert alpha > 0 and np.all(np.isfinite(state.mean))


def test_trace_records_every_estep(rng):
    A, data, prior = random_problem(rng, m=8, n=10)
    _, _, trace = run_hierarchical(A, data, prior, HyperConfig(max_em=400))
    assert len(trace.estep_converged) == len(trace.estep_sweeps) == len(trace.psi_sequence)
    assert all(trace.estep_converged)
    assert min(trace.estep_sweeps) >= 1
    # a one-sweep E-step budget is reported per E-step, not absorbed
    cfg = HyperConfig(max_em=3, inner=VgaConfig(max_outer=1))
    with pytest.raises(MaxIterationsExceeded) as info:
        run_hierarchical(A, data, prior, cfg)
    capped = info.value.partial[2]
    assert capped.estep_sweeps == [1, 1, 1]
    assert not capped.estep_converged[0]


def test_accepted_estep_evaluates_the_bound_once(rng, monkeypatch):
    # the E-step's last bound is F_alpha at the state it returns, so EM
    # evaluates no bound of its own: psi is read off the state and the
    # joint bound adds the hyperprior terms to the E-step's last bound
    import pvga.hyper as hyper

    A, data, prior = random_problem(rng, m=8, n=10)
    calls = []
    real_elbo = hyper.elbo
    monkeypatch.setattr(hyper, "elbo", lambda *args: calls.append(1) or real_elbo(*args))
    cfg = HyperConfig(max_em=400)
    state, _, trace = run_hierarchical(A, data, prior, cfg)
    assert calls == [] and len(trace.psi_sequence) == len(trace.joint_bound_sequence)
    # the recorded psi and joint bound are phi_psi's and joint_lower_bound's, bit for bit
    alpha = trace.alpha_sequence[-2]
    assert trace.psi_sequence[-1] == phi_psi(state, A, data, prior.with_alpha(alpha))[1]
    assert trace.joint_bound_sequence[-1] == joint_lower_bound(state, alpha, A, data, prior, cfg.a, cfg.b)


def test_masked_em_converges():
    # every E-step state carries its own ln|C|, so the joint bound never
    # factors a masked projection; the masked bound is not certified, so
    # its rise along the EM iterates is not asserted
    side = 16
    A, x_true = make_test_problem("blur2d", side)
    data = sample_poisson_data(A, x_true, seed=0)
    inner = VgaConfig(rank=51, mask=SparsityMask.grid4(side))
    state, alpha, trace = run_hierarchical(A, data, make_prior("H1_2D", 1.0, side * side),
                                           HyperConfig(inner=inner))
    assert trace.converged and alpha > 0
    assert state.C.mask is inner.mask
    assert np.all(np.isfinite(trace.joint_bound_sequence))


def test_masked_em_holds_one_woodbury_basis_at_a_time(monkeypatch):
    # neither the state EM keeps between E-steps nor a rejected trial holds
    # the product of its last Woodbury step, whose closure would keep that
    # basis's m x r W alive while the next E-step builds its own
    vga_module = importlib.import_module("pvga.vga")
    real, built, alive = vga_module.woodbury_basis, [], []

    def tracked(prior, factor):
        alive.append(sum(ref() is not None for ref in built))
        basis = real(prior, factor)
        built.append(weakref.ref(basis.W))
        return basis

    monkeypatch.setattr(vga_module, "woodbury_basis", tracked)
    side = 16
    A, x_true = make_test_problem("blur2d", side)
    data = sample_poisson_data(A, x_true, seed=substream_seed(0, "data"))
    inner = VgaConfig(rank=51, mask=SparsityMask.grid4(side))
    _, _, trace = run_hierarchical(A, data, make_prior("H1_2D", 1.0, side * side), HyperConfig(inner=inner))
    assert len(alive) == len(trace.psi_sequence) + len(trace.rejected_alphas) > 1
    assert alive == [0] * len(alive)


def test_dense_em_never_refactors_a_covariance(monkeypatch):
    # each E-step state carries ln|C| from its fixed-point step, so neither
    # the E-step bounds nor the joint bound factor C again
    elbo_module = importlib.import_module("pvga.elbo")  # pvga.elbo is the function
    calls = []
    real = elbo_module.cholesky
    monkeypatch.setattr(elbo_module, "cholesky", lambda M: calls.append(1) or real(M))
    A, x_true = make_test_problem("phillips", 100, rate_scale=(0.5, 50.0))
    data = sample_poisson_data(A, x_true, seed=substream_seed(0, "data"))
    cfg = HyperConfig(max_em=400, inner=VgaConfig())
    _, _, trace = run_hierarchical(A, data, make_prior("L2", 1.0, 100), cfg)
    assert trace.converged and len(trace.joint_bound_sequence) > 1
    assert calls == []


def test_em_settles_on_a_draw_plain_em_cannot_finish():
    # em_phillips100's setup on a data draw where plain EM needs 401 sweeps
    A, x_true = make_test_problem("phillips", 100, rate_scale=(0.5, 50.0))
    data = sample_poisson_data(A, x_true, seed=substream_seed(3835832615, "data"))
    prior = make_prior("L2", 1.0, 100)
    cfg = HyperConfig(a=1.0, b=1e-4, alpha_init=1.0, max_em=400, inner=VgaConfig())
    _, _, trace = run_hierarchical(A, data, prior, cfg)
    assert trace.converged
    assert np.all(np.diff(trace.alpha_sequence) <= 0)
    assert len(trace.psi_sequence) + len(trace.rejected_alphas) <= 30


def test_closed_bracket_ends_a_search_whose_trials_straddle_the_root():
    # near alpha* the sign of h is E-step noise: trials keep landing on both
    # sides, and only the bracket-width stop ends the search
    A, data, prior = random_problem(np.random.default_rng(9), m=6, n=10)
    cfg = HyperConfig(a=1.5, b=0.5, alpha_init=50.0)
    state, alpha_star, trace = run_hierarchical(A, data, prior, cfg)
    assert trace.converged and trace.rejected_alphas
    assert trace.alpha_sequence[-1] == trace.alpha_sequence[-2] == alpha_star
    assert np.all(np.diff(trace.alpha_sequence) <= 0)
    assert 0 < alpha_star - max(trace.rejected_alphas) < cfg.alpha_tol * alpha_star


def test_illinois_halving_moves_a_stuck_near_end():
    # regula falsi from a fixed near end creeps down on the root from above;
    # halving that end's weight after two rejections in a row lets a trial
    # land below the root (89 rejected trials without it)
    A, data, prior = random_problem(np.random.default_rng(61), m=3)
    _, _, trace = run_hierarchical(A, data, prior, HyperConfig(a=1.0, b=0.01, alpha_init=0.05))
    assert trace.converged
    assert len(trace.psi_sequence) + len(trace.rejected_alphas) <= 25


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    m=st.integers(2, 6),
    a=st.sampled_from([1.0, 1.5, 3.0]),
    b=st.sampled_from([1e-4, 1e-2, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_em_contract(m, a, b, seed):
    A, data, prior = random_problem(np.random.default_rng(seed), m=m)
    solves = 0
    for start in (0.05, 50.0):
        cfg = HyperConfig(a=a, b=b, alpha_init=start, max_em=400)
        state, alpha_star, trace = run_hierarchical(A, data, prior, cfg)
        assert trace.converged
        solves += len(trace.psi_sequence) + len(trace.rejected_alphas)
        s = 1.0 if alpha_star >= start else -1.0
        assert np.all(s * np.diff(trace.alpha_sequence) >= 0)
        assert np.all(np.diff(trace.joint_bound_sequence) >= -1e-8)
        assert alpha_star <= alpha_upper_bound(m, a, b)
        # a rejected trial lies past the root, so past alpha* to within alpha_tol
        rejected = np.asarray(trace.rejected_alphas)
        assert np.all(s * (rejected - alpha_star) > -cfg.alpha_tol * alpha_star)
        fresh, _ = run_vga(A, data, prior.with_alpha(alpha_star), cfg.inner, initial_state=state)
        assert abs(update_alpha(fresh, prior, a, b) - alpha_star) <= 1e-6 * alpha_star
    # the two starts together take about 22 solves (at most 33 over 150
    # draws of this kind); plain EM takes about 100 and often exhausts max_em
    assert solves <= 36


def test_hyper_config_validation():
    with pytest.raises(ConfigError):
        HyperConfig(a=0.0).validate()
    with pytest.raises(ConfigError):
        HyperConfig(b=-1.0).validate()
    with pytest.raises(InvalidAlpha):
        HyperConfig(alpha_init=0.0).validate()
    with pytest.raises(ConfigError):
        HyperConfig(max_em=0).validate()
    HyperConfig().validate()
