"""Bound evaluation, gradients, and divergences.

The scalar examples are checked two ways: against hand-derived closed forms
and against an independent Gauss-Hermite quadrature of the defining integral
(expectation under q of the log joint, plus the Gaussian entropy).  The
quadrature oracle lives here in the test, not in the library.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss
from scipy.linalg import eigh as generalized_eigh
from scipy.optimize import brentq
from scipy.special import gammaln

from pvga import (
    ForwardOperator,
    GaussianState,
    PoissonData,
    PriorSpec,
    bregman_divergence,
    elbo,
    evidence_quadrature,
    gaussian_kl,
    grad_cov,
    grad_mean,
    laplace_approximation,
    optimality_residual,
    rate_vector,
    run_vga,
)
from pvga.errors import DimensionMismatch, DimensionTooLarge, MaxIterationsExceeded
from pvga.validate import _log_joint_rows

from conftest import random_problem, random_spd, random_state


def scalar_setup(y=0, c=1.0, xbar=0.0):
    A = ForwardOperator.from_dense(np.array([[1.0]]))
    data = PoissonData(np.array([y]))
    prior = PriorSpec(np.zeros(1), np.eye(1), 1.0)
    state = GaussianState(np.array([xbar]), np.array([[c]]))
    return state, A, data, prior


def gauss_hermite_elbo_1d(xbar, c, y, mu0, c0, deg=80):
    """Quadrature of the defining integral for the 1-d model."""
    t, w = hermgauss(deg)
    x = xbar + np.sqrt(2.0 * c) * t
    log_p = y * x - np.exp(x) - gammaln(y + 1.0) - 0.5 * (x - mu0) ** 2 / c0 - 0.5 * np.log(2 * np.pi * c0)
    entropy = 0.5 * np.log(2 * np.pi * np.e * c)
    return float(w @ log_p / np.sqrt(np.pi) + entropy)


# -- rate vector -------------------------------------------------------------


def test_rate_vector_scalar():
    state, A, _, _ = scalar_setup()
    np.testing.assert_allclose(rate_vector(state, A), [0.5], rtol=1e-15)


def test_rate_vector_small_covariance_limit(rng):
    A = ForwardOperator.from_dense(rng.standard_normal((5, 3)))
    x = rng.standard_normal(3)
    state = GaussianState(x, 1e-12 * np.eye(3))
    np.testing.assert_allclose(rate_vector(state, A), A.matvec(x), atol=1e-10)


def test_rate_vector_orthonormal_rows(rng):
    Q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
    A = ForwardOperator.from_dense(Q.T[:3])  # three orthonormal rows
    x = rng.standard_normal(6)
    state = GaussianState(x, np.eye(6))
    np.testing.assert_allclose(rate_vector(state, A), A.matvec(x) + 0.5, rtol=1e-12)


# -- elbo values -------------------------------------------------------------


def test_elbo_scalar_against_quadrature_and_hand_value():
    state, A, data, prior = scalar_setup()
    quad = gauss_hermite_elbo_1d(0.0, 1.0, 0, 0.0, 1.0)
    np.testing.assert_allclose(quad, -np.exp(0.5), rtol=1e-12)  # oracle sanity
    np.testing.assert_allclose(elbo(state, A, data, prior).total, quad, rtol=1e-12)


def test_elbo_random_scalar_states_match_quadrature(rng):
    for _ in range(10):
        xbar = float(rng.uniform(-1.5, 1.0))
        c = float(rng.uniform(0.05, 2.0))
        y = int(rng.integers(0, 7))
        state, A, data, prior = scalar_setup(y=y, c=c, xbar=xbar)
        expect = gauss_hermite_elbo_1d(xbar, c, y, 0.0, 1.0)
        np.testing.assert_allclose(elbo(state, A, data, prior).total, expect, rtol=1e-10)


def test_elbo_pure_prior_value():
    n, m = 4, 3
    A = ForwardOperator.from_dense(np.zeros((n, m)))
    data = PoissonData(np.zeros(n, dtype=int))
    prior = PriorSpec(np.zeros(m), np.eye(m), 1.0)
    state = GaussianState(prior.mu0.copy(), prior.cov_dense())
    out = elbo(state, A, data, prior)
    np.testing.assert_allclose(out.total, -float(n), atol=1e-12)
    assert out.mean_penalty == 0.0
    assert out.cov_penalty_bregman == pytest.approx(0.0, abs=1e-12)


def test_elbo_breakdown_reassembles(rng):
    for _ in range(10):
        A, data, prior = random_problem(rng)
        state = random_state(rng, prior.m)
        out = elbo(state, A, data, prior)
        total = out.fit - out.mean_penalty - 0.5 * out.cov_penalty_bregman
        np.testing.assert_allclose(out.total, total, rtol=1e-10, atol=1e-10)


def test_elbo_shape_guard(rng):
    A, data, prior = random_problem(rng, m=3, n=4)
    state = random_state(rng, 5)
    with pytest.raises(DimensionMismatch):
        elbo(state, A, data, prior)


def test_saturation_flag_instead_of_inf(rng):
    A = ForwardOperator.from_dense(np.array([[1.0]]))
    data = PoissonData(np.array([0]))
    prior = PriorSpec(np.zeros(1), np.eye(1), 1.0)
    state = GaussianState(np.array([800.0]), np.array([[1.0]]))
    out = elbo(state, A, data, prior)
    assert np.isfinite(out.total)


# -- gradients ---------------------------------------------------------------


def test_grad_mean_zero_operator(rng):
    m = 4
    A = ForwardOperator.from_dense(np.zeros((3, m)))
    data = PoissonData(np.zeros(3, dtype=int))
    prior = PriorSpec(rng.standard_normal(m), np.eye(m), 1.5)
    state = random_state(rng, m)
    expect = -prior.prec_dense() @ (state.mean - prior.mu0)
    np.testing.assert_allclose(grad_mean(state, A, data, prior), expect, rtol=1e-12)


def test_grad_scalar_hand_values():
    state, A, data, prior = scalar_setup()
    np.testing.assert_allclose(grad_mean(state, A, data, prior), [-np.exp(0.5)], rtol=1e-14)
    np.testing.assert_allclose(grad_cov(state, A, data, prior), [[-np.exp(0.5) / 2.0]], rtol=1e-14)


def test_grad_cov_stationary_at_pure_prior(rng):
    m = 3
    A = ForwardOperator.from_dense(np.zeros((2, m)))
    data = PoissonData(np.zeros(2, dtype=int))
    prior = PriorSpec(np.zeros(m), np.eye(m), 2.0)
    state = GaussianState(rng.standard_normal(m), prior.cov_dense())
    np.testing.assert_allclose(grad_cov(state, A, data, prior), np.zeros((m, m)), atol=1e-12)


def finite_difference_mean(state, A, data, prior, h=1e-6):
    g = np.zeros(state.dim)
    for i in range(state.dim):
        e = np.zeros(state.dim)
        e[i] = h
        up = elbo(GaussianState(state.mean + e, state.cov), A, data, prior).total
        dn = elbo(GaussianState(state.mean - e, state.cov), A, data, prior).total
        g[i] = (up - dn) / (2 * h)
    return g


def finite_difference_cov(state, A, data, prior, h=1e-6):
    m = state.dim
    G = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1):
            E = np.zeros((m, m))
            E[i, j] = E[j, i] = h
            up = elbo(GaussianState(state.mean, state.cov + E), A, data, prior).total
            dn = elbo(GaussianState(state.mean, state.cov - E), A, data, prior).total
            d = (up - dn) / (2 * h)
            # <grad, E> = 2 h grad_ij off the diagonal, h grad_ii on it
            if i == j:
                G[i, i] = d
            else:
                G[i, j] = G[j, i] = d / 2.0
    return G


def test_gradients_match_finite_differences(rng):
    for _ in range(20):
        A, data, prior = random_problem(rng)
        state = random_state(rng, prior.m, cov_scale=0.5)
        gm = grad_mean(state, A, data, prior)
        np.testing.assert_allclose(
            gm, finite_difference_mean(state, A, data, prior), rtol=1e-5, atol=1e-7
        )
        gc = grad_cov(state, A, data, prior)
        np.testing.assert_allclose(
            gc, finite_difference_cov(state, A, data, prior), rtol=1e-5, atol=1e-7
        )


# -- bregman -----------------------------------------------------------------


def test_bregman_identity_and_scalar():
    C0 = random_spd(np.random.default_rng(1), 4)
    assert bregman_divergence(C0, C0) == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(
        bregman_divergence(np.array([[2.0]]), np.array([[1.0]])), 1.0 - np.log(2.0), rtol=1e-14
    )


def test_bregman_matches_generalized_eigenvalues(rng):
    for _ in range(8):
        m = int(rng.integers(2, 21))
        C = random_spd(rng, m)
        C0 = random_spd(rng, m)
        lam = generalized_eigh(C, C0, eigvals_only=True)
        expect = float(np.sum(lam - np.log(lam) - 1.0))
        np.testing.assert_allclose(bregman_divergence(C, C0), expect, rtol=1e-10, atol=1e-10)


def test_bregman_of_close_covariances_keeps_its_digits():
    # C0 = 2^-40 I and C = C0 diag(1 + k 2^-20), both exact in floating
    # point: d = sum k 2^-20 - ln(1 + k 2^-20) is about 1.2e-6, while ln|C|
    # and ln|C0| are about -5500 each, and a sum that subtracts them kept
    # only 6 digits (relative error 3.1e-7)
    m = 200
    delta = np.arange(1, m + 1) * 2.0**-20
    C0 = np.eye(m) * 2.0**-40
    C = np.diag((1.0 + delta) * 2.0**-40)
    # delta - log1p(delta) by its series, every term far above roundoff
    expect = float(np.sum(sum((-1.0) ** k * delta**k / k for k in range(2, 12))))
    np.testing.assert_allclose(bregman_divergence(C, C0), expect, rtol=1e-10)


def test_bregman_level_set_bounds_the_spectrum(rng):
    # d(C, C0) <= 1 forces every generalized eigenvalue into [lo, hi] where
    # f(lam) = lam - ln lam - 1 crosses 1; spectral norms inherit the bounds
    f = lambda lam: lam - np.log(lam) - 1.0
    lo = brentq(lambda t: f(t) - 1.0, 1e-6, 1.0)
    hi = brentq(lambda t: f(t) - 1.0, 1.0, 10.0)
    for _ in range(8):
        m = int(rng.integers(2, 7))
        C0 = random_spd(rng, m)
        lam = rng.uniform(0.5, 1.8, m)
        lam *= min(1.0, 0.99 / np.sum(f(lam))) ** 0 if np.sum(f(lam)) <= 1 else 1.0
        while np.sum(f(lam)) > 1.0:  # shrink toward 1 until inside the level set
            lam = 1.0 + 0.7 * (lam - 1.0)
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        R = np.linalg.cholesky(C0)
        C = R @ (Q * lam) @ Q.T @ R.T
        d = bregman_divergence(C, C0)
        assert d <= 1.0 + 1e-10
        norm = lambda M: float(np.max(np.abs(np.linalg.eigvalsh(M))))
        assert norm(C) <= hi * norm(C0) * (1 + 1e-10)
        assert norm(np.linalg.inv(C)) <= norm(np.linalg.inv(C0)) / lo * (1 + 1e-10)


# -- optimality residual -----------------------------------------------------


def test_optimality_residual_pure_prior(rng):
    m = 3
    A = ForwardOperator.from_dense(np.zeros((2, m)))
    data = PoissonData(np.zeros(2, dtype=int))
    prior = PriorSpec(np.zeros(m), np.eye(m), 1.0)
    state = GaussianState(prior.mu0.copy(), prior.cov_dense())
    r_mean, r_cov = optimality_residual(state, A, data, prior)
    assert r_mean == pytest.approx(0.0, abs=1e-12)
    assert r_cov == pytest.approx(0.0, abs=1e-12)


def test_optimality_residual_small_at_solver_output(rng):
    A, data, prior = random_problem(rng, m=5, n=6)
    state, report = run_vga(A, data, prior)
    assert report.converged
    r_mean, r_cov = optimality_residual(state, A, data, prior)
    assert r_mean <= 1e-6 and r_cov <= 1e-6


def test_optimality_residual_grows_linearly_in_perturbation(rng):
    A, data, prior = random_problem(rng, m=4, n=5)
    state, _ = run_vga(A, data, prior)
    base = optimality_residual(state, A, data, prior)[0]
    e = np.zeros(4)
    e[0] = 1.0
    r = {}
    for delta in (1e-3, 1e-2):
        pert = GaussianState(state.mean + delta * e, state.cov)
        r[delta] = optimality_residual(pert, A, data, prior)[0]
        assert r[delta] > base
    ratio = r[1e-2] / r[1e-3]
    assert 5.0 < ratio < 20.0  # linear scaling, up to curvature


# -- gaussian KL -------------------------------------------------------------


def test_gaussian_kl_values(rng):
    q = random_state(rng, 3)
    assert gaussian_kl(q, q) == pytest.approx(0.0, abs=1e-10)
    q1 = GaussianState(np.ones(1), np.array([[1.0]]))
    q2 = GaussianState(np.zeros(1), np.array([[1.0]]))
    assert gaussian_kl(q1, q2) == pytest.approx(0.5, rel=1e-12)


def test_gaussian_kl_equal_means_is_half_bregman(rng):
    m = 4
    mu = rng.standard_normal(m)
    C1, C2 = random_spd(rng, m), random_spd(rng, m)
    kl = gaussian_kl(GaussianState(mu, C1), GaussianState(mu.copy(), C2))
    np.testing.assert_allclose(kl, 0.5 * bregman_divergence(C1, C2), rtol=1e-10)


# -- evidence quadrature -----------------------------------------------------


def test_evidence_zero_operator():
    A = ForwardOperator.from_dense(np.zeros((6, 2)))
    data = PoissonData(np.zeros(6, dtype=int))
    prior = PriorSpec(np.zeros(2), np.eye(2), 1.0)
    np.testing.assert_allclose(evidence_quadrature(A, data, prior), -6.0, atol=1e-8)


def test_evidence_that_never_settles_raises(monkeypatch):
    # a node rule whose weights grow with the degree moves ln Z by 2 ln(deg)
    # at m = 2, so no two successive degrees agree: the last value comes
    # back as the error's partial result, not as an answer
    A = ForwardOperator.from_dense(np.zeros((6, 2)))
    data = PoissonData(np.zeros(6, dtype=int))
    prior = PriorSpec(np.zeros(2), np.eye(2), 1.0)

    def drifting(deg):
        nodes, weights = hermgauss(deg)
        return nodes, weights * deg

    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", drifting)
    with pytest.raises(MaxIterationsExceeded, match="degree 72") as exc:
        evidence_quadrature(A, data, prior)
    np.testing.assert_allclose(exc.value.partial, -6.0 + 2.0 * np.log(72.0), atol=1e-8)


def test_evidence_dimension_guard(rng):
    A, data, prior = random_problem(rng, m=4, n=4)
    with pytest.raises(DimensionTooLarge):
        evidence_quadrature(A, data, prior)


def test_elbo_below_evidence_with_nonnegative_gap(rng):
    A, data, prior = random_problem(rng, m=1, n=3)
    lnz = evidence_quadrature(A, data, prior)
    state, report = run_vga(A, data, prior)
    best = elbo(state, A, data, prior).total
    assert best <= lnz + 1e-6
    for _ in range(20):
        s = random_state(rng, 1)
        assert elbo(s, A, data, prior).total <= lnz + 1e-6


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 3), n=st.integers(1, 6), cov_scale=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_bound_is_at_most_the_quadrature_evidence(m, n, cov_scale, seed):
    # F(q) <= ln Z for every Gaussian q: at the fitted state, where the gap
    # is smallest, and at random states (the quadrature settles to 5e-9)
    rng = np.random.default_rng(seed)
    A, data, prior = random_problem(rng, m=m, n=n)
    ln_z = evidence_quadrature(A, data, prior)
    fit, _ = run_vga(A, data, prior)
    for state in [fit] + [random_state(rng, m, cov_scale) for _ in range(3)]:
        assert elbo(state, A, data, prior).total <= ln_z + 1e-6


def laplace_evidence(A, data, prior):
    g = laplace_approximation(A, data, prior)
    m = g.dim
    log_joint = _log_joint_rows(g.mean[None, :], A.dense(), data, prior)[0]
    return log_joint + 0.5 * np.linalg.slogdet(g.cov)[1] + 0.5 * m * np.log(2 * np.pi)


def test_laplace_evidence_gap_shrinks_with_counts(rng):
    A, data, prior = random_problem(rng, m=2, n=4)
    gaps = []
    for factor in (1, 10):
        scaled = PoissonData(data.y * factor)
        gap = abs(evidence_quadrature(A, scaled, prior) - laplace_evidence(A, scaled, prior))
        gaps.append(gap)
    assert gaps[1] < gaps[0]


# -- structural invariants ---------------------------------------------------


def test_concavity_on_joint_convex_combinations(rng):
    for _ in range(10):
        A, data, prior = random_problem(rng)
        s1 = random_state(rng, prior.m)
        s2 = random_state(rng, prior.m)
        f1 = elbo(s1, A, data, prior).total
        f2 = elbo(s2, A, data, prior).total
        for lam in (0.25, 0.5, 0.75):
            mix = GaussianState(
                lam * s1.mean + (1 - lam) * s2.mean, lam * s1.cov + (1 - lam) * s2.cov
            )
            fm = elbo(mix, A, data, prior).total
            assert fm >= lam * f1 + (1 - lam) * f2 - 1e-10
