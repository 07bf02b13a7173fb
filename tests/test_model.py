"""Observation model, priors, and the synthetic test problems."""

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.stats import chisquare, poisson

import pvga
from pvga import (
    ForwardOperator,
    PoissonData,
    PriorSpec,
    log_joint,
    log_likelihood,
    log_prior,
    make_prior,
    make_test_problem,
    sample_poisson_data,
)
from pvga.errors import InvalidAlpha, InvalidData, RateOverflow, UnknownProblem

from conftest import random_operator, random_prior


def constant_rate_operator(n):
    """n x 1 operator of ones, so x = [ln lam] gives rate lam in every row."""
    return ForwardOperator.from_dense(np.ones((n, 1)))


# -- PoissonData -------------------------------------------------------------


def test_data_rejects_negative_and_fractional():
    with pytest.raises(InvalidData):
        PoissonData(np.array([1, -1, 2]))
    with pytest.raises(InvalidData):
        PoissonData(np.array([1.5, 2.0]))


def test_log_factorial_term_uses_gammaln():
    y = np.array([0, 1, 5, 200])
    data = PoissonData(y)
    np.testing.assert_allclose(data.log_factorial_term, gammaln(y + 1.0).sum(), rtol=1e-14)
    assert data.log_factorial_term >= 0.0


# -- log densities -----------------------------------------------------------


def test_log_likelihood_zero_operator_zero_counts():
    A = ForwardOperator.from_dense(np.zeros((7, 3)))
    data = PoissonData(np.zeros(7, dtype=int))
    assert log_likelihood(np.ones(3), A, data) == pytest.approx(-7.0, rel=1e-14)


def test_log_likelihood_scalar_hand_value():
    # unit rate, one count: ln(1^1 e^{-1} / 1!) = -1
    A = ForwardOperator.from_dense(np.array([[1.0]]))
    data = PoissonData(np.array([1]))
    assert log_likelihood(np.array([0.0]), A, data) == pytest.approx(-1.0, rel=1e-14)


def test_log_likelihood_matches_pmf_oracle(rng):
    A = random_operator(rng, 6, 4)
    x = rng.standard_normal(4)
    lam = np.exp(A.matvec(x))
    y = rng.poisson(lam)
    value = log_likelihood(x, A, PoissonData(y))
    np.testing.assert_allclose(value, poisson.logpmf(y, lam).sum(), rtol=1e-12)


def test_log_likelihood_mode_property():
    # for lam >= 5 the pmf peaks at floor(lam); +/-1 perturbations lose mass
    # (integer lam ties floor(lam) with floor(lam)-1 exactly, so avoid it)
    for lam in (5.7, 9.3, 40.2):
        A = constant_rate_operator(1)
        x = np.array([np.log(lam)])
        k = int(np.floor(lam))
        center = log_likelihood(x, A, PoissonData(np.array([k])))
        up = log_likelihood(x, A, PoissonData(np.array([k + 1])))
        down = log_likelihood(x, A, PoissonData(np.array([k - 1])))
        assert center >= up and center >= down
        np.testing.assert_allclose(center, poisson.logpmf(k, lam), rtol=1e-12)


def test_log_likelihood_overflow_guard():
    A = ForwardOperator.from_dense(np.array([[1.0]]))
    data = PoissonData(np.array([0]))
    with pytest.raises(RateOverflow):
        log_likelihood(np.array([710.0]), A, data)


def test_log_prior_values():
    m = 3
    prior = PriorSpec(np.zeros(m), np.eye(m), 1.0)
    assert log_prior(np.zeros(m), prior) == pytest.approx(-(m / 2) * np.log(2 * np.pi), rel=1e-14)
    scalar = PriorSpec(np.zeros(1), np.eye(1), 1.0)
    assert log_prior(np.ones(1), scalar) == pytest.approx(-0.5 - 0.5 * np.log(2 * np.pi), rel=1e-14)
    scalar2 = PriorSpec(np.zeros(1), np.eye(1), 2.0)
    expect = -1.0 - 0.5 * np.log(2 * np.pi) + 0.5 * np.log(2.0)
    assert log_prior(np.ones(1), scalar2) == pytest.approx(expect, rel=1e-14)


def test_log_prior_translation_invariance(rng):
    prior = random_prior(rng, 5)
    shift = rng.standard_normal(5)
    x = rng.standard_normal(5)
    shifted = PriorSpec(prior.mu0 + shift, prior.L, prior.alpha)
    np.testing.assert_allclose(log_prior(x + shift, shifted), log_prior(x, prior), rtol=1e-12)


def test_log_joint_additivity(rng):
    for _ in range(20):
        A = random_operator(rng, 4, 3)
        prior = random_prior(rng, 3)
        x = rng.standard_normal(3)
        y = rng.integers(0, 6, 4)
        data = PoissonData(y)
        assert log_joint(x, A, data, prior) == log_likelihood(x, A, data) + log_prior(x, prior)


def test_log_joint_zero_operator_value():
    n, m = 5, 2
    A = ForwardOperator.from_dense(np.zeros((n, m)))
    prior = PriorSpec(np.zeros(m), np.eye(m), 1.0)
    data = PoissonData(np.zeros(n, dtype=int))
    expect = -n - (m / 2) * np.log(2 * np.pi)  # ln|C0^{-1}| = 0 here
    assert log_joint(prior.mu0, A, data, prior) == pytest.approx(expect, rel=1e-13)


# -- sampling ----------------------------------------------------------------


def test_sample_determinism():
    A = constant_rate_operator(50)
    x = np.array([np.log(3.0)])
    d1 = sample_poisson_data(A, x, seed=11)
    d2 = sample_poisson_data(A, x, seed=11)
    np.testing.assert_array_equal(d1.y, d2.y)


def test_sample_mean_matches_rate():
    A = constant_rate_operator(10_000)
    x = np.array([np.log(4.0)])
    means = [sample_poisson_data(A, x, seed=s).y.mean() for s in range(3)]
    assert 3.9 <= np.mean(means) <= 4.1


def test_sample_overflow_guard():
    A = ForwardOperator.from_dense(np.array([[1.0]]))
    with pytest.raises(RateOverflow):
        sample_poisson_data(A, np.array([710.0]), seed=0)


def test_sample_goodness_of_fit():
    # binned chi-square against the target pmf, tails merged to keep
    # expected counts above 5
    n = 100_000
    for lam, seed in ((0.5, 1), (4.0, 2), (20.0, 3)):
        A = constant_rate_operator(n)
        y = sample_poisson_data(A, np.array([np.log(lam)]), seed=seed).y
        hi = int(poisson.ppf(1 - 1e-4, lam)) + 1
        edges = np.arange(hi + 2)
        observed = np.bincount(np.minimum(y, hi), minlength=hi + 1).astype(float)
        expected = poisson.pmf(edges[:-1], lam) * n
        expected[-1] = n - expected[:-1].sum()
        keep = expected >= 5.0
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
        if expected[-1] == 0.0:
            observed, expected = observed[:-1], expected[:-1]
        stat, pvalue = chisquare(observed, expected * observed.sum() / expected.sum())
        assert pvalue > 1e-3, f"lam={lam}: p={pvalue:.2e}"


# -- operators ---------------------------------------------------------------


def test_all_representations_match_dense(rng):
    col = rng.standard_normal(6)
    row = rng.standard_normal(6)
    row[0] = col[0]
    ops = [
        random_operator(rng, 7, 5),
        ForwardOperator.from_lowrank(pvga.rsvd(rng.standard_normal((8, 6)), 3, seed=0)),
        ForwardOperator.from_toeplitz(col, row),
        ForwardOperator.gaussian_blur_2d(5, width=5, variance=0.8),
    ]
    for A in ops:
        dense = A.dense()
        x = rng.standard_normal(A.n_cols)
        u = rng.standard_normal(A.n_rows)
        np.testing.assert_allclose(A.matvec(x), dense @ x, atol=1e-10)
        np.testing.assert_allclose(A.rmatvec(u), dense.T @ u, atol=1e-10)
        X = rng.standard_normal((A.n_cols, 3))
        np.testing.assert_allclose(A.matmat(X), dense @ X, atol=1e-10)


def test_phillips_square_symmetric():
    A, _ = make_test_problem("phillips", 100)
    assert A.shape == (100, 100)
    d = A.dense()
    np.testing.assert_allclose(d, d.T, atol=1e-12)


def test_blur2d_doubly_circulant_structure():
    side = 8
    A = ForwardOperator.gaussian_blur_2d(side, width=7, variance=1.0)
    assert A.shape == (side * side, side * side)
    # circular shift of the input image in either grid direction shifts the
    # output image the same way
    rng = np.random.default_rng(5)
    X = rng.standard_normal((side, side))
    out = A.matvec(X.ravel()).reshape(side, side)
    for axis in (0, 1):
        shifted = A.matvec(np.roll(X, 2, axis=axis).ravel()).reshape(side, side)
        np.testing.assert_allclose(shifted, np.roll(out, 2, axis=axis), atol=1e-10)


def test_blur2d_descriptor_size_128():
    A = ForwardOperator.gaussian_blur_2d(128)
    assert A.shape == (16384, 16384)
    desc = A._payload
    assert desc["T"].shape == (128, 128)  # separable: only the 1-D factor is stored
    assert desc["width"] == 99 and desc["variance"] == 1.5


def test_problem_rate_scaling():
    for name in ("phillips", "gravity", "heat", "foxgood"):
        A, x_true = make_test_problem(name, 48)
        z = A.matvec(x_true)
        rates = np.exp(z)
        assert rates.max() <= 50.0 * (1 + 1e-12), name
        assert rates.max() >= 25.0, name  # scaling pushes the peak near the cap
        if z.min() < 0:
            assert rates.min() >= 0.5 * (1 - 1e-12), name


def test_problem_unknown_and_size_guard():
    with pytest.raises(UnknownProblem):
        make_test_problem("nosuch", 32)
    with pytest.raises(Exception):
        make_test_problem("phillips", 4)


def test_rate_scale_none_leaves_truth_alone():
    A1, x1 = make_test_problem("gravity", 30, rate_scale=None)
    A2, x2 = make_test_problem("gravity", 30, rate_scale=(0.5, 50.0))
    assert not np.allclose(x1, x2)
    np.testing.assert_allclose(A1.dense(), A2.dense())  # scaling touches x only


# -- priors ------------------------------------------------------------------


def test_make_prior_l2_identity():
    p = make_prior("L2", 1.0, 4)
    np.testing.assert_array_equal(p.prec_dense(), np.eye(4))


def test_make_prior_h1_stencil():
    p = make_prior("H1", 1.0, 3)
    prec = p.prec_dense()
    expect = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    np.testing.assert_allclose(prec, expect, atol=1e-14)


def test_make_prior_h1_2d_kronecker_sum():
    p = make_prior("H1_2D", 1.0, 4)  # 2x2 grid
    L1 = np.array([[1.0, 0.0], [-1.0, 1.0]])
    L = np.kron(np.eye(2), L1) + np.kron(L1, np.eye(2))
    np.testing.assert_allclose(p.prec_dense(), L.T @ L, atol=1e-14)


def test_make_prior_guards():
    with pytest.raises(InvalidAlpha):
        make_prior("L2", 0.0, 4)
    with pytest.raises(Exception):
        make_prior("H1_2D", 1.0, 5)  # not a square grid
    with pytest.raises(Exception):
        make_prior("unknown", 1.0, 4)


def test_prior_alpha_scaling(rng):
    base = random_prior(rng, 4, alpha=1.0)
    double = base.with_alpha(2.0)
    np.testing.assert_allclose(double.prec_dense(), 2.0 * base.prec_dense(), rtol=1e-14)
    np.testing.assert_allclose(double.cov_dense(), base.cov_dense() / 2.0, rtol=1e-12)
    np.testing.assert_allclose(
        double.logdet_prec(), base.logdet_prec() + 4 * np.log(2.0), rtol=1e-12
    )


def test_prior_cov_apply_is_inverse_of_prec(rng):
    prior = random_prior(rng, 6)
    v = rng.standard_normal(6)
    np.testing.assert_allclose(prior.cov_apply(prior.prec_apply(v)), v, rtol=1e-10)


def test_prior_cov_entries_match_dense(rng):
    prior = random_prior(rng, 5)
    rows = np.array([0, 1, 4, 2])
    cols = np.array([0, 3, 4, 2])
    np.testing.assert_allclose(
        prior.cov_entries(rows, cols), prior.cov_dense()[rows, cols], rtol=1e-10
    )
