"""Observation model, priors, and the synthetic test problems."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
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
from pvga.errors import DimensionTooLarge, InvalidAlpha, InvalidData, RateOverflow, UnknownProblem

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
    # n != m and a col/row pair that is not symmetric; m = 9 is a 3 x 3 grid
    col = rng.standard_normal(6)
    row = rng.standard_normal(9)
    row[0] = col[0]
    ops = [
        random_operator(rng, 7, 9),
        ForwardOperator.from_toeplitz(col, row),
        ForwardOperator.gaussian_blur_2d(5, width=5, variance=0.8),
    ]
    for A in ops:
        dense = A.dense()
        assert dense.shape == A.shape
        x = rng.standard_normal(A.n_cols)
        u = rng.standard_normal(A.n_rows)
        np.testing.assert_allclose(A.matvec(x), dense @ x, atol=1e-10)
        np.testing.assert_allclose(A.rmatvec(u), dense.T @ u, atol=1e-10)
        X = rng.standard_normal((A.n_cols, 3))
        np.testing.assert_allclose(A.matmat(X), dense @ X, atol=1e-10)
        Y = rng.standard_normal((A.n_rows, 3))
        np.testing.assert_allclose(A.rmatmat(Y), dense.T @ Y, atol=1e-10)
        side = int(round(np.sqrt(A.n_cols)))
        for mask in (pvga.SparsityMask.grid4(side), pvga.SparsityMask.banded(A.n_cols, 3)):
            vals = rng.standard_normal(mask.nnz)
            C = np.zeros((A.n_cols, A.n_cols))
            np.add.at(C, (mask.rows, mask.cols), vals)
            np.testing.assert_allclose(
                A.masked_quad(mask, vals), np.einsum("ij,jk,ik->i", dense, C, dense), atol=1e-10
            )


def test_toeplitz_equals_scipy_bit_for_bit(rng):
    for n, m in ((1, 1), (1, 5), (5, 1), (6, 9), (9, 6), (100, 100)):
        col = rng.standard_normal(n)
        row = rng.standard_normal(m)
        row[0] = col[0]
        np.testing.assert_array_equal(
            ForwardOperator.from_toeplitz(col, row).dense(), scipy.linalg.toeplitz(col, row)
        )


def test_oversized_toeplitz_refused_at_construction():
    # 9000^2 entries exceed the materialization limit; the zero taps cost nothing
    with pytest.raises(DimensionTooLarge):
        ForwardOperator.from_toeplitz(np.zeros(9000), np.zeros(9000))


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


class _ColumnLoop:
    """The blur operator's products one column at a time, each as the image
    product T X T^t (the reference; ``matvec`` is now a one-column
    ``matmat`` and cannot serve as one)."""

    def __init__(self, A):
        self.T, self.shape = A.kron_factor, A.shape

    def _loop(self, X, T):
        side = T.shape[0]
        return np.column_stack([(T @ X[:, j].reshape(side, side) @ T.T).ravel() for j in range(X.shape[1])])

    def matmat(self, X):
        return self._loop(X, self.T)

    def rmatmat(self, Y):
        return self._loop(Y, self.T.T)


def test_blur2d_stacked_products_equal_the_column_loop_bit_for_bit():
    # the stacked T X T^t products must not move any rsvd factor (and with it
    # the benchmark's pinned values): equality, not closeness
    rng = np.random.default_rng(11)
    for side, k in ((8, 5), (16, 61), (40, 310)):
        A = ForwardOperator.gaussian_blur_2d(side, width=min(99, 2 * side - 1))
        ref = _ColumnLoop(A)
        X = rng.standard_normal((side * side, k))
        np.testing.assert_array_equal(A.matmat(X), ref.matmat(X))
        np.testing.assert_array_equal(A.rmatmat(X), ref.rmatmat(X))
        np.testing.assert_array_equal(A.matvec(X[:, 0]), ref.matmat(X[:, :1])[:, 0])
        np.testing.assert_array_equal(A.rmatvec(X[:, 0]), ref.rmatmat(X[:, :1])[:, 0])
    A, _ = make_test_problem("blur2d", 16)
    F, G = pvga.rsvd(A, 51, seed=3), pvga.rsvd(_ColumnLoop(A), 51, seed=3)
    for a, b in ((F.U, G.U), (F.S, G.S), (F.V, G.V)):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(pvga.errors.DimensionMismatch):
        A.matmat(np.ones((255, 2)))


def test_blur2d_descriptor_size_128():
    A = ForwardOperator.gaussian_blur_2d(128)
    assert A.shape == (16384, 16384)
    T = A.kron_factor
    assert T.shape == (128, 128)  # separable: only the 1-D factor is stored
    # width 99, variance 1.5: normalized Gaussian taps at circular offsets |k| <= 49
    k = np.minimum(np.arange(128), 128 - np.arange(128))
    taps = np.where(k <= 49, np.exp(-(k**2) / 3.0), 0.0)
    np.testing.assert_allclose(T[:, 0], taps / taps.sum(), rtol=1e-12, atol=0.0)
    # the taps are folded into T's first column in the order of the loop
    # that folded them before, so the factor is unchanged bit for bit
    for side in (8, 40, 128):
        width = min(99, 2 * side - 1)
        c = (width - 1) // 2
        taps = np.exp(-((np.arange(width) - c) ** 2) / 3.0)
        taps /= taps.sum()
        kc = np.zeros(side)
        for j, w in enumerate(taps):
            kc[(j - c) % side] += w
        np.testing.assert_array_equal(ForwardOperator.gaussian_blur_2d(side, width).kron_factor[:, 0], kc)


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


# -- prior factorization over dense, general and sparse factors ---------------


def _random_factor(kind, m, rng):
    """Nonsingular, well-conditioned L of the given kind, with its dense form."""
    if kind == "identity":
        return None, np.eye(m)
    if kind == "lower":
        L = np.tril(0.3 * rng.standard_normal((m, m)), -1) + np.diag(rng.uniform(0.8, 1.6, m))
        return L, L
    if kind == "general":
        U, _ = np.linalg.qr(rng.standard_normal((m, m)))
        V, _ = np.linalg.qr(rng.standard_normal((m, m)))
        L = (U * rng.uniform(0.8, 1.6, m)) @ V.T
        return L, L
    # Row-permuted, strictly diagonally dominant, so the LU has to pivot.
    off = scipy.sparse.random(
        m, m, density=0.4, random_state=rng, data_rvs=lambda k: rng.uniform(-0.3 / m, 0.3 / m, k)
    )
    D = scipy.sparse.diags(rng.uniform(0.8, 1.6, m) * rng.choice([-1.0, 1.0], m))
    L = (D + off).tocsr()[rng.permutation(m)]
    return L, L.toarray()


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["identity", "lower", "general", "sparse"]),
    m=st.integers(1, 7),
    alpha=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_prior_services_agree_with_dense_algebra(kind, m, alpha, seed):
    rng = np.random.default_rng(seed)
    L, Ld = _random_factor(kind, m, rng)
    prior = PriorSpec(rng.standard_normal(m), L, alpha)
    prec = alpha * Ld.T @ Ld
    cov = np.linalg.inv(prec)
    np.testing.assert_allclose(prior.prec_dense(), prec, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(prior.cov_dense(), cov, rtol=1e-9, atol=1e-12)
    v = rng.standard_normal(m)
    np.testing.assert_allclose(prior.cov_apply(prior.prec_apply(v)), v, rtol=1e-9, atol=1e-12)
    X = rng.standard_normal((m, 3))
    np.testing.assert_allclose(prior.cov_matmat(X), cov @ X, rtol=1e-9, atol=1e-12)
    rows = rng.integers(0, m, 5)
    cols = rng.integers(0, m, 5)
    np.testing.assert_allclose(prior.cov_entries(rows, cols), cov[rows, cols], rtol=1e-9, atol=1e-12)
    D = rng.standard_normal((4, m))
    np.testing.assert_allclose(prior.quad_base_rows(D), np.sum((D @ Ld.T) ** 2, axis=1), rtol=1e-10)
    C = rng.standard_normal((m, m))
    assert prior.trace_base(C) == pytest.approx(np.trace(Ld.T @ Ld @ C), rel=1e-10, abs=1e-10)
    assert prior.logdet_prec() == pytest.approx(np.linalg.slogdet(prec)[1], rel=1e-10, abs=1e-10)
    double = prior.with_alpha(2.0 * alpha)
    np.testing.assert_allclose(double.prec_dense(), 2.0 * prior.prec_dense(), rtol=1e-14)
    np.testing.assert_allclose(double.cov_dense(), prior.cov_dense() / 2.0, rtol=1e-14)
    np.testing.assert_allclose(double.cov_apply(v), prior.cov_apply(v) / 2.0, rtol=1e-14)
    assert double.logdet_prec() == pytest.approx(prior.logdet_prec() + m * np.log(2.0), rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["L2", "H1", "H1_2D", "dense"]),
    side=st.integers(2, 9),
    alpha=st.floats(0.1, 10.0),
    mask_kind=st.sampled_from(["grid4", "banded", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_prior_mask_entries_match_dense_covariance(kind, side, alpha, mask_kind, seed):
    # the banded selected inversion behind cov_entries gives the entries of
    # the dense C0 at every mask pair, in both triangles
    rng = np.random.default_rng(seed)
    m = side * side
    if kind == "dense":  # a user factor with no band structure, general or lower triangular
        U, _ = np.linalg.qr(rng.standard_normal((m, m)))
        V, _ = np.linalg.qr(rng.standard_normal((m, m)))
        L = (U * rng.uniform(0.8, 1.6, m)) @ V.T
        if rng.uniform() < 0.5:
            L = np.tril(0.3 * rng.standard_normal((m, m)) / np.sqrt(m), -1) + np.diag(rng.uniform(0.8, 1.6, m))
        prior = PriorSpec(rng.standard_normal(m), L, alpha)
    else:
        prior = make_prior(kind, alpha, m)
    if mask_kind == "grid4":
        mask = pvga.SparsityMask.grid4(side)
    elif mask_kind == "banded":
        mask = pvga.SparsityMask.banded(m, int(rng.choice([1, 3, 5, 2 * side + 1])))
    else:
        k = int(rng.integers(1, 3 * m))
        mask = pvga.SparsityMask(m, rng.integers(0, m, k), rng.integers(0, m, k))
    dense = prior.cov_dense()
    got = prior.cov_entries(mask.rows, mask.cols)
    np.testing.assert_allclose(got, dense[mask.rows, mask.cols], rtol=1e-10, atol=1e-12 * np.abs(dense).max())
    upper, idx = mask.mirror()
    np.testing.assert_array_equal(got, got[upper][idx])  # exactly symmetric
    # a request past the cached band widens it
    far = np.array([m - 1, 0])
    np.testing.assert_allclose(prior.cov_entries(far, far[::-1]), dense[far, far[::-1]],
                               rtol=1e-10, atol=1e-12 * np.abs(dense).max())
    # the prior trace over mask values equals the dense trace of the zero-filled matrix
    C = np.zeros((m, m))
    C[mask.rows, mask.cols] = got
    assert prior.trace_base_masked(mask, got) == pytest.approx(prior.trace_base(C), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("sparse", [False, True])
def test_singular_precision_factor_is_invalid_data(sparse):
    L = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 1.0, 1.0]])
    prior = PriorSpec(np.zeros(3), scipy.sparse.csr_matrix(L) if sparse else L, 1.0)
    with pytest.raises(InvalidData):
        prior.logdet_prec()
    with pytest.raises(InvalidData):
        prior.cov_apply(np.ones(3))
    # mask entries: the banded Cholesky of L^t L, and a triangular L used as is
    with pytest.raises(InvalidData):
        prior.cov_entries(np.arange(3), np.arange(3))
    tri = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    prior = PriorSpec(np.zeros(3), scipy.sparse.csr_matrix(tri) if sparse else tri, 1.0)
    with pytest.raises(InvalidData):
        prior.cov_entries(np.arange(3), np.arange(3))


def test_builtin_difference_priors_have_sparse_banded_factors():
    for kind, m in (("H1", 9), ("H1_2D", 16)):
        L = make_prior(kind, 1.0, m).L
        assert scipy.sparse.issparse(L)
        assert np.all(np.diff(L.tocsr().indptr) <= 3)
    L2 = make_prior("L2", 1.0, 4).L
    assert scipy.sparse.issparse(L2) and L2.nnz == 4
    np.testing.assert_array_equal(L2.toarray(), np.eye(4))
