"""Dense SPD helpers, PCG, randomized SVD, and the Woodbury update."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pvga import (
    ForwardOperator,
    LowRankFactor,
    PriorSpec,
    SparsityMask,
    cholesky,
    logdet,
    make_prior,
    make_test_problem,
    pcg_solve,
    rsvd,
    woodbury_basis,
    woodbury_cov,
)
from pvga.errors import (
    BreakdownError,
    InvalidData,
    NotPositiveDefinite,
    RankTooLarge,
    SingularInnerSystem,
)
from pvga import linalg
from pvga.linalg import lower_inverse, spd_inverse, spd_rcond, spd_solve, symmetrize

from conftest import prior_from_cov, random_spd


# -- cholesky / logdet -------------------------------------------------------


def test_cholesky_identity():
    np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))


def test_cholesky_2x2_hand_value():
    L = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], rtol=1e-15)
    np.testing.assert_allclose(L @ L.T, [[4.0, 2.0], [2.0, 3.0]], rtol=1e-15)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1


def test_cholesky_reconstructs_random_spd(rng):
    for _ in range(10):
        M = random_spd(rng, int(rng.integers(2, 12)))
        L = cholesky(M)
        np.testing.assert_allclose(L @ L.T, M, rtol=1e-10)


def test_logdet_values():
    assert logdet(cholesky(np.eye(4))) == 0.0
    np.testing.assert_allclose(logdet(cholesky(np.diag([2.0, 8.0]))), np.log(16.0), rtol=1e-14)
    np.testing.assert_allclose(logdet(cholesky(2.0 * np.eye(2))), 2.0 * np.log(2.0), rtol=1e-14)


def test_logdet_matches_eigenvalue_sum(rng):
    for _ in range(8):
        M = random_spd(rng, 7)
        np.testing.assert_allclose(logdet(cholesky(M)), np.sum(np.log(np.linalg.eigvalsh(M))), rtol=1e-8)


def test_spd_solve_and_inverse_and_rcond(rng):
    M = random_spd(rng, 6)
    B = rng.standard_normal((6, 3))
    L = cholesky(M)
    np.testing.assert_allclose(spd_solve(L, B), np.linalg.solve(M, B), rtol=1e-9)
    np.testing.assert_allclose(spd_inverse(L), np.linalg.inv(M), rtol=1e-9, atol=1e-12)
    w = np.linalg.eigvalsh(M)
    est = spd_rcond(M, L)
    true = w[0] / w[-1]
    assert est == pytest.approx(true, rel=50.0)  # rcond is an order-of-magnitude estimate


def test_spd_rcond_is_the_one_norm_reciprocal_condition():
    # ||M||_1 = 5 and ||M^{-1}||_1 = 5/11, so rcond = 11/25; the 2-norm ratio is 0.5158.
    M = np.array([[4.0, 1.0], [1.0, 3.0]])
    assert spd_rcond(M, cholesky(M)) == pytest.approx(1.0 / np.linalg.cond(M, 1), abs=1e-12)
    assert spd_rcond(M, cholesky(M)) == pytest.approx(0.44, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 30), log_cond=st.floats(0.0, 10.0), log_scale=st.floats(-6.0, 6.0),
       seed=st.integers(0, 2**32 - 1))
def test_numpy_spd_helpers_match_a_cho_solve_reference(m, log_cond, log_scale, seed):
    # the inverse and the solves on numpy's runtime agree with LAPACK's
    # potrs on the same factor to within the drawn condition number times
    # the unit roundoff, and the inverse is exactly symmetric
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    M = symmetrize((Q * np.geomspace(1.0, 10.0**-log_cond, m)) @ Q.T) * 10.0**log_scale
    L = cholesky(M)
    tol = 10.0 * m * np.linalg.cond(M) * np.finfo(float).eps
    inv = spd_inverse(L)
    np.testing.assert_array_equal(inv, inv.T)
    ref = scipy.linalg.cho_solve((L, True), np.eye(m))
    assert np.linalg.norm(inv - ref) <= tol * np.linalg.norm(ref)
    for B in (rng.standard_normal(m), rng.standard_normal((m, 3))):
        ref = scipy.linalg.cho_solve((L, True), B)
        assert np.linalg.norm(spd_solve(L, B) - ref) <= tol * np.linalg.norm(ref)


@pytest.mark.parametrize("m", [1, 5, 32, 33, 100, 257])
def test_lower_inverse_is_lower_triangular_at_every_split(m):
    rng = np.random.default_rng(m)
    L = np.tril(rng.standard_normal((m, m)), -1) + np.diag(rng.uniform(1.0, 2.0, m))
    X = lower_inverse(L)
    np.testing.assert_array_equal(np.triu(X, 1), 0.0)
    assert np.abs(X @ L - np.eye(m)).max() <= 1e-12 * np.abs(X).max() * np.abs(L).max() * m


# -- pcg ---------------------------------------------------------------------


def test_pcg_identity_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    res = pcg_solve(lambda v: v, b, tol=1e-12)
    assert res.converged and res.iterations == 1
    np.testing.assert_allclose(res.x, b, rtol=1e-12)


def test_pcg_diagonal_hand_value():
    res = pcg_solve(lambda v: np.array([1.0, 10.0]) * v, np.array([1.0, 1.0]), tol=1e-12, maxit=50)
    np.testing.assert_allclose(res.x, [1.0, 0.1], rtol=1e-10)


def test_pcg_negative_definite_operator_breaks_down():
    with pytest.raises(BreakdownError):
        pcg_solve(lambda v: -v, np.array([1.0, 2.0, -1.0]))


def test_pcg_maxit_zero_returns_initial_guess():
    b = np.ones(4)
    res = pcg_solve(lambda v: 2.0 * v, b, maxit=0)
    assert not res.converged
    np.testing.assert_array_equal(res.x, np.zeros(4))


def test_pcg_solves_right_hand_sides_whose_norm_overflows_or_underflows():
    # ||b||^2 overflows above ~1e154 and underflows below ~1e-154; the
    # solve must still take its step rather than report x = 0 as converged
    for scale in (1e160, 1e300, 1e-170, 1e-310):
        res = pcg_solve(lambda v: 2.0 * v, np.array([scale, scale]))
        assert res.converged and res.iterations == 1
        np.testing.assert_allclose(res.x, [scale / 2.0, scale / 2.0], rtol=1e-14)


def test_pcg_reaches_tight_tol_within_m_iterations(rng):
    # CG terminates in at most m steps in exact arithmetic.  The floating
    # point analogue holds for spectra with a few clusters (convergence in
    # ~#clusters steps); a continuous log-uniform spectrum at this condition
    # genuinely needs more than m iterations in float64, so that is not what
    # we assert.
    for _ in range(6):
        m = int(rng.integers(5, 51))
        k = int(rng.integers(2, min(9, m + 1)))
        distinct = np.exp(rng.uniform(0, np.log(1e4), k))  # condition <= 1e4
        distinct /= distinct.min()
        lam = rng.choice(distinct, size=m)
        lam[:k] = distinct
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        M = (Q * lam) @ Q.T
        b = rng.standard_normal(m)
        res = pcg_solve(lambda v: M @ v, b, tol=1e-10, maxit=m)
        assert res.converged, f"cond={lam.max():.2e} m={m}"
        assert res.iterations <= m
        np.testing.assert_allclose(M @ res.x, b, rtol=1e-7, atol=1e-9)


def test_pcg_preconditioner_accelerates(rng):
    m = 30
    lam = np.linspace(1.0, 1e4, m)
    M = np.diag(lam)
    b = rng.standard_normal(m)
    plain = pcg_solve(lambda v: M @ v, b, tol=1e-10, maxit=m)
    precond = pcg_solve(lambda v: M @ v, b, precond=lambda v: v / lam, tol=1e-10, maxit=m)
    assert precond.iterations < plain.iterations


# -- rsvd --------------------------------------------------------------------


def test_rsvd_recovers_exact_rank(rng):
    U = np.linalg.qr(rng.standard_normal((20, 2)))[0]
    V = np.linalg.qr(rng.standard_normal((15, 2)))[0]
    A = U @ np.diag([3.0, 1.5]) @ V.T
    F = rsvd(ForwardOperator.from_dense(A), 2, seed=1)
    np.testing.assert_allclose(F.U @ np.diag(F.S) @ F.V.T, A, atol=1e-8)


def test_rsvd_padded_diagonal_singular_values(rng):
    A = np.zeros((6, 5))
    A[:3, :3] = np.diag([3.0, 2.0, 1.0])
    F = rsvd(ForwardOperator.from_dense(A), 2, seed=0)
    np.testing.assert_allclose(F.S, [3.0, 2.0], rtol=1e-10)


def test_rsvd_deterministic_per_seed(rng):
    A = ForwardOperator.from_dense(rng.standard_normal((12, 9)))
    F1 = rsvd(A, 4, seed=7)
    F2 = rsvd(A, 4, seed=7)
    np.testing.assert_array_equal(F1.U, F2.U)
    np.testing.assert_array_equal(F1.S, F2.S)
    np.testing.assert_array_equal(F1.V, F2.V)


def test_rsvd_singular_values_nonincreasing(rng):
    A = ForwardOperator.from_dense(rng.standard_normal((25, 18)))
    F = rsvd(A, 10, seed=3)
    assert np.all(np.diff(F.S) <= 1e-12)


def test_rsvd_rank_bounds(rng):
    A = ForwardOperator.from_dense(rng.standard_normal((5, 4)))
    with pytest.raises(RankTooLarge):
        rsvd(A, 0)
    with pytest.raises(RankTooLarge):
        rsvd(A, 5)


def rsvd_qr_reference(A, r, oversample, power_iters, seed):
    """The Householder-QR range finder: the same test matrix and power
    iterations as rsvd, every block re-orthonormalized by QR.  Returns the
    top r singular values and the rank-r approximant."""
    n, m = A.shape
    k = min(r + oversample, min(m, n))
    Q = np.linalg.qr(A @ np.random.default_rng(seed).standard_normal((m, k)))[0]
    for _ in range(power_iters):
        Q = np.linalg.qr(A @ np.linalg.qr(A.T @ Q)[0])[0]
    W, s, Vt = np.linalg.svd(Q.T @ A, full_matrices=False)
    return s[:r], ((Q @ W)[:, :r] * s[:r]) @ Vt[:r]


def assert_orthonormal_columns(X, tol=1e-12):
    assert np.abs(X.T @ X - np.eye(X.shape[1])).max() <= tol


class _CachedProducts:
    """An operator whose products are arrays it keeps and checks later."""

    def __init__(self, A):
        self.A, self.shape, self.kept = A, A.shape, []

    def _keep(self, Y):
        self.kept.append((Y, Y.copy()))
        return Y

    def matmat(self, X):
        return self._keep(self.A @ X)

    def rmatmat(self, X):
        return self._keep(np.asfortranarray(self.A.T @ X))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 30),
    m=st.integers(2, 30),
    rank_frac=st.floats(0.0, 1.0),
    oversample=st.sampled_from([0, 3, 10, 40]),
    power_iters=st.integers(0, 3),
    gap=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rsvd_contract(n, m, rank_frac, oversample, power_iters, gap, seed):
    # exact at rank >= the true rank (r = min(m, n) and oversampling clipped
    # to it included), with orthonormal U and V; with a spectral gap after
    # r, the Cholesky-QR normalized iterations give the QR range finder's
    # rank-r approximant; neither the input nor an operator's returned
    # products are written
    rng = np.random.default_rng(seed)
    p = min(m, n)
    t = 1 + int(rank_frac * (p - 1))  # true rank, or the number of dominant values
    U = np.linalg.qr(rng.standard_normal((n, p)))[0]
    V = np.linalg.qr(rng.standard_normal((m, p)))[0]
    s = np.zeros(p)
    s[:t] = np.sort(rng.uniform(1.0, 4.0, t))[::-1]
    if gap and t < p:
        s[t:] = np.sort(rng.uniform(0.0, 1e-2, p - t))[::-1]
    A = (U * s) @ V.T
    A_before = A.copy()
    r = t if gap else int(rng.integers(t, p + 1))
    F = rsvd(ForwardOperator.from_dense(A), r, oversample=oversample, power_iters=power_iters, seed=seed)
    np.testing.assert_array_equal(A, A_before)
    assert F.U.shape == (n, r) and F.V.shape == (m, r)
    assert_orthonormal_columns(F.U)
    assert_orthonormal_columns(F.V)
    approx = F.dense()
    scale = np.linalg.norm(A)
    if not gap or t == p:
        assert np.linalg.norm(approx - A) <= 1e-10 * scale
    _, ref = rsvd_qr_reference(A, r, oversample, power_iters, seed)
    assert np.linalg.norm(approx - ref) <= 1e-12 * scale
    op = _CachedProducts(A)
    G = rsvd(op, r, oversample=oversample, power_iters=power_iters, seed=seed)
    assert len(op.kept) == 2 + 2 * power_iters
    for Y, snapshot in op.kept:
        np.testing.assert_array_equal(Y, snapshot)
    np.testing.assert_array_equal(G.S, F.S)


def _spectrum_array(rng, n, m, s):
    p = s.size
    U = np.linalg.qr(rng.standard_normal((n, p)))[0]
    V = np.linalg.qr(rng.standard_normal((m, p)))[0]
    return (U * s) @ V.T


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "case", ["zero", "rank 3 at r = 8", "geometric 1 to 1e-20", "entries near 1e160", "entries near 1e-160"]
)
def test_rsvd_blocks_cholesky_qr_cannot_orthonormalize_take_householder_qr(rng, monkeypatch, case):
    # the zero operator, an exact rank-3 array factored at rank 8, a
    # spectrum spanning 20 decades (condition beyond 1/u), and arrays whose
    # Gram matrices overflow or underflow: Cholesky QR cannot orthonormalize
    # their blocks, so rsvd takes its Householder fallback, without a
    # floating-point warning, and the factor is still the QR range finder's
    # with orthonormal U and V
    n, m = 30, 25
    A, r = {
        "zero": lambda: (np.zeros((n, m)), 5),
        "rank 3 at r = 8": lambda: (_spectrum_array(rng, n, m, rng.uniform(1.0, 4.0, 3)), 8),
        "geometric 1 to 1e-20": lambda: (_spectrum_array(rng, n, m, np.geomspace(1.0, 1e-20, 20)), 10),
        "entries near 1e160": lambda: (1e160 * rng.standard_normal((n, m)), 5),
        "entries near 1e-160": lambda: (1e-160 * rng.standard_normal((n, m)), 5),
    }[case]()
    householder, real_qr = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda Y: householder.append(Y.shape) or real_qr(Y))
    F = rsvd(ForwardOperator.from_dense(A), r, seed=4)
    monkeypatch.undo()
    assert householder
    assert_orthonormal_columns(F.U)
    assert_orthonormal_columns(F.V)
    s, ref = rsvd_qr_reference(A, r, 10, 2, 4)
    c = np.abs(A).max() or 1.0  # norms in units of c, where they stay finite
    scale = np.linalg.norm(A / c)
    assert np.linalg.norm((F.dense() - ref) / c) <= 1e-12 * scale
    assert np.abs(F.S - s).max() / c <= 1e-12 * scale
    if case == "zero":
        np.testing.assert_array_equal(F.S, 0.0)


def test_rsvd_of_the_blur_runs_on_gemms_and_numpy_alone(monkeypatch):
    # the deblur benchmark's factor (blur2d 40², rank 300, seed 0) with
    # scipy's LU, QR and SVD and the Householder fallback refused: singular
    # values and the rank-300 approximant within 1e-12 of the QR range finder
    A, _ = make_test_problem("blur2d", 40)

    def refuse(*args, **kwargs):
        raise AssertionError("rsvd called a LAPACK factorization of a tall block")

    for name in ("lu", "qr", "svd"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    F = rsvd(A, 300, seed=0)
    monkeypatch.undo()
    Ad = A.dense()
    s, ref = rsvd_qr_reference(Ad, 300, 10, 2, 0)
    assert np.abs(F.S - s).max() <= 1e-12 * s[0]
    assert np.linalg.norm(F.dense() - ref) <= 1e-12 * np.linalg.norm(ref)


# -- woodbury ----------------------------------------------------------------


def full_rank_factor(A):
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return LowRankFactor(U, s, Vt.T)


def woodbury_at(prior, A, d, mask=None):
    """The Woodbury update for the full-rank factor of the array A, and its
    inner log-determinant."""
    return woodbury_cov(prior, woodbury_basis(prior, full_rank_factor(A)), d, mask=mask)[:2]


def test_woodbury_scalar_hand_value():
    C, _ = woodbury_at(prior_from_cov([[1.0]]), np.array([[1.0]]), np.array([np.exp(0.5)]))
    np.testing.assert_allclose(C, [[1.0 / (1.0 + np.exp(0.5))]], rtol=1e-14)


def test_woodbury_vanishing_data_limit(rng):
    C0 = random_spd(rng, 5)
    A = rng.standard_normal((6, 5))
    C, _ = woodbury_at(prior_from_cov(C0), A, np.full(6, 1e-14))
    np.testing.assert_allclose(C, C0, rtol=1e-10)


def test_woodbury_matches_direct_inverse(rng):
    for _ in range(6):
        m, n = int(rng.integers(3, 41)), int(rng.integers(3, 41))
        C0 = random_spd(rng, m)
        A = rng.standard_normal((n, m))
        d = np.exp(rng.uniform(-1, 1, n))
        C, _ = woodbury_at(prior_from_cov(C0), A, d)
        direct = np.linalg.inv(np.linalg.inv(C0) + A.T @ (d[:, None] * A))
        np.testing.assert_allclose(C, direct, rtol=1e-8, atol=1e-12)


def test_woodbury_rejects_nonpositive_weights(rng):
    A = rng.standard_normal((4, 3))
    with pytest.raises(InvalidData):
        woodbury_at(prior_from_cov(np.eye(3)), A, np.array([1.0, 0.0, 1.0, 1.0]))


def test_woodbury_singular_inner_system():
    # identity prior, so G = R = I; weights 1e20 and 1 give the inner system
    # I + K = diag(1 + 1e20, 2), far past the reciprocal-condition guard
    prior = PriorSpec(np.zeros(4), None, 1.0)
    F = LowRankFactor(np.eye(4)[:, :2], np.ones(2), np.eye(4)[:, :2])
    with pytest.raises(SingularInnerSystem):
        woodbury_cov(prior, woodbury_basis(prior, F), np.array([1e20, 1.0, 1.0, 1.0]))
    # a factor whose V has a zero column makes G = V^t C0 V singular
    F = LowRankFactor(np.eye(4)[:, :2], np.ones(2), np.eye(4)[:, [0, 0]] * [1.0, 0.0])
    with pytest.raises(SingularInnerSystem):
        woodbury_basis(prior, F)


@pytest.mark.parametrize("w, trips", [(9.9e13, False), (1.01e14, True)])
def test_woodbury_guard_is_the_one_norm_of_the_inner_system(w, trips):
    # identity prior, so G = R = I and the inner system is diag(1 + w, 2):
    # its 1-norm 1 + w bounds the 2-norm condition number, refused above 1e14
    prior = PriorSpec(np.zeros(4), None, 1.0)
    F = LowRankFactor(np.eye(4)[:, :2], np.ones(2), np.eye(4)[:, :2])
    d = np.array([w, 1.0, 1.0, 1.0])
    if trips:
        with pytest.raises(SingularInnerSystem, match="1.010e\\+14"):
            woodbury_cov(prior, woodbury_basis(prior, F), d)
    else:
        C, inner_logdet, _ = woodbury_cov(prior, woodbury_basis(prior, F), d)
        assert inner_logdet == pytest.approx(np.log((1.0 + w) * 2.0), rel=1e-14)
        assert C[0, 0] == pytest.approx(1.0 / (1.0 + w), rel=1e-12)


def test_woodbury_masked_entries_match_dense_path(rng):
    m, n = 12, 10
    prior = prior_from_cov(random_spd(rng, m))
    A = rng.standard_normal((n, m))
    d = np.exp(rng.uniform(-1, 1, n))
    dense, _ = woodbury_at(prior, A, d)
    mask = SparsityMask.banded(m, 3)
    masked, _ = woodbury_at(prior, A, d, mask=mask)
    # masking selects entries, it does not approximate them; the values are
    # aligned with the mask's coordinates, both triangles included
    assert masked.shape == (mask.nnz,)
    np.testing.assert_allclose(
        masked, symmetrize(dense)[mask.rows, mask.cols], rtol=1e-12, atol=1e-15
    )


def test_woodbury_inner_logdet_matches_dense_slogdet(rng):
    m, n = 9, 7
    C0 = random_spd(rng, m)
    A = rng.standard_normal((n, m))
    d = np.exp(rng.uniform(-1, 1, n))
    C, inner_logdet = woodbury_at(prior_from_cov(C0), A, d)
    # ln|C| = ln|C0| - ln det(I + K G)
    expect = np.linalg.slogdet(C)[1]
    got = np.linalg.slogdet(C0)[1] - inner_logdet
    np.testing.assert_allclose(got, expect, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["dense", "H1"]),
    m=st.integers(2, 8),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_woodbury_contract(kind, m, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        C0d = random_spd(rng, m)
        prior = prior_from_cov(C0d)
    else:
        prior = make_prior("H1", float(rng.uniform(0.2, 5.0)), m)
        C0d = prior.cov_dense()
    A = rng.standard_normal((n, m))
    d = np.exp(rng.uniform(-1, 1, n))
    F = full_rank_factor(A)
    basis = woodbury_basis(prior, F)
    C, inner_logdet, M = woodbury_cov(prior, basis, d)

    # at full rank the update is the exact posterior-precision inverse
    direct = np.linalg.inv(np.linalg.inv(C0d) + A.T @ (d[:, None] * A))
    scale = np.abs(direct).max()
    np.testing.assert_allclose(C, direct, rtol=1e-8, atol=1e-10 * scale)
    # the returned inner matrix M gives the same update as C0 - W M W^t
    np.testing.assert_allclose(C0d - basis.W @ M @ basis.W.T, C, rtol=1e-10, atol=1e-12 * scale)

    # the inner log-determinant is ln det(I + K G), formed densely here
    K = (F.S[:, None] * (F.U.T @ (d[:, None] * F.U))) * F.S[None, :]
    G = F.V.T @ C0d @ F.V
    expect = np.linalg.slogdet(np.eye(F.rank) + K @ G)[1]
    assert inner_logdet == pytest.approx(expect, rel=1e-9, abs=1e-9)

    # each masked entry, in both triangles, is the unmasked update's entry
    mask = SparsityMask(m, rng.integers(0, m, 2 * m), rng.integers(0, m, 2 * m))
    masked, masked_logdet, _ = woodbury_cov(prior, basis, d, mask=mask)
    assert masked_logdet == inner_logdet  # the mask selects entries only
    assert masked.shape == (mask.nnz,)
    np.testing.assert_allclose(masked, C[mask.rows, mask.cols], rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 30),
    n=st.integers(1, 30),
    r=st.integers(1, 6),
    rows_per_block=st.integers(1, 4),
    extra=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_blocked_woodbury_sums_equal_the_unblocked_formulas(m, n, r, rows_per_block, extra, seed):
    # with the element budget forced down to a few rows per block, the blocks
    # split the diagonal bands and the gathered pairs of a banded-3 mask with
    # random pairs added; K = S U^t D U S and the masked entries of W M W^t
    # still equal the formulas on whole arrays, to 1e-12 of their terms, and
    # so does the masked Woodbury step built from a factor at that budget
    rng = np.random.default_rng(seed)
    r = min(r, m, n)
    U = np.linalg.qr(rng.standard_normal((n, r)))[0]
    V = np.linalg.qr(rng.standard_normal((m, r)))[0]
    s = np.sort(rng.uniform(0.1, 2.0, r))[::-1]
    d = np.exp(rng.uniform(-1, 1, n))
    W = rng.standard_normal((m, r))
    M = symmetrize(rng.standard_normal((r, r)))
    band = SparsityMask.banded(m, 3)
    pairs = rng.integers(0, m, (2, extra))
    mask = SparsityMask(m, np.concatenate([band.rows, pairs[0]]), np.concatenate([band.cols, pairs[1]]))
    upper, _ = mask.mirror()
    rows, cols = mask.rows[upper], mask.cols[upper]
    prior = make_prior("H1", float(rng.uniform(0.2, 5.0)), m)
    unblocked = woodbury_cov(prior, woodbury_basis(prior, LowRankFactor(U, s, V)), d, mask=mask)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_BLOCK_ELEMS", rows_per_block * r)
        K = linalg._weighted_gram(U, s, d)
        entries = linalg._masked_lowrank_entries(W, M, rows, cols, mask.diagonal_offsets())
        blocked = woodbury_cov(prior, woodbury_basis(prior, LowRankFactor(U, s, V)), d, mask=mask)
    K_terms = (s[:, None] * (np.abs(U).T @ (d[:, None] * np.abs(U)))) * s[None, :]
    K_ref = symmetrize((s[:, None] * (U.T @ (d[:, None] * U))) * s[None, :])
    assert np.all(np.abs(K - K_ref) <= 1e-12 * K_terms)
    terms = np.einsum("pr,pr->p", (np.abs(W) @ np.abs(M))[rows], np.abs(W)[cols])
    ref = np.einsum("pr,pr->p", (W @ M)[rows], W[cols])
    assert np.all(np.abs(entries - ref) <= 1e-12 * terms)
    scale = np.abs(unblocked[0]).max()
    np.testing.assert_allclose(blocked[0], unblocked[0], rtol=1e-12, atol=1e-12 * scale)
    assert blocked[1] == pytest.approx(unblocked[1], rel=1e-12, abs=1e-12)


# -- masks -------------------------------------------------------------------


def pair_set(mask):
    return set(zip(mask.rows.tolist(), mask.cols.tolist()))


def test_banded_mask_shape():
    mask = SparsityMask.banded(5, 1)
    P = pair_set(mask)
    assert len(P) == 5  # diagonal only at s=1
    mask3 = SparsityMask.banded(5, 3)
    P3 = pair_set(mask3)
    assert len(P3) == 5 + 2 * 4
    assert P3 == {(j, i) for i, j in P3}
    # an even s would leave one of its entries per row out
    with pytest.raises(InvalidData, match="odd"):
        SparsityMask.banded(5, 4)


def test_grid4_mask_neighbors():
    side = 3
    mask = SparsityMask.grid4(side)
    P = pair_set(mask)
    assert P == {(j, i) for i, j in P}
    assert {(4, 1), (4, 3), (4, 5), (4, 7), (4, 4)} <= P  # center touches 4 neighbors
    assert (0, 8) not in P and (0, 4) not in P  # no diagonal adjacency


def test_mask_coordinates_are_deduplicated_symmetric_and_row_major():
    # unsorted input, a repeated pair, a pair given both ways, one-sided pairs;
    # the row-major order fixes the row order of masked covariance output
    mask = SparsityMask(4, [3, 0, 2, 0, 1, 2], [1, 2, 0, 2, 1, 3])
    np.testing.assert_array_equal(mask.rows, [0, 0, 1, 1, 2, 2, 2, 3, 3, 3])
    np.testing.assert_array_equal(mask.cols, [0, 2, 1, 3, 0, 2, 3, 1, 2, 3])
    assert mask.rows.dtype == mask.cols.dtype == np.int64


def test_mask_refuses_fractional_indices_and_dim():
    # int64 conversion would keep the pair (0, 1) of (0.5, 1.7)
    with pytest.raises(InvalidData, match="integers"):
        SparsityMask(4, [0.5], [1.7])
    with pytest.raises(InvalidData, match="integers"):
        SparsityMask(4, [np.nan], [1])
    with pytest.raises(InvalidData, match="dim"):
        SparsityMask(4.0, [0], [1])
    with pytest.raises(InvalidData, match="dim"):
        SparsityMask(True, [0], [0])
    with pytest.raises(InvalidData, match="dim"):
        SparsityMask(-3, [], [])
    # integral values of any numeric type, and no pairs at all, still work
    assert SparsityMask(4, [0.0], [1.0]).nnz == SparsityMask(4, [0], [1]).nnz == 6
    empty = SparsityMask(4, [], [])
    np.testing.assert_array_equal(empty.rows, np.arange(4))
    assert empty.rows.dtype == np.int64


def test_mask_coordinates_match_sorted_pair_set(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 15))
        rows = rng.integers(0, dim, 30)
        cols = rng.integers(0, dim, 30)
        pairs = set(zip(rows.tolist(), cols.tolist()))
        pairs |= {(j, i) for i, j in pairs} | {(i, i) for i in range(dim)}
        mask = SparsityMask(dim, rows, cols)
        assert list(zip(mask.rows.tolist(), mask.cols.tolist())) == sorted(pairs)
