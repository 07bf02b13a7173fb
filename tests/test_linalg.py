"""Dense SPD helpers, PCG, randomized SVD, and the Woodbury update."""

import numpy as np
import pytest

from pvga import LowRankFactor, SparsityMask, cholesky, logdet, pcg_solve, rsvd, woodbury_cov
from pvga.errors import InvalidData, NotPositiveDefinite, RankTooLarge
from pvga.linalg import spd_inverse, spd_rcond, spd_solve, symmetrize

from conftest import random_spd


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
    assert logdet(np.eye(4)) == 0.0
    np.testing.assert_allclose(logdet(np.diag([2.0, 8.0])), np.log(16.0), rtol=1e-14)
    np.testing.assert_allclose(logdet(2.0 * np.eye(2)), 2.0 * np.log(2.0), rtol=1e-14)


def test_logdet_matches_eigenvalue_sum(rng):
    for _ in range(8):
        M = random_spd(rng, 7)
        np.testing.assert_allclose(logdet(M), np.sum(np.log(np.linalg.eigvalsh(M))), rtol=1e-8)


def test_spd_solve_and_inverse_and_rcond(rng):
    M = random_spd(rng, 6)
    B = rng.standard_normal((6, 3))
    np.testing.assert_allclose(spd_solve(M, B), np.linalg.solve(M, B), rtol=1e-9)
    np.testing.assert_allclose(spd_inverse(M), np.linalg.inv(M), rtol=1e-9, atol=1e-12)
    w = np.linalg.eigvalsh(M)
    est = spd_rcond(M)
    true = w[0] / w[-1]
    assert est == pytest.approx(true, rel=50.0)  # rcond is an order-of-magnitude estimate


# -- pcg ---------------------------------------------------------------------


def test_pcg_identity_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    res = pcg_solve(lambda v: v, b, tol=1e-12)
    assert res.converged and res.iterations == 1
    np.testing.assert_allclose(res.x, b, rtol=1e-12)


def test_pcg_diagonal_hand_value():
    res = pcg_solve(lambda v: np.array([1.0, 10.0]) * v, np.array([1.0, 1.0]), tol=1e-12, maxit=50)
    np.testing.assert_allclose(res.x, [1.0, 0.1], rtol=1e-10)


def test_pcg_maxit_zero_returns_initial_guess():
    b = np.ones(4)
    res = pcg_solve(lambda v: 2.0 * v, b, maxit=0)
    assert not res.converged
    np.testing.assert_array_equal(res.x, np.zeros(4))


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
    F = rsvd(A, 2, seed=1)
    np.testing.assert_allclose(F.U @ np.diag(F.S) @ F.V.T, A, atol=1e-8)


def test_rsvd_padded_diagonal_singular_values(rng):
    A = np.zeros((6, 5))
    A[:3, :3] = np.diag([3.0, 2.0, 1.0])
    F = rsvd(A, 2, seed=0)
    np.testing.assert_allclose(F.S, [3.0, 2.0], rtol=1e-10)


def test_rsvd_deterministic_per_seed(rng):
    A = rng.standard_normal((12, 9))
    F1 = rsvd(A, 4, seed=7)
    F2 = rsvd(A, 4, seed=7)
    np.testing.assert_array_equal(F1.U, F2.U)
    np.testing.assert_array_equal(F1.S, F2.S)
    np.testing.assert_array_equal(F1.V, F2.V)


def test_rsvd_singular_values_nonincreasing(rng):
    A = rng.standard_normal((25, 18))
    F = rsvd(A, 10, seed=3)
    assert np.all(np.diff(F.S) <= 1e-12)


def test_rsvd_rank_bounds(rng):
    A = rng.standard_normal((5, 4))
    with pytest.raises(RankTooLarge):
        rsvd(A, 0)
    with pytest.raises(RankTooLarge):
        rsvd(A, 5)


# -- woodbury ----------------------------------------------------------------


def full_rank_factor(A):
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return LowRankFactor(U, s, Vt.T)


def test_woodbury_scalar_hand_value():
    F = full_rank_factor(np.array([[1.0]]))
    C = woodbury_cov(np.array([[1.0]]), F, np.array([np.exp(0.5)]))
    np.testing.assert_allclose(C, [[1.0 / (1.0 + np.exp(0.5))]], rtol=1e-14)


def test_woodbury_vanishing_data_limit(rng):
    C0 = random_spd(rng, 5)
    A = rng.standard_normal((6, 5))
    C = woodbury_cov(C0, full_rank_factor(A), np.full(6, 1e-14))
    np.testing.assert_allclose(C, C0, rtol=1e-10)


def test_woodbury_matches_direct_inverse(rng):
    for _ in range(6):
        m, n = int(rng.integers(3, 41)), int(rng.integers(3, 41))
        C0 = random_spd(rng, m)
        A = rng.standard_normal((n, m))
        d = np.exp(rng.uniform(-1, 1, n))
        C = woodbury_cov(C0, full_rank_factor(A), d)
        direct = np.linalg.inv(np.linalg.inv(C0) + A.T @ (d[:, None] * A))
        np.testing.assert_allclose(C, direct, rtol=1e-8, atol=1e-12)


def test_woodbury_rejects_nonpositive_weights(rng):
    C0 = np.eye(3)
    A = rng.standard_normal((4, 3))
    with pytest.raises(InvalidData):
        woodbury_cov(C0, full_rank_factor(A), np.array([1.0, 0.0, 1.0, 1.0]))


def test_woodbury_masked_entries_match_dense_path(rng):
    m, n = 12, 10
    C0 = random_spd(rng, m)
    A = rng.standard_normal((n, m))
    d = np.exp(rng.uniform(-1, 1, n))
    F = full_rank_factor(A)
    dense = woodbury_cov(C0, F, d)
    mask = SparsityMask.banded(m, 2)
    masked = woodbury_cov(C0, F, d, mask=mask)
    sel = mask.dense_bool()
    # masking selects entries, it does not approximate them
    np.testing.assert_allclose(masked[sel], symmetrize(dense)[sel], rtol=1e-12, atol=1e-15)
    assert np.all(masked[~sel] == 0.0)


def test_woodbury_inner_logdet_matches_dense_slogdet(rng):
    m, n = 9, 7
    C0 = random_spd(rng, m)
    A = rng.standard_normal((n, m))
    d = np.exp(rng.uniform(-1, 1, n))
    C, inner_logdet = woodbury_cov(C0, full_rank_factor(A), d, return_inner_logdet=True)
    # ln|C| = ln|C0| - ln det(I + K G)
    expect = np.linalg.slogdet(C)[1]
    got = np.linalg.slogdet(C0)[1] - inner_logdet
    np.testing.assert_allclose(got, expect, rtol=1e-9)


# -- masks -------------------------------------------------------------------


def test_banded_mask_shape():
    mask = SparsityMask.banded(5, 1)
    B = mask.dense_bool()
    assert B.sum() == 5  # diagonal only at s=1
    mask3 = SparsityMask.banded(5, 3)
    assert mask3.dense_bool().sum() == 5 + 2 * 4
    assert np.array_equal(mask3.dense_bool(), mask3.dense_bool().T)


def test_grid4_mask_neighbors():
    side = 3
    mask = SparsityMask.grid4(side)
    B = mask.dense_bool()
    assert np.array_equal(B, B.T)
    assert B[4, 1] and B[4, 3] and B[4, 5] and B[4, 7] and B[4, 4]  # center touches 4 neighbors
    assert not B[0, 8] and not B[0, 4]  # no diagonal adjacency


def test_mask_coordinates_are_deduplicated_symmetric_and_row_major():
    # unsorted input, a repeated pair, a pair given both ways, one-sided pairs;
    # the row-major order fixes the row order of masked covariance output
    mask = SparsityMask(4, [3, 0, 2, 0, 1, 2], [1, 2, 0, 2, 1, 3])
    np.testing.assert_array_equal(mask.rows, [0, 0, 1, 1, 2, 2, 2, 3, 3, 3])
    np.testing.assert_array_equal(mask.cols, [0, 2, 1, 3, 0, 2, 3, 1, 2, 3])
    assert mask.rows.dtype == mask.cols.dtype == np.int64


def test_mask_coordinates_match_sorted_pair_set(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 15))
        rows = rng.integers(0, dim, 30)
        cols = rng.integers(0, dim, 30)
        pairs = set(zip(rows.tolist(), cols.tolist()))
        pairs |= {(j, i) for i, j in pairs} | {(i, i) for i in range(dim)}
        mask = SparsityMask(dim, rows, cols)
        assert list(zip(mask.rows.tolist(), mask.cols.tolist())) == sorted(pairs)


def test_mask_apply_projects(rng):
    M = rng.standard_normal((4, 4))
    mask = SparsityMask.banded(4, 1)
    out = mask.apply(M)
    np.testing.assert_array_equal(np.diag(out), np.diag(M))
    assert np.all(out[~mask.dense_bool()] == 0.0)
