"""The hot kernels against naive references."""

import numpy as np

from pvga import _kernels


def naive_quad_full(A, C):
    return np.array([a @ C @ a for a in A])


def test_rowwise_quad_full_matches_naive(rng):
    A = rng.standard_normal((17, 9))
    M = rng.standard_normal((9, 9))
    C = M @ M.T
    out = _kernels.rowwise_quad_full(A, C)
    np.testing.assert_allclose(out, naive_quad_full(A, C), rtol=1e-12)


def test_rowwise_quad_masked_matches_full_on_full_mask(rng):
    m, n = 8, 13
    A = rng.standard_normal((n, m))
    M = rng.standard_normal((m, m))
    C = M @ M.T
    rows, cols = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    rows, cols = rows.ravel(), cols.ravel()
    vals = C[rows, cols]
    out = _kernels.rowwise_quad_masked(A, rows, cols, vals)
    np.testing.assert_allclose(out, naive_quad_full(A, C), rtol=1e-12)


def test_rowwise_quad_masked_uses_only_given_entries(rng):
    # off-mask entries of C must not contribute; repeated pairs add up
    A = rng.standard_normal((5, 6))
    rows = np.array([0, 1, 2, 1, 2, 3, 1, 3, 1])
    cols = np.array([0, 1, 2, 2, 1, 3, 2, 3, 2])
    vals = rng.standard_normal(rows.size)
    out = _kernels.rowwise_quad_masked(A, rows, cols, vals)
    expect = np.array([sum(a[i] * a[j] * v for i, j, v in zip(rows, cols, vals)) for a in A])
    np.testing.assert_allclose(out, expect, rtol=1e-12)


def test_lowrank_masked_dots_matches_dense_product(rng):
    m, r = 11, 4
    WM = rng.standard_normal((m, r))
    W = rng.standard_normal((m, r))
    rows = rng.integers(0, m, 50)
    cols = rng.integers(0, m, 50)
    out = _kernels.lowrank_masked_dots(WM, W, rows, cols)
    full = WM @ W.T
    np.testing.assert_allclose(out, full[rows, cols], rtol=1e-12)


def mh_scan_reference(log_w, log_u, log_w0):
    idx = np.empty(log_w.size, dtype=np.int64)
    cur, cur_w, acc = -1, log_w0, 0
    for k in range(log_w.size):
        if log_u[k] < log_w[k] - cur_w:
            cur, cur_w = k, log_w[k]
            acc += 1
        idx[k] = cur
    return idx, acc


def test_mh_scan_matches_reference(rng):
    log_w = rng.standard_normal(500)
    log_u = np.log(rng.uniform(size=500))
    idx, acc = _kernels.mh_scan(log_w, log_u, 0.3)
    ref_idx, ref_acc = mh_scan_reference(log_w, log_u, 0.3)
    np.testing.assert_array_equal(idx, ref_idx)
    assert acc == ref_acc


def test_mh_scan_rejects_minus_inf_weights(rng):
    log_w = np.array([-np.inf, 0.5, -np.inf, 0.1])
    log_u = np.log(rng.uniform(size=4))
    idx, acc = _kernels.mh_scan(log_w, log_u, 0.0)
    assert idx[0] == -1  # first proposal impossible, chain stays at the start
    assert -np.inf not in log_w[idx[idx >= 0]]
