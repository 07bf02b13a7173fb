"""The hot kernels against naive references."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pvga import ForwardOperator, SparsityMask, _kernels

from conftest import mh_scan_reference


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


@settings(max_examples=60, deadline=None)
@given(
    side=st.integers(3, 9),
    kind=st.sampled_from(["grid4", "banded", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kron_masked_quad_matches_dense_kernel(side, kind, seed):
    # the blur operator's structure-native masked quadratic form equals the
    # CSR kernel on the dense T (x) T, pair by pair, for any symmetric mask
    rng = np.random.default_rng(seed)
    m = side * side
    A = ForwardOperator.gaussian_blur_2d(side, width=2 * side - 1, variance=float(rng.uniform(0.5, 3.0)))
    if kind == "grid4":
        mask = SparsityMask.grid4(side)
    elif kind == "banded":
        mask = SparsityMask.banded(m, int(rng.choice([1, 3, 5, 2 * side + 1])))
    else:
        k = int(rng.integers(1, 3 * m))
        mask = SparsityMask(m, rng.integers(0, m, k), rng.integers(0, m, k))
    vals = rng.standard_normal(mask.nnz)
    Ad = A.dense()
    expect = _kernels.rowwise_quad_masked(Ad, mask.rows, mask.cols, vals)
    got = _kernels.rowwise_quad_kron_masked(A.kron_factor, mask.grid_offsets(side), vals)
    # round-off is relative to the sum of the absolute terms
    bound = _kernels.rowwise_quad_masked(np.abs(Ad), mask.rows, mask.cols, np.abs(vals))
    assert np.all(np.abs(got - expect) <= 1e-13 * bound)
    np.testing.assert_array_equal(A.masked_quad(mask, vals), got)


def test_lowrank_masked_dots_matches_dense_product(rng):
    m, r = 11, 4
    WM = rng.standard_normal((m, r))
    W = rng.standard_normal((m, r))
    rows = rng.integers(0, m, 50)
    cols = rng.integers(0, m, 50)
    out = _kernels.lowrank_masked_dots(WM, W, rows, cols)
    full = WM @ W.T
    np.testing.assert_allclose(out, full[rows, cols], rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    side=st.integers(3, 9),
    r=st.integers(1, 9),
    kind=st.sampled_from(["grid4", "banded", "random", "mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lowrank_masked_dots_by_diagonal_offset_equal_the_gather(side, r, kind, seed):
    # the dots taken on contiguous slices per diagonal band are the same row
    # dots as the plain gather, so the values are equal, not just close
    rng = np.random.default_rng(seed)
    m = side * side
    if kind == "grid4":
        mask = SparsityMask.grid4(side)
    elif kind == "banded":
        mask = SparsityMask.banded(m, int(rng.choice([1, 3, 5, 2 * side + 1])))
    else:
        k = int(rng.integers(1, 3 * m))
        rows, cols = rng.integers(0, m, k), rng.integers(0, m, k)
        if kind == "mixed":  # grid4 plus random pairs and a sparse offset-2 group
            grid = SparsityMask.grid4(side)
            keep = np.abs(rows - cols) != 2
            rows = np.concatenate([grid.rows, rows[keep], [0, m - 3]])
            cols = np.concatenate([grid.cols, cols[keep], [2, m - 1]])
        mask = SparsityMask(m, rows, cols)
    upper, _ = mask.mirror()
    rows, cols = mask.rows[upper], mask.cols[upper]
    bands, rest = mask.diagonal_offsets()
    covered = np.sort(np.concatenate([p for _, p in bands] + [rest]))
    np.testing.assert_array_equal(covered, np.arange(rows.size))
    for d, p in bands:
        assert np.all(cols[p] - rows[p] == d) and np.all(np.diff(rows[p]) > 0)
    if kind in ("grid4", "banded"):
        assert rest.size == 0
    if kind == "mixed":
        assert {0, 1, side} <= {d for d, _ in bands} and rest.size >= 2
    WM = rng.standard_normal((m, r))
    W = rng.standard_normal((m, r))
    expect = np.einsum("pr,pr->p", WM[rows], W[cols])
    np.testing.assert_array_equal(_kernels.lowrank_masked_dots(WM, W, rows, cols, (bands, rest)), expect)
    np.testing.assert_array_equal(_kernels.lowrank_masked_dots(WM, W, rows, cols), expect)


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
