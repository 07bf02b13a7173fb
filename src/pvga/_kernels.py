"""Hot numerical kernels, in numpy and scipy.

The expensive inner loops of the package live here: row-wise quadratic forms
a_i^t C a_i (the per-row diagonal of A C A^t, also for a Kronecker A = T (x) T
and a masked C), masked low-rank entry materialization, and the sequential
Metropolis accept/reject scan.  The solver looks each kernel up on this
module, so the names are stable.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

__all__ = [
    "BACKEND",
    "rowwise_quad_full",
    "rowwise_quad_masked",
    "rowwise_quad_kron_masked",
    "lowrank_masked_dots",
    "mh_scan",
]

BACKEND = "numpy"

# Cap on the size of the gather temporaries (nnz * rank entries) in
# lowrank_masked_dots; larger workloads are processed in chunks.
_CHUNK_ELEMS = 2**24


def rowwise_quad_full(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """diag(A C A^t) for dense C, i.e. out[i] = a_i^t C a_i."""
    return np.einsum("ij,ij->i", A @ C, A)


def rowwise_quad_masked(A, rows, cols, vals) -> np.ndarray:
    """diag(A C A^t) where C is given by coordinate entries.

    out[i] = sum_p A[i, rows[p]] * vals[p] * A[i, cols[p]]; repeated
    (row, col) pairs add up.
    """
    m = A.shape[1]
    C = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(m, m))
    return np.einsum("ij,ji->i", A, C @ A.T)


def rowwise_quad_kron_masked(T, offsets, vals) -> np.ndarray:
    """diag(A C A^t) for A = T (x) T (row-major side x side images) and C
    given by coordinate entries grouped by grid offset.

    ``offsets`` holds one (d1, d2, p, r1, r2) per offset, as from
    ``SparsityMask.grid_offsets``: the entries vals[p] couple pixel (r1, r2)
    with (r1 + d1, r2 + d2).  With P_d[i, r] = T[i, r] T[i, r + d] (zero where
    r + d leaves the grid) and V_d the entries laid out on the grid,

        q = sum_d P_d1 V_d P_d2^t,

    two side x side products per offset instead of a pass over a dense A.
    """
    side = T.shape[0]
    shifted = {}
    for d1, d2, _, _, _ in offsets:
        for d in (d1, d2):
            if d not in shifted:
                P = np.zeros_like(T)
                lo, hi = max(0, -d), min(side, side - d)
                P[:, lo:hi] = T[:, lo:hi] * T[:, lo + d : hi + d]
                shifted[d] = P
    q = np.zeros((side, side))
    V = np.zeros((side, side))
    for d1, d2, p, r1, r2 in offsets:
        V[r1, r2] = vals[p]
        q += shifted[d1] @ V @ shifted[d2].T
        V[r1, r2] = 0.0
    return q.ravel()


def lowrank_masked_dots(WM, W, rows, cols, offsets=None) -> np.ndarray:
    """Entries (WM W^t)[rows[p], cols[p]] of a low-rank product, per pair.

    ``offsets`` = (bands, rest), as from ``SparsityMask.diagonal_offsets``
    for the mask's upper pairs, groups the pairs by diagonal offset.  A band
    (d, p) takes its dots row by row on the contiguous slices WM[lo:hi] and
    W[lo + d:hi + d] over its row span and reads them at its rows; the pairs
    at ``rest`` (all pairs when ``offsets`` is None) are gathered.  Each entry
    is the same row dot either way, so the values do not depend on the
    grouping.
    """
    bands, rest = ([], slice(None)) if offsets is None else offsets
    out = np.empty(rows.size)
    for d, p in bands:
        i = rows[p]
        lo, hi = i[0], i[-1] + 1
        out[p] = np.einsum("ir,ir->i", WM[lo:hi], W[lo + d : hi + d])[i - lo]
    out[rest] = _gathered_dots(WM, W, rows[rest], cols[rest])
    return out


def _gathered_dots(WM, W, rows, cols) -> np.ndarray:
    nnz = rows.size
    out = np.empty(nnz)
    step = max(1, _CHUNK_ELEMS // max(WM.shape[1], 1))
    for lo in range(0, nnz, step):
        hi = min(nnz, lo + step)
        out[lo:hi] = np.einsum("pr,pr->p", WM[rows[lo:hi]], W[cols[lo:hi]])
    return out


def mh_scan(log_w, log_u, log_w0):
    """Sequential independence-sampler scan over precomputed log weights.

    log_w[k] is the log importance weight (log target - log proposal) of the
    k-th proposal, log_w0 that of the initial state, and log_u[k] the log of
    the k-th acceptance uniform.  Returns the index of the proposal occupying
    the chain at each step (-1 while still at the initial state) and the
    number of accepted moves.
    """
    K = log_w.size
    idx = np.empty(K, np.int64)
    cur = -1
    cur_w = log_w0
    n_acc = 0
    for k in range(K):
        if log_u[k] < log_w[k] - cur_w:
            cur = k
            cur_w = log_w[k]
            n_acc += 1
        idx[k] = cur
    return idx, n_acc
