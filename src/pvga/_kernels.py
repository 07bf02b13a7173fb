"""Hot numerical kernels, in numpy and scipy.

The expensive inner loops of the package live here: row-wise quadratic forms
a_i^t C a_i (the per-row diagonal of A C A^t), masked low-rank entry
materialization, and the sequential Metropolis accept/reject scan.  The
solver looks each kernel up on this module, so the names are stable.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

__all__ = [
    "BACKEND",
    "rowwise_quad_full",
    "rowwise_quad_masked",
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


def lowrank_masked_dots(WM, W, rows, cols) -> np.ndarray:
    """Entries (WM W^t)[rows[p], cols[p]] of a low-rank product, per pair."""
    nnz = rows.size
    r = WM.shape[1]
    out = np.empty(nnz)
    step = max(1, _CHUNK_ELEMS // max(r, 1))
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
