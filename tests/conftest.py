"""Shared builders for small synthetic problems.

Most tests want a tiny, well-conditioned instance of the whole model: a
random forward map with moderate predictors, counts drawn from the model,
and a full-rank Gaussian prior.  The helpers here keep those instances
small enough that dense oracles (eigendecompositions, quadrature, grid
searches) stay cheap.
"""

import numpy as np
import pytest
import scipy.linalg

from pvga import DenseCov, ForwardOperator, GaussianState, MaskedCov, PoissonData, PriorSpec


def random_operator(rng, n, m, scale=0.6):
    A = scale * rng.standard_normal((n, m)) / np.sqrt(m)
    return ForwardOperator.from_dense(A)


def random_prior(rng, m, alpha=None):
    """Full-rank prior with a random well-conditioned precision factor."""
    L = np.tril(0.3 * rng.standard_normal((m, m)), -1) + np.diag(rng.uniform(0.8, 1.6, m))
    mu0 = 0.3 * rng.standard_normal(m)
    return PriorSpec(mu0, L, alpha if alpha is not None else float(rng.uniform(0.5, 2.0)))


def random_spd(rng, m, scale=1.0):
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = rng.uniform(0.3, 2.0, m) * scale
    return (Q * lam) @ Q.T


def prior_from_cov(C0):
    """The zero-mean prior with covariance C0 (SPD) at alpha = 1: its
    precision factor L inverts C0's lower Cholesky factor, so L^t L = C0^{-1}."""
    C0 = np.asarray(C0, dtype=float)
    L = scipy.linalg.solve_triangular(np.linalg.cholesky(C0), np.eye(C0.shape[0]), lower=True)
    return PriorSpec(np.zeros(C0.shape[0]), L, 1.0)


def random_state(rng, m, cov_scale=1.0):
    return GaussianState(0.5 * rng.standard_normal(m), random_spd(rng, m, cov_scale))


def prior_start(prior, mean, mask=None):
    """A solver start at (mean, C0) with ln|C0|; masked, C0's mask entries."""
    if mask is None:
        return GaussianState(mean, DenseCov(prior.cov_dense(), -prior.logdet_prec()))
    return GaussianState(mean, MaskedCov(mask, prior.cov_entries(mask.rows, mask.cols), -prior.logdet_prec()))


def random_problem(rng, m=None, n=None, alpha=None):
    """Returns (A, data, prior) with counts sampled from the model itself."""
    m = m if m is not None else int(rng.integers(2, 7))
    n = n if n is not None else int(rng.integers(2, 9))
    A = random_operator(rng, n, m)
    prior = random_prior(rng, m, alpha=alpha)
    x = prior.mu0 + 0.5 * rng.standard_normal(m)
    y = rng.poisson(np.exp(np.clip(A.matvec(x), -20, 3.5)))
    return A, PoissonData(y), prior


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def mh_scan_reference(log_w, log_u, log_w0):
    """The independence-sampler accept scan, written out step by step."""
    idx = np.empty(log_w.size, dtype=np.int64)
    cur, cur_w, acc = -1, log_w0, 0
    for k in range(log_w.size):
        if log_u[k] < log_w[k] - cur_w:
            cur, cur_w = k, log_w[k]
            acc += 1
        idx[k] = cur
    return idx, acc
