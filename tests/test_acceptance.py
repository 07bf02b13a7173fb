"""Release gate: twelve end-to-end checks, one per shipped guarantee.

Every test measures the quantity it guards and emits a single
``[A##] PASS/FAIL`` line with the measured value and its budget, so a run
of this file doubles as the sign-off sheet for the build.  Each check also
carries the wall-clock budget it must fit in on commodity hardware.

The checks, in order: gradient correctness, the lower-bound property,
solver convergence speed, initialization independence, low-rank accuracy,
banded-covariance accuracy, hyperparameter estimation, the monotone prior
weight, the covariance orbit structure, sampler agreement, 2-D deblurring
quality against the MAP point, and byte-level reproducibility of the CLI.
"""

import json
import time

import numpy as np
import pytest

from pvga import (
    GaussianState,
    SparsityMask,
    make_prior,
    make_test_problem,
    sample_poisson_data,
)
from pvga.cli import main
from pvga.elbo import (
    elbo,
    grad_cov,
    grad_mean,
    optimality_residual,
)
from pvga.formats import substream_seed
from pvga.hyper import (
    HyperConfig,
    joint_lower_bound,
    phi_psi,
    run_hierarchical,
    update_alpha,
)
from pvga.validate import (
    McmcConfig,
    compare_gaussians,
    evidence_quadrature,
    map_estimate,
    mh_independence_sampler,
    orbit_check,
)
from pvga.vga import VgaConfig, newton_step_mean, run_vga

from conftest import prior_start, random_problem, random_state


def _sign_off(tag, ok, msg):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {msg}")
    assert ok, f"[{tag}] {msg}"


@pytest.fixture(scope="module")
def phillips100():
    """The shared mid-size 1-D problem: every solver-level check runs on the
    same data draw so the reported numbers are comparable across tests."""
    A, x_true = make_test_problem("phillips", 100, rate_scale=(0.5, 50.0))
    data = sample_poisson_data(A, x_true, seed=substream_seed(0, "data"))
    return A, data, x_true


# -- A01: gradients ----------------------------------------------------------


def _fd_mean(state, A, data, prior, h=1e-6):
    g = np.zeros(state.dim)
    for i in range(state.dim):
        e = np.zeros(state.dim)
        e[i] = h
        up = elbo(GaussianState(state.mean + e, state.cov), A, data, prior).total
        dn = elbo(GaussianState(state.mean - e, state.cov), A, data, prior).total
        g[i] = (up - dn) / (2 * h)
    return g


def _fd_cov(state, A, data, prior, h=1e-6):
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
            G[i, j] = G[j, i] = d if i == j else d / 2.0
    return G


def test_a01_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        A, data, prior = random_problem(rng, m=m, n=n)
        state = random_state(rng, m, cov_scale=0.5)
        gm, fm = grad_mean(state, A, data, prior), _fd_mean(state, A, data, prior)
        gc, fc = grad_cov(state, A, data, prior), _fd_cov(state, A, data, prior)
        np.testing.assert_allclose(gm, fm, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(gc, fc, rtol=1e-5, atol=1e-7)
        worst = max(
            worst,
            np.max(np.abs(gm - fm) / (np.abs(fm) + 1e-7)),
            np.max(np.abs(gc - fc) / (np.abs(fc) + 1e-7)),
        )
    dt = time.perf_counter() - t0
    _sign_off(
        "A01",
        worst < 1e-5 and dt < 10,
        f"50 instances, worst relative gradient error {worst:.2e} "
        f"(tol 1e-5), {dt:.1f}s (budget 10s)",
    )


# -- A02: lower bound --------------------------------------------------------


def test_a02_bound_never_exceeds_quadrature_evidence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    gap_opt, gap_off = np.inf, np.inf
    n_off = 0
    for k in range(20):
        m = int(rng.integers(1, 3))
        A, data, prior = random_problem(rng, m=m)
        ln_z = evidence_quadrature(A, data, prior)
        state, _ = run_vga(A, data, prior)
        gap_opt = min(gap_opt, ln_z - elbo(state, A, data, prior).total)
        # off-optimum states must sit strictly inside the bound as well
        while n_off < (k + 1) * 50 // 20:
            st = random_state(rng, m, cov_scale=0.8)
            gap_off = min(gap_off, ln_z - elbo(st, A, data, prior).total)
            n_off += 1
    dt = time.perf_counter() - t0
    _sign_off(
        "A02",
        gap_opt >= -1e-6 and gap_off >= -1e-6 and dt < 30,
        f"20 optima / {n_off} off-optimum states, smallest ln Z - F: "
        f"{gap_opt:.2e} at optimum, {gap_off:.2e} off (floor -1e-6), "
        f"{dt:.1f}s (budget 30s)",
    )


# -- A03: convergence speed --------------------------------------------------


def test_a03_fast_outer_convergence_and_newton_decay(phillips100):
    t0 = time.perf_counter()
    A, data, _ = phillips100
    prior = make_prior("L2", 10.0, 100)
    cfg = VgaConfig()
    state, report = run_vga(A, data, prior, cfg)
    outers = len(report.elbo_trace) - 1

    # Newton tail at the converged covariance: restart the mean far away and
    # record the step sizes; a healthy tail contracts faster than linearly.
    cur = state.replace_mean(np.zeros(100))
    deltas = []
    for _ in range(8):
        x_new, info = newton_step_mean(cur, A, data, prior, cur.cov.__matmul__)
        cur = cur.replace_mean(x_new)
        if info.delta_norm < 1e-11:  # below this the floats go flat
            break
        deltas.append(info.delta_norm)
    ratios = np.array(deltas[1:]) / np.array(deltas[:-1])
    dt = time.perf_counter() - t0
    _sign_off(
        "A03",
        report.converged
        and outers <= 10
        and np.all(np.diff(ratios) < 0)
        and np.all(ratios[-2:] < 0.1)
        and dt < 5,
        f"converged in {outers} outer sweeps (budget 10), Newton step ratios "
        f"{np.array2string(ratios, formatter={'float': lambda v: f'{v:.1e}'})} "
        f"decreasing with last two < 0.1, {dt:.1f}s (budget 5s)",
    )


# -- A04: initialization independence ----------------------------------------


def test_a04_initialization_independence_and_stationarity(phillips100):
    t0 = time.perf_counter()
    A, data, _ = phillips100
    prior = make_prior("L2", 10.0, 100)
    st_a, rep_a = run_vga(A, data, prior, VgaConfig())
    st_b, rep_b = run_vga(
        A, data, prior, VgaConfig(), initial_state=prior_start(prior, 0.5 * np.ones(100))
    )
    d_mean = float(np.linalg.norm(st_a.mean - st_b.mean))
    d_cov = float(np.linalg.norm(st_a.cov - st_b.cov, "fro"))
    res = [optimality_residual(st, A, data, prior) for st in (st_a, st_b)]
    worst_res = max(max(pair) for pair in res)
    dt = time.perf_counter() - t0
    _sign_off(
        "A04",
        rep_a.converged
        and rep_b.converged
        and d_mean <= 1e-6
        and d_cov <= 1e-5
        and worst_res <= 1e-5
        and dt < 10,
        f"two starts differ by {d_mean:.1e} in mean (tol 1e-6), {d_cov:.1e} "
        f"in covariance (tol 1e-5); worst stationarity residual "
        f"{worst_res:.1e} (tol 1e-5), {dt:.1f}s (budget 10s)",
    )


# -- A05: low-rank accuracy --------------------------------------------------


def test_a05_lowrank_errors_decay_with_rank(phillips100):
    t0 = time.perf_counter()
    A, data, _ = phillips100
    prior = make_prior("L2", 10.0, 100)
    ref, _ = run_vga(A, data, prior, VgaConfig())
    nx, nc = np.linalg.norm(ref.mean), np.linalg.norm(ref.cov, "fro")
    e_mean, e_cov = [], []
    for r in (2, 4, 6, 8, 10, 20):
        st, _ = run_vga(A, data, prior, VgaConfig(rank=r))
        e_mean.append(np.linalg.norm(st.mean - ref.mean))
        e_cov.append(np.linalg.norm(st.cov - ref.cov, "fro"))
    e_mean, e_cov = np.array(e_mean), np.array(e_cov)
    rel_mean, rel_cov = e_mean[4] / nx, e_cov[4] / nc  # the rank-10 point
    dt = time.perf_counter() - t0
    _sign_off(
        "A05",
        np.all(np.diff(e_mean) <= 1e-12)
        and np.all(np.diff(e_cov) <= 1e-12)
        and rel_mean < 2e-2
        and rel_cov < 2e-2
        and dt < 30,
        f"errors nonincreasing over ranks 2..20; at rank 10 relative errors "
        f"{rel_mean:.1e} (mean) and {rel_cov:.1e} (covariance), tol 2e-2, "
        f"{dt:.1f}s (budget 30s)",
    )


# -- A06: banded covariance accuracy -----------------------------------------


def test_a06_banded_errors_decay_with_bandwidth(phillips100):
    t0 = time.perf_counter()
    A, data, _ = phillips100
    # the two stock priors at the scales the solver defaults are tuned for:
    # identity at alpha = 10 and the first-difference square at alpha = 400
    msgs, ok = [], True
    for kind, alpha in (("L2", 10.0), ("H1", 400.0)):
        prior = make_prior(kind, alpha, 100)
        ref, _ = run_vga(A, data, prior, VgaConfig())
        e_mean, e_cov = [], []
        for s in (1, 3, 5):
            mask = SparsityMask.banded(100, s)
            st, rep = run_vga(
                A, data, prior, VgaConfig(rank=50, mask=mask)
            )
            ok = ok and rep.converged
            e_mean.append(np.linalg.norm(st.mean - ref.mean))
            # the spectral error of the zero-filled projection
            diff = -ref.cov
            diff[mask.rows, mask.cols] += st.C.values
            e_cov.append(np.linalg.norm(diff, 2))
        ok = (
            ok
            and np.all(np.diff(e_mean) < 0)
            and np.all(np.diff(e_cov) < 0)
            and 1e-3 <= e_mean[0] <= 0.5
        )
        msgs.append(
            f"{kind}: e_mean {e_mean[0]:.2e}->{e_mean[-1]:.2e}, "
            f"e_cov {e_cov[0]:.2e}->{e_cov[-1]:.2e}"
        )
    dt = time.perf_counter() - t0
    _sign_off(
        "A06",
        ok and dt < 30,
        f"errors strictly decreasing over bands 1/3/5 and diagonal-band mean "
        f"error within [1e-3, 0.5] -- {'; '.join(msgs)}, {dt:.1f}s (budget 30s)",
    )


# -- A07: hyperparameter estimation ------------------------------------------


def test_a07_em_monotone_and_maximizes_profiled_bound(phillips100):
    t0 = time.perf_counter()
    A, data, _ = phillips100
    base = make_prior("L2", 1.0, 100)
    runs = {}
    for a0 in (0.1, 10.0):
        cfg = HyperConfig(a=1.0, b=1e-4, alpha_init=a0, max_em=400, alpha_tol=1e-8)
        runs[a0] = run_hierarchical(A, data, base, cfg)
    monotone = all(
        np.all(np.diff(tr.alpha_sequence) >= 0) or np.all(np.diff(tr.alpha_sequence) <= 0)
        for _, _, tr in runs.values()
    )
    a_lo, a_hi = runs[0.1][1], runs[10.0][1]
    rel_gap = abs(a_lo - a_hi) / a_hi

    # self-consistency at the limit: one fresh covariance/mean fit at the
    # returned alpha must map back onto it
    state, alpha, _ = runs[10.0]
    st_star, _ = run_vga(
        A, data, base.with_alpha(alpha), VgaConfig(), initial_state=state
    )
    fp_res = abs(update_alpha(st_star, base, 1.0, 1e-4) - alpha) / alpha

    # the profiled bound over a surrounding log-grid peaks where the EM stopped
    grid = alpha * np.logspace(-1.0, 1.0, 30)
    vals, warm = [], None
    for a in grid:
        pr = base.with_alpha(a)
        stg, _ = run_vga(A, data, pr, VgaConfig(), initial_state=warm)
        warm = stg
        vals.append(joint_lower_bound(stg, a, A, data, pr, 1.0, 1e-4))
    i_max = int(np.argmax(vals))
    i_star = int(np.argmin(np.abs(grid - alpha)))
    dt = time.perf_counter() - t0
    _sign_off(
        "A07",
        monotone
        and rel_gap <= 1e-3
        and fp_res <= 1e-6
        and abs(i_max - i_star) <= 1
        and 0.1 <= alpha <= 10.0
        and dt < 120,
        f"both starts monotone to alpha*={alpha:.4f} (relative gap "
        f"{rel_gap:.1e}, tol 1e-3); fixed-point residual {fp_res:.1e} "
        f"(tol 1e-6); grid peak at cell {i_max} vs {i_star}; "
        f"{dt:.1f}s (budget 120s)",
    )


# -- A08: monotone prior weight ----------------------------------------------


def test_a08_prior_weight_term_increases_with_alpha(phillips100):
    t0 = time.perf_counter()
    A, data, _ = phillips100
    base = make_prior("L2", 1.0, 100)
    psis = []
    for scale in (0.25, 0.5, 1.0, 2.0, 4.0):
        pr = base.with_alpha(10.0 * scale)
        st, _ = run_vga(A, data, pr, VgaConfig())
        psis.append(phi_psi(st, A, data, pr)[1])
    diffs = np.diff(psis)
    dt = time.perf_counter() - t0
    _sign_off(
        "A08",
        np.all(diffs > -1e-10) and dt < 30,
        f"psi strictly increasing over 0.25x..4x alpha (min step "
        f"{diffs.min():.2e}, slack 1e-10), {dt:.1f}s (budget 30s)",
    )


# -- A09: covariance orbit ---------------------------------------------------


def test_a09_frozen_mean_orbit_alternates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(2, 11))
        A, data, prior = random_problem(rng, m=m, n=m + 2)
        xbar = prior.mu0 + 0.3 * rng.standard_normal(m)
        out = orbit_check(A, xbar, prior, k_max=40)
        assert out.even_decreasing and out.odd_increasing and out.limits_ordered
        worst = min(worst, out.worst_violation)
    dt = time.perf_counter() - t0
    _sign_off(
        "A09",
        worst >= -1e-10 and dt < 10,
        f"10 problems: even iterates descend, odd climb, limits ordered; "
        f"worst eigenvalue violation {worst:.1e} (slack 1e-10), "
        f"{dt:.1f}s (budget 10s)",
    )


# -- A10: sampler agreement --------------------------------------------------


def test_a10_independence_sampler_agrees_with_fit(phillips100):
    t0 = time.perf_counter()
    A, data, _ = phillips100
    prior = make_prior("L2", 10.0, 100)
    proposal, report = run_vga(A, data, prior, VgaConfig())
    summary = mh_independence_sampler(
        A, data, prior, proposal, McmcConfig(chain_length=200_000, burn_in=100_000, seed=0)
    )
    chain = GaussianState(summary.mean, summary.covariance)
    mean_l2, cov_spec, _, _ = compare_gaussians(chain, proposal)
    dt = time.perf_counter() - t0
    _sign_off(
        "A10",
        report.converged
        and summary.acceptance_rate >= 0.80
        and mean_l2 <= 5e-2
        and cov_spec <= 5e-2
        and dt < 180,
        f"acceptance {summary.acceptance_rate:.1%} (floor 80%); chain vs fit: "
        f"mean {mean_l2:.1e}, covariance {cov_spec:.1e} (tol 5e-2), "
        f"{dt:.0f}s (budget 180s)",
    )


# -- A11: 2-D deblurring -----------------------------------------------------


def test_a11_deblurring_matches_map_quality():
    t0 = time.perf_counter()
    A, x_true = make_test_problem("blur2d", 32)
    m = A.n_cols
    data = sample_poisson_data(A, x_true, seed=substream_seed(0, "data"))
    prior = make_prior("H1_2D", 1.0, m)
    cfg = VgaConfig(rank=200, mask=SparsityMask.grid4(32))
    state, report = run_vga(A, data, prior, cfg)
    x_map = map_estimate(A, data, prior)
    e_vga = float(np.linalg.norm(state.mean - x_true))
    e_map = float(np.linalg.norm(x_map - x_true))
    ratio = e_vga / e_map
    dt = time.perf_counter() - t0
    _sign_off(
        "A11",
        report.converged and ratio <= 1.05 and dt < 120,
        f"32x32 deblurring converged in {len(report.elbo_trace) - 1} sweeps; "
        f"mean error {e_vga:.3f} vs MAP {e_map:.3f} (ratio {ratio:.4f}, "
        f"cap 1.05), {dt:.0f}s (budget 120s)",
    )


# -- A12: reproducibility ----------------------------------------------------


def _write_cfg(tmp_path, name, **sections):
    base = {
        "problem.name": "phillips",
        "problem.size": 60,
        "prior.kind": "L2",
        "prior.alpha": 10.0,
    }
    for section, kv in sections.items():
        for key, val in kv.items():
            base[f"{section}.{key}"] = val
    lines = [f"{k} = {json.dumps(v)}" for k, v in base.items()]
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def test_a12_cli_reruns_are_byte_identical(tmp_path):
    t0 = time.perf_counter()
    jobs = {
        "solve": _write_cfg(tmp_path, "solve.cfg"),
        "hyper": _write_cfg(
            tmp_path,
            "hyper.cfg",
            problem={"size": 40},
            hyper={"alpha_tol": 1e-6, "grid_points": 10},
        ),
        "validate": _write_cfg(
            tmp_path,
            "validate.cfg",
            problem={"size": 40},
            mcmc={"chain_length": 40_000, "burn_in": 20_000},
        ),
        "bench": _write_cfg(tmp_path, "bench.cfg", bench={"ranks": [2, 6]}),
    }
    checked = 0
    for cmd, cfg in jobs.items():
        out = tmp_path / cmd
        assert main([cmd, "--config", cfg, "--out", str(out)]) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert main([cmd, "--config", cfg, "--out", str(out)]) == 0
        for p in sorted(out.iterdir()):
            assert p.read_bytes() == first[p.name], f"{cmd}/{p.name} changed on rerun"
            checked += 1
    dt = time.perf_counter() - t0
    _sign_off(
        "A12",
        checked >= 12,
        f"all four commands rerun byte-identical across {checked} artifacts, "
        f"{dt:.0f}s",
    )
