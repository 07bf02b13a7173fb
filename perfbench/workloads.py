"""The three benchmark workloads: inputs from a seed, one operation, checks.

Every workload draws its data as ``pvga validate`` and the acceptance tests
do, ``sample_poisson_data(A, x_true, seed=substream_seed(seed, "data"))``,
and calls the library only through attributes of the ``pvga`` package, so
the tracer's wrappers see each call.

``setup(seed)`` builds fresh inputs through the library; ``operation(inputs)``
is the timed call; ``check(inputs, result, pinned)`` returns the failed
checks and a list of notes (observations that do not fail the operation),
and with ``pinned=True`` (the default seed) also compares against reference
values recorded at that seed.
"""

from __future__ import annotations

import numpy as np

import pvga
from pvga import substream_seed


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def bound_drops(trace) -> np.ndarray:
    """Sweep-to-sweep decreases of a bound trace beyond a roundoff allowance."""
    trace = np.asarray(trace, dtype=float)
    steps = np.diff(trace)
    return steps[steps < -1e-12 * max(1.0, float(np.max(np.abs(trace))))]


class EmPhillips100:
    """EM on alpha: ~200 warm-started dense solves at m=100, so per-call
    overhead, the dense covariance update and bound evaluation dominate."""

    name = "em_phillips100"

    # alpha* at the default seed; 1e-6 relative is ROADMAP item 5's tolerance
    PIN_ALPHA = 0.5011975393782707
    ALPHA_RTOL = 1e-6

    def setup(self, seed: int) -> dict:
        A, x_true = pvga.make_test_problem("phillips", 100, rate_scale=(0.5, 50.0))
        data = pvga.sample_poisson_data(A, x_true, seed=substream_seed(seed, "data"))
        base = pvga.make_prior("L2", 1.0, 100)
        cfg = pvga.HyperConfig(a=1.0, b=1e-4, alpha_init=1.0, max_em=400,
                               inner=pvga.VgaConfig(mode="dense"))
        return {"A": A, "data": data, "base": base, "cfg": cfg}

    def operation(self, inp: dict):
        return pvga.run_hierarchical(inp["A"], inp["data"], inp["base"], inp["cfg"])

    def check(self, inp: dict, result, pinned: bool) -> tuple[list[str], list[str]]:
        _state, alpha, trace = result
        bad = []
        if not trace.converged:
            bad.append("EM did not converge")
        steps = np.diff(trace.alpha_sequence)
        if not (np.all(steps >= 0) or np.all(steps <= 0)):
            bad.append("alpha sequence is not monotone")
        if pinned and not _rel(alpha, self.PIN_ALPHA) <= self.ALPHA_RTOL:
            bad.append(f"alpha* {alpha!r} differs from pinned {self.PIN_ALPHA!r}")
        return bad, []


class Deblur40:
    """The masked 2-D path at m=1600: rsvd at rank 300, masked row-quad and
    Woodbury, PCG with the dense H1_2D factor; never touches hyper or validate."""

    name = "deblur_40"

    SIDE = 40
    RANK = 300
    # final bound and relative reconstruction error at the default seed
    PIN_BOUND = -2706.662882186696
    PIN_REL_ERR = 0.24494544111852362
    RTOL = 1e-6

    def setup(self, seed: int) -> dict:
        side = self.SIDE
        A, x_true = pvga.make_test_problem("blur2d", side)
        data = pvga.sample_poisson_data(A, x_true, seed=substream_seed(seed, "data"))
        prior = pvga.make_prior("H1_2D", 1.0, side * side)
        cfg = pvga.VgaConfig(mode="lowrank_sparse", rank=self.RANK,
                             mask=pvga.SparsityMask.grid4(side))
        return {"A": A, "x_true": x_true, "data": data, "prior": prior, "cfg": cfg}

    def operation(self, inp: dict):
        return pvga.run_vga(inp["A"], inp["data"], inp["prior"], inp["cfg"])

    def check(self, inp: dict, result, pinned: bool) -> tuple[list[str], list[str]]:
        state, report = result
        bad = []
        if not report.converged:
            bad.append("solver did not converge")
        trace = np.asarray(report.elbo_trace)
        if not np.all(np.isfinite(trace)):
            bad.append("bound trace is not finite")
        # The masked-mode bound is not monotone at this commit: with PCG
        # capped at pcg_maxit the mean steps are inexact and the bound drops
        # on some sweeps.  The drops are reported, not counted as failures.
        notes = []
        drops = bound_drops(trace)
        if drops.size:
            notes.append(f"bound decreased on {drops.size} sweep(s), largest drop {-drops.min():.3g}")
        if pinned:
            x_true = inp["x_true"]
            rel_err = float(np.linalg.norm(state.mean - x_true) / np.linalg.norm(x_true))
            if not _rel(trace[-1], self.PIN_BOUND) <= self.RTOL:
                bad.append(f"final bound {trace[-1]!r} differs from pinned {self.PIN_BOUND!r}")
            if not _rel(rel_err, self.PIN_REL_ERR) <= self.RTOL:
                bad.append(f"relative error {rel_err!r} differs from pinned {self.PIN_REL_ERR!r}")
        return bad, notes


class ValidatePhillips100:
    """``pvga validate``: dense fit, Laplace, a 200k-step independence sampler;
    the sampler's log-joint passes and accept scan dominate time and memory."""

    name = "validate_phillips100"

    # A10's thresholds
    MIN_ACCEPTANCE = 0.80
    MAX_MEAN_L2 = 5e-2
    MAX_COV_SPECTRAL = 5e-2

    def setup(self, seed: int) -> dict:
        A, x_true = pvga.make_test_problem("phillips", 100, rate_scale=(0.5, 50.0))
        data = pvga.sample_poisson_data(A, x_true, seed=substream_seed(seed, "data"))
        prior = pvga.make_prior("L2", 10.0, 100)
        mcfg = pvga.McmcConfig(chain_length=200_000, burn_in=100_000,
                               seed=substream_seed(seed, "mcmc"))
        return {"A": A, "data": data, "prior": prior, "cfg": pvga.VgaConfig(mode="dense"),
                "mcmc": mcfg}

    def operation(self, inp: dict):
        A, data, prior = inp["A"], inp["data"], inp["prior"]
        fit, report = pvga.run_vga(A, data, prior, inp["cfg"])
        laplace = pvga.laplace_approximation(A, data, prior)
        chain = pvga.mh_independence_sampler(A, data, prior, fit, inp["mcmc"])
        chain_state = pvga.GaussianState(chain.mean, chain.covariance)
        return {
            "report": report,
            "chain": chain,
            "fit_hpd": pvga.hpd_intervals(fit, chain.gamma),
            "chain_vs_fit": pvga.compare_gaussians(chain_state, fit),
            "laplace_vs_fit": pvga.compare_gaussians(laplace, fit),
        }

    def check(self, inp: dict, result, pinned: bool) -> tuple[list[str], list[str]]:
        bad = []
        if not result["report"].converged:
            bad.append("fit did not converge")
        acc = result["chain"].acceptance_rate
        if not acc >= self.MIN_ACCEPTANCE:
            bad.append(f"acceptance {acc:.3f} below {self.MIN_ACCEPTANCE}")
        mean_l2, cov_spec, _, _ = result["chain_vs_fit"]
        if not mean_l2 <= self.MAX_MEAN_L2:
            bad.append(f"chain-vs-fit mean distance {mean_l2:.3e} above {self.MAX_MEAN_L2}")
        if not cov_spec <= self.MAX_COV_SPECTRAL:
            bad.append(f"chain-vs-fit covariance distance {cov_spec:.3e} above {self.MAX_COV_SPECTRAL}")
        hpd = result["fit_hpd"]
        if not (np.all(np.isfinite(hpd)) and np.all(hpd[:, 0] < hpd[:, 1])):
            bad.append("fit HPD intervals are not finite and ordered")
        if not np.all(np.isfinite(result["laplace_vs_fit"])):
            bad.append("Laplace-vs-fit comparison is not finite")
        return bad, []


WORKLOADS = {w.name: w for w in (EmPhillips100(), Deblur40(), ValidatePhillips100())}
