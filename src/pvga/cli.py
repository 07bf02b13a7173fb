"""Experiment runner: assemble a problem from a config, solve, and emit
diff-stable artifacts.

Subcommands: ``solve`` (one variational run), ``hyper`` (hierarchical alpha
estimation plus the profiled-bound grid), ``validate`` (MAP/Laplace/MCMC
comparison), ``bench`` (rank or sparsity sweeps against a dense reference).
Every artifact is reproduced byte-for-byte by rerunning the config copy the
command leaves in the output directory.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import formats
from .elbo import GaussianState, MaskedCov, elbo
from .errors import ConfigError, MaxIterationsExceeded, PvgaError, is_count
from .hyper import HyperConfig, joint_lower_bound, run_hierarchical
from .linalg import SparsityMask
from .model import make_prior, make_test_problem, sample_poisson_data
from .validate import (
    McmcConfig,
    compare_gaussians,
    hpd_intervals,
    laplace_approximation,
    mh_independence_sampler,
)
from .vga import VgaConfig, run_vga

__all__ = ["main", "cmd_solve", "cmd_hyper", "cmd_validate", "cmd_bench", "DEFAULTS"]

# the settings the library configs also hold take their defaults from them
DEFAULTS: dict = {
    "seed": 0,
    "out": "runs/out",
    "problem": {"name": "phillips", "size": 100, "rate_scale": [0.5, 50.0]},
    "prior": {"kind": "L2", "alpha": 10.0},
    "solver": {"max_outer": VgaConfig.max_outer, "rank": None, "sparsity": None},
    "hyper": {
        "a": HyperConfig.a,
        "b": HyperConfig.b,
        "alpha_init": HyperConfig.alpha_init,
        "max_em": HyperConfig.max_em,
        "alpha_tol": HyperConfig.alpha_tol,
        "grid_points": 30,
    },
    "mcmc": {"chain_length": McmcConfig.chain_length, "burn_in": McmcConfig.burn_in},
    "bench": {"study": "lowrank", "ranks": [2, 4, 6, 8, 10, 20], "sparsities": [1, 3, 5], "rank": 50},
}

# the profiled-bound grid of `hyper` spans this many decades either side of alpha*
_GRID_DECADES = 1.0

_CONFIG_ERRORS = (PvgaError, KeyError, TypeError, ValueError, OSError)


def _deep_merge(base: dict, extra: dict, prefix: str = "") -> dict:
    """``base`` updated from ``extra``, whose keys must all exist in ``base``."""
    out = copy.deepcopy(base)
    for key, val in extra.items():
        if key not in out:
            dotted = [k for k, _ in formats._flatten({key: val}, prefix)] or [prefix + key]
            raise ConfigError(f"unknown config key {', '.join(dotted)}")
        if isinstance(val, dict) and isinstance(out[key], dict):
            out[key] = _deep_merge(out[key], val, f"{prefix}{key}.")
        else:
            out[key] = copy.deepcopy(val)
    return out


def _resolve_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if args.config is not None:
        cfg = _deep_merge(cfg, formats.load_config(args.config))
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out"] = args.out
    if getattr(args, "rank", None) is not None:
        cfg["solver"]["rank"] = args.rank
    if getattr(args, "sparsity", None) is not None:
        cfg["solver"]["sparsity"] = args.sparsity
    if getattr(args, "study", None) is not None:
        cfg["bench"]["study"] = args.study
    return cfg


def _prepare_out(cfg: dict) -> Path:
    """Create the output directory and write config.txt.  :func:`main` calls
    it only once the command has built its problem and settings, so a config
    error leaves nothing behind."""
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(formats.dump_config_text(cfg))
    return out


def _build_problem(cfg: dict):
    p = cfg["problem"]
    A, x_true = make_test_problem(p["name"], p["size"], rate_scale=p["rate_scale"])
    data = sample_poisson_data(A, x_true, seed=formats.substream_seed(cfg["seed"], "data"))
    return A, x_true, data


def _build_prior(cfg: dict, m: int):
    return make_prior(cfg["prior"]["kind"], cfg["prior"]["alpha"], m)


def _build_mask(spec, m: int) -> SparsityMask | None:
    if spec is None or spec == "none":
        return None
    if spec == "grid4":
        side = int(round(np.sqrt(m)))
        if side * side != m:
            raise ConfigError(f"grid4 mask needs a square grid; m={m}")
        return SparsityMask.grid4(side)
    if isinstance(spec, str) and spec.isdecimal():  # --sparsity gives the band width as digits
        spec = int(spec)
    return SparsityMask.banded(m, spec)


def _checked(vcfg: VgaConfig, A) -> VgaConfig:
    """``vcfg`` once it passes :meth:`VgaConfig.validate` and its rank is at
    most min(n, m), the largest the factorization of A can take."""
    vcfg.validate()
    if vcfg.rank is not None and vcfg.rank > min(A.shape):
        raise ConfigError(f"rank {vcfg.rank} exceeds min(n, m) = {min(A.shape)}")
    return vcfg


def _solver_config(cfg: dict, A) -> VgaConfig:
    s = cfg["solver"]
    vcfg = VgaConfig(max_outer=s["max_outer"], rank=s["rank"], mask=_build_mask(s["sparsity"], A.n_cols))
    return _checked(vcfg, A)


def _report_dict(report, **extra) -> dict:
    # wall-clock time is intentionally left out: artifacts must be
    # byte-identical across reruns of the same config and seed
    out = {
        "converged": bool(report.converged),
        "stop_rule": report.stop_rule,
        "elbo_trace": list(report.elbo_trace),
        "mean_residual_trace": list(report.mean_residual_trace),
        "cov_residual_trace": list(report.cov_residual_trace),
        "inner_counts": list(report.inner_counts),
        "flags": list(report.flags),
    }
    out.update(extra)
    return out


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_state(out: Path, state: GaussianState) -> None:
    formats.write_csv(out / "mean.csv", ["i", "mean"], [np.arange(state.dim), state.mean])
    C = state.C
    if isinstance(C, MaskedCov):
        formats.write_csv(out / "cov_masked.csv", ["row", "col", "value"], [C.mask.rows, C.mask.cols, C.values])
    else:
        formats.write_vgam(out / "cov.vgam", state.cov)


def _fail(exc: Exception, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True))
    return code


# ---------------------------------------------------------------------------
# subcommands: each builds its problem and checks its settings, then returns
# its run, a function of the output directory that returns the exit code
# ---------------------------------------------------------------------------


def cmd_solve(cfg: dict):
    A, _x_true, data = _build_problem(cfg)
    prior = _build_prior(cfg, A.n_cols)
    vcfg = _solver_config(cfg, A)

    def run(out: Path) -> int:
        state, report = run_vga(A, data, prior, vcfg)
        _write_state(out, state)
        _write_json(out / "report.json", _report_dict(report, problem=cfg["problem"]["name"],
                                                       mode=vcfg.execution_mode, rank=vcfg.rank,
                                                       final_elbo=report.elbo_trace[-1]))
        print(f"solve: converged={report.converged} elbo={report.elbo_trace[-1]:.10g} out={out}")
        if not report.converged:
            return _fail(MaxIterationsExceeded("solver exhausted max_outer without converging"), 1)
        return 0

    return run


def cmd_hyper(cfg: dict):
    A, _x_true, data = _build_problem(cfg)
    m = A.n_cols
    # EM starts at hyper.alpha_init, but prior.alpha is still checked
    structure = _build_prior(cfg, m).with_alpha(1.0)
    vcfg = _solver_config(cfg, A)
    h = cfg["hyper"]
    hcfg = HyperConfig(a=h["a"], b=h["b"], alpha_init=h["alpha_init"], max_em=h["max_em"],
                       alpha_tol=h["alpha_tol"], inner=vcfg)
    hcfg.validate()
    pts = h["grid_points"]
    if not (is_count(pts) and pts >= 0):
        raise ConfigError(f"hyper.grid_points must be a nonnegative integer, got {json.dumps(pts)}")

    def run(out: Path) -> int:
        failed = None
        try:
            state, alpha_star, trace = run_hierarchical(A, data, structure, hcfg)
        except MaxIterationsExceeded as exc:
            state, alpha_star, trace = exc.partial
            failed = exc
        k = np.arange(len(trace.psi_sequence))
        formats.write_csv(
            out / "hyper_trace.csv",
            ["k", "alpha", "psi", "joint_bound"],
            [k, np.asarray(trace.alpha_sequence[: k.size]), trace.psi_sequence, trace.joint_bound_sequence],
        )
        # profiled joint bound over a log-grid bracketing the attained alpha
        grid = alpha_star * np.logspace(-_GRID_DECADES, _GRID_DECADES, pts)
        bounds = []
        g_state = state
        for a_val in grid:
            g_state, _ = run_vga(A, data, structure.with_alpha(a_val), vcfg, initial_state=g_state)
            bounds.append(joint_lower_bound(g_state, a_val, A, data, structure, hcfg.a, hcfg.b))
        formats.write_csv(out / "alpha_grid.csv", ["alpha", "joint_bound"], [grid, bounds])
        _write_state(out, state)
        _write_json(
            out / "report.json",
            {
                "alpha_star": alpha_star,
                "converged": trace.converged,
                "em_iterations": len(trace.psi_sequence),
                "flags": list(trace.flags),
                "alpha_sequence": list(trace.alpha_sequence),
                "rejected_alphas": list(trace.rejected_alphas),
            },
        )
        print(f"hyper: converged={trace.converged} alpha={alpha_star:.10g} out={out}")
        return _fail(failed, 1) if failed is not None else 0

    return run


def cmd_validate(cfg: dict):
    A, _x_true, data = _build_problem(cfg)
    prior = _build_prior(cfg, A.n_cols)
    vcfg = _solver_config(cfg, A)
    if vcfg.mask is not None:
        raise ConfigError("validate needs a full covariance for the sampler; a solver.sparsity "
                          "mask keeps only the masked entries")
    mc = cfg["mcmc"]
    mcfg = McmcConfig(chain_length=mc["chain_length"], burn_in=mc["burn_in"],
                      seed=formats.substream_seed(cfg["seed"], "mcmc"))
    mcfg.validate()
    # the chain's covariance is compared through its Cholesky factor, and
    # n_kept <= m samples span at most n_kept - 1 dimensions
    m = A.n_cols
    thin, n_kept = mcfg.kept(m)
    if n_kept <= m:
        raise ConfigError(
            f"the chain keeps {n_kept} samples (every {thin} after burn-in), so their covariance "
            f"on m = {m} coordinates is singular; raise mcmc.chain_length or lower mcmc.burn_in"
        )

    def run(out: Path) -> int:
        vga_state, report = run_vga(A, data, prior, vcfg)
        lap_state = laplace_approximation(A, data, prior)
        summary = mh_independence_sampler(A, data, prior, vga_state, mcfg)
        mcmc_state = GaussianState(summary.mean, summary.covariance)

        def _metrics(g1, g2):
            return dict(zip(("mean_l2", "cov_spectral", "kl_forward", "kl_reverse"), compare_gaussians(g1, g2)))

        _write_json(
            out / "compare.json",
            {
                "acceptance_rate": summary.acceptance_rate,
                "gamma": summary.gamma,
                "n_kept": summary.n_kept,
                "thin": summary.thin,
                "mcmc_vs_vga": _metrics(mcmc_state, vga_state),
                "laplace_vs_vga": _metrics(lap_state, vga_state),
                "mcmc_vs_laplace": _metrics(mcmc_state, lap_state),
                "vga_converged": report.converged,
            },
        )
        vga_hpd = hpd_intervals(vga_state, summary.gamma)
        lap_hpd = hpd_intervals(lap_state, summary.gamma)
        formats.write_csv(
            out / "hpd.csv",
            ["i", "vga_low", "vga_high", "laplace_low", "laplace_high", "mcmc_low", "mcmc_high"],
            [np.arange(vga_state.dim), *vga_hpd.T, *lap_hpd.T, *summary.intervals.T],
        )
        formats.write_vgam(out / "chain.vgam", summary.samples)
        print(
            f"validate: acceptance={summary.acceptance_rate:.4f} "
            f"mean_l2={float(np.linalg.norm(summary.mean - vga_state.mean)):.6g} out={out}"
        )
        return 0

    return run


def _solution_errors(state, ref_state):
    """Errors vs the dense reference, in both matrix norms.

    Returns (e_mean, e_mean_rel, e_cov_fro, e_cov_fro_rel, e_cov_spec,
    e_cov_spec_rel): the spectral norm is what banded-sweep error tables
    conventionally report, the Frobenius norm what rank-sweep curves use;
    emitting both keeps the CSV norm-unambiguous.
    """
    e_mean = float(np.linalg.norm(state.mean - ref_state.mean))
    diff = -ref_state.cov
    if isinstance(state.C, MaskedCov):  # its zero-filled projection
        diff[state.C.mask.rows, state.C.mask.cols] += state.C.values
    else:
        diff += state.cov
    diff = (diff + diff.T) / 2.0
    e_fro = float(np.linalg.norm(diff))
    e_spec = float(np.max(np.abs(np.linalg.eigvalsh(diff))))
    ref_fro = max(float(np.linalg.norm(ref_state.cov)), 1e-300)
    ref_spec = max(float(np.max(np.abs(np.linalg.eigvalsh(ref_state.cov)))), 1e-300)
    mean_scale = max(float(np.linalg.norm(ref_state.mean)), 1e-300)
    return (e_mean, e_mean / mean_scale, e_fro, e_fro / ref_fro, e_spec, e_spec / ref_spec)


_BENCH_ERROR_COLUMNS = ["e_mean", "e_mean_rel", "e_cov_fro", "e_cov_fro_rel", "e_cov_spec", "e_cov_spec_rel"]


def _sweep(bench: dict, key: str) -> list:
    values = bench[key]
    if not isinstance(values, list):
        raise ConfigError(f"bench.{key} must be a list, got {json.dumps(values)}")
    return values


def cmd_bench(cfg: dict):
    b = cfg["bench"]
    study = b["study"]
    if study not in ("lowrank", "sparsity"):
        raise ConfigError(f"bench study must be 'lowrank' or 'sparsity', got {study!r}")
    for key in ("rank", "sparsity"):  # each point sets its own rank and mask
        if cfg["solver"][key] is not None:
            raise ConfigError(f"bench sets each point's rank and mask; solver.{key} is not read")
    A, _x_true, data = _build_problem(cfg)
    m = A.n_cols
    prior = _build_prior(cfg, m)
    base = _solver_config(cfg, A)  # the dense reference
    # both studies' points are built, and so checked, before anything is
    # written: a setting this study does not read is refused, as cmd_hyper
    # refuses prior.alpha; only the swept points must also factor A
    VgaConfig(rank=b["rank"]).validate()
    lowrank = [dataclasses.replace(base, rank=r) for r in _sweep(b, "ranks")]
    banded = [dataclasses.replace(base, rank=b["rank"], mask=SparsityMask.banded(m, s))
              for s in _sweep(b, "sparsities")]
    for p in lowrank + banded:
        p.validate()
    if study == "lowrank":
        sweep, names, points = b["ranks"], ["rank"] + _BENCH_ERROR_COLUMNS, lowrank
    else:
        sweep, names, points = b["sparsities"], ["sparsity"] + _BENCH_ERROR_COLUMNS, banded
    points = [_checked(p, A) for p in points]

    def run(out: Path) -> int:
        ref_state, ref_report = run_vga(A, data, prior, base)

        rows = [(p,) + _solution_errors(run_vga(A, data, prior, vcfg)[0], ref_state)
                for p, vcfg in zip(sweep, points)]
        cols = [np.array([row[j] for row in rows]) for j in range(len(names))]
        formats.write_csv(out / "bench.csv", names, cols)
        _write_json(
            out / "report.json",
            {
                "study": study,
                "reference_elbo": ref_report.elbo_trace[-1],
                "reference_converged": ref_report.converged,
                "points": len(rows),
            },
        )
        print(f"bench: study={study} points={len(rows)} out={out}")
        return 0

    return run


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvga",
        description="Variational Gaussian solver for Poisson inverse problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run the variational solver on a configured problem"),
        ("hyper", "estimate the prior strength hierarchically"),
        ("validate", "compare the solution against MAP/Laplace and MCMC"),
        ("bench", "sweep rank or sparsity against a dense reference"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="config file (key=value or JSON)")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--rank", type=int, default=None, help="rank of the factor of A; none is dense")
        p.add_argument("--sparsity", type=str, default=None,
                       help="covariance mask, which needs a rank: band width or 'grid4'")
        if name == "bench":
            p.add_argument("--study", choices=["lowrank", "sparsity"], default=None)
    return parser


_COMMANDS = {"solve": cmd_solve, "hyper": cmd_hyper, "validate": cmd_validate, "bench": cmd_bench}


def main(argv=None) -> int:
    """Exit 2 on a config error, a package error or an output directory that
    cannot be written, all found before the run starts; from there on a
    PvgaError exits 1, and any other error propagates."""
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        run = _COMMANDS[args.command](cfg)
        out = _prepare_out(cfg)
    except _CONFIG_ERRORS as exc:
        return _fail(exc, 2)
    try:
        return run(out)
    except PvgaError as exc:
        return _fail(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
