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
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import formats
from .elbo import GaussianState, elbo
from .errors import (
    ConfigError,
    InvalidAlpha,
    InvalidData,
    MaxIterationsExceeded,
    PvgaError,
    UnknownProblem,
)
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

DEFAULTS: dict = {
    "seed": 0,
    "out": "runs/out",
    "problem": {"name": "phillips", "size": 100, "rate_scale": [0.5, 50.0]},
    "prior": {"kind": "L2", "alpha": 10.0},
    "solver": {"max_outer": 50, "mode": "dense", "rank": None, "sparsity": None},
    "hyper": {
        "a": 1.0,
        "b": 1e-4,
        "alpha_init": 1.0,
        # a ceiling on E-step solves, accepted and rejected trials alike; the
        # bracketed root search takes 8 on the default problem
        "max_em": 400,
        "alpha_tol": 1e-8,
        "grid_points": 30,
        "grid_decades": 1.0,
    },
    "mcmc": {"chain_length": 200_000, "burn_in": 100_000, "gamma": 0.9},
    "bench": {"study": "lowrank", "ranks": [2, 4, 6, 8, 10, 20], "sparsities": [1, 3, 5], "rank": 50},
}

_CONFIG_ERRORS = (ConfigError, UnknownProblem, InvalidAlpha, InvalidData, KeyError, TypeError, ValueError)


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
    if getattr(args, "mode", None) is not None:
        cfg["solver"]["mode"] = args.mode
    if getattr(args, "rank", None) is not None:
        cfg["solver"]["rank"] = args.rank
    if getattr(args, "sparsity", None) is not None:
        cfg["solver"]["sparsity"] = args.sparsity
    if getattr(args, "study", None) is not None:
        cfg["bench"]["study"] = args.study
    return cfg


def _prepare_out(cfg: dict) -> Path:
    """Create the output directory and write config.txt.  Commands call it
    only after building the problem and their settings, so a config error
    leaves nothing behind."""
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(formats.dump_config_text(cfg))
    return out


def _build_problem(cfg: dict):
    p = cfg["problem"]
    rate_scale = p["rate_scale"]
    if rate_scale is not None:
        rate_scale = (float(rate_scale[0]), float(rate_scale[1]))
    A, x_true = make_test_problem(p["name"], int(p["size"]), rate_scale=rate_scale)
    data = sample_poisson_data(A, x_true, seed=formats.substream(cfg["seed"], "data"))
    return A, x_true, data


def _build_mask(spec, m: int) -> SparsityMask | None:
    if spec is None or spec == "none":
        return None
    if spec == "grid4":
        side = int(round(np.sqrt(m)))
        if side * side != m:
            raise ConfigError(f"grid4 mask needs a square grid; m={m}")
        return SparsityMask.grid4(side)
    return SparsityMask.banded(m, int(spec))


def _solver_config(cfg: dict, A) -> VgaConfig:
    s = cfg["solver"]
    mode = s["mode"]
    mask = _build_mask(s["sparsity"], A.n_cols) if mode == "lowrank_sparse" else None
    if mode == "lowrank_sparse" and mask is None:
        raise ConfigError("mode 'lowrank_sparse' requires solver.sparsity")
    vcfg = VgaConfig(
        max_outer=int(s["max_outer"]),
        mode=mode,
        rank=None if s["rank"] is None else int(s["rank"]),
        mask=mask,
        rsvd_seed=formats.substream_seed(cfg["seed"], "rsvd"),
    )
    vcfg.validate()
    return vcfg


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
    if state.mask is not None:
        rows, cols = state.mask.rows, state.mask.cols
        formats.write_csv(out / "cov_masked.csv", ["row", "col", "value"], [rows, cols, state.values])
    else:
        formats.write_vgam(out / "cov.vgam", state.cov)


def _fail(exc: Exception, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True))
    return code


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: dict) -> int:
    A, _x_true, data = _build_problem(cfg)
    prior = make_prior(cfg["prior"]["kind"], float(cfg["prior"]["alpha"]), A.n_cols)
    vcfg = _solver_config(cfg, A)
    out = _prepare_out(cfg)
    state, report = run_vga(A, data, prior, vcfg)
    _write_state(out, state)
    _write_json(
        out / "report.json",
        _report_dict(
            report,
            problem=cfg["problem"]["name"],
            mode=vcfg.mode,
            rank=vcfg.rank,
            final_elbo=report.elbo_trace[-1],
        ),
    )
    print(f"solve: converged={report.converged} elbo={report.elbo_trace[-1]:.10g} out={out}")
    if not report.converged:
        return _fail(MaxIterationsExceeded("solver exhausted max_outer without converging"), 1)
    return 0


def cmd_hyper(cfg: dict) -> int:
    A, _x_true, data = _build_problem(cfg)
    m = A.n_cols
    structure = make_prior(cfg["prior"]["kind"], 1.0, m)
    vcfg = _solver_config(cfg, A)
    h = cfg["hyper"]
    hcfg = HyperConfig(
        a=float(h["a"]),
        b=float(h["b"]),
        alpha_init=float(h["alpha_init"]),
        max_em=int(h["max_em"]),
        alpha_tol=float(h["alpha_tol"]),
        inner=vcfg,
    )
    hcfg.validate()
    out = _prepare_out(cfg)
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
    pts = int(h["grid_points"])
    dec = float(h["grid_decades"])
    grid = alpha_star * np.logspace(-dec, dec, pts)
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


def cmd_validate(cfg: dict) -> int:
    if cfg["solver"]["mode"] == "lowrank_sparse":
        raise ConfigError(
            "validate needs a full covariance for the sampler; mode 'lowrank_sparse' "
            "keeps only the masked entries"
        )
    A, _x_true, data = _build_problem(cfg)
    prior = make_prior(cfg["prior"]["kind"], float(cfg["prior"]["alpha"]), A.n_cols)
    vcfg = _solver_config(cfg, A)
    mc = cfg["mcmc"]
    mcfg = McmcConfig(
        chain_length=int(mc["chain_length"]),
        burn_in=int(mc["burn_in"]),
        seed=formats.substream_seed(cfg["seed"], "mcmc"),
    )
    mcfg.validate()
    gamma = float(mc["gamma"])
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"mcmc.gamma must lie in (0, 1), got {gamma}")
    out = _prepare_out(cfg)
    vga_state, report = run_vga(A, data, prior, vcfg)
    lap_state = laplace_approximation(A, data, prior)
    summary = mh_independence_sampler(A, data, prior, vga_state, mcfg, gamma=gamma)
    mcmc_state = GaussianState(summary.mean, summary.covariance)

    def _metrics(g1, g2):
        mean_l2, cov_spec, kl_fwd, kl_rev = compare_gaussians(g1, g2)
        return {
            "mean_l2": mean_l2,
            "cov_spectral": cov_spec,
            "kl_forward": kl_fwd,
            "kl_reverse": kl_rev,
        }

    _write_json(
        out / "compare.json",
        {
            "acceptance_rate": summary.acceptance_rate,
            "gamma": gamma,
            "n_kept": summary.n_kept,
            "thin": summary.thin,
            "mcmc_vs_vga": _metrics(mcmc_state, vga_state),
            "laplace_vs_vga": _metrics(lap_state, vga_state),
            "mcmc_vs_laplace": _metrics(mcmc_state, lap_state),
            "vga_converged": report.converged,
        },
    )
    vga_hpd = hpd_intervals(vga_state, gamma)
    lap_hpd = hpd_intervals(lap_state, gamma)
    formats.write_csv(
        out / "hpd.csv",
        ["i", "vga_low", "vga_high", "laplace_low", "laplace_high", "mcmc_low", "mcmc_high"],
        [
            np.arange(vga_state.dim),
            vga_hpd[:, 0],
            vga_hpd[:, 1],
            lap_hpd[:, 0],
            lap_hpd[:, 1],
            summary.intervals[:, 0],
            summary.intervals[:, 1],
        ],
    )
    formats.write_vgam(out / "chain.vgam", summary.samples)
    print(
        f"validate: acceptance={summary.acceptance_rate:.4f} "
        f"mean_l2={float(np.linalg.norm(summary.mean - vga_state.mean)):.6g} out={out}"
    )
    return 0


def _solution_errors(state, ref_state):
    """Errors vs the dense reference, in both matrix norms.

    Returns (e_mean, e_mean_rel, e_cov_fro, e_cov_fro_rel, e_cov_spec,
    e_cov_spec_rel): the spectral norm is what banded-sweep error tables
    conventionally report, the Frobenius norm what rank-sweep curves use;
    emitting both keeps the CSV norm-unambiguous.
    """
    e_mean = float(np.linalg.norm(state.mean - ref_state.mean))
    diff = (state.cov - ref_state.cov)
    diff = (diff + diff.T) / 2.0
    e_fro = float(np.linalg.norm(diff))
    e_spec = float(np.max(np.abs(np.linalg.eigvalsh(diff))))
    ref_fro = max(float(np.linalg.norm(ref_state.cov)), 1e-300)
    ref_spec = max(float(np.max(np.abs(np.linalg.eigvalsh(ref_state.cov)))), 1e-300)
    mean_scale = max(float(np.linalg.norm(ref_state.mean)), 1e-300)
    return (e_mean, e_mean / mean_scale, e_fro, e_fro / ref_fro, e_spec, e_spec / ref_spec)


_BENCH_ERROR_COLUMNS = ["e_mean", "e_mean_rel", "e_cov_fro", "e_cov_fro_rel", "e_cov_spec", "e_cov_spec_rel"]


def cmd_bench(cfg: dict) -> int:
    study = cfg["bench"]["study"]
    if study not in ("lowrank", "sparsity"):
        raise ConfigError(f"bench study must be 'lowrank' or 'sparsity', got {study!r}")
    A, _x_true, data = _build_problem(cfg)
    m = A.n_cols
    prior = make_prior(cfg["prior"]["kind"], float(cfg["prior"]["alpha"]), m)
    base = _solver_config(cfg, A)
    out = _prepare_out(cfg)
    dense_cfg = copy.deepcopy(base)
    dense_cfg.mode, dense_cfg.rank, dense_cfg.mask = "dense", None, None
    ref_state, ref_report = run_vga(A, data, prior, dense_cfg)

    if study == "lowrank":
        sweep = [int(r) for r in cfg["bench"]["ranks"]]
        names = ["rank"] + _BENCH_ERROR_COLUMNS

        def point_cfg(r):
            c = copy.deepcopy(base)
            c.mode, c.rank, c.mask = "lowrank", min(r, min(A.shape)), None
            return c
    else:
        sweep = [int(s) for s in cfg["bench"]["sparsities"]]
        rank = min(int(cfg["bench"]["rank"]), min(A.shape))
        names = ["sparsity"] + _BENCH_ERROR_COLUMNS

        def point_cfg(s):
            c = copy.deepcopy(base)
            c.mode, c.rank, c.mask = "lowrank_sparse", rank, SparsityMask.banded(m, s)
            return c

    def run_point(p):
        state, _ = run_vga(A, data, prior, point_cfg(p))
        return (p,) + _solution_errors(state, ref_state)

    # points are independent solver instances; results keep sweep order
    with ThreadPoolExecutor(max_workers=min(len(sweep), os.cpu_count() or 1)) as pool:
        rows = list(pool.map(run_point, sweep))
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
        p.add_argument(
            "--mode",
            choices=["dense", "lowrank", "lowrank_sparse"],
            default=None,
            help="solver execution mode",
        )
        p.add_argument("--rank", type=int, default=None, help="factorization rank")
        p.add_argument("--sparsity", type=str, default=None, help="mask: bandwidth or 'grid4'")
        if name == "bench":
            p.add_argument("--study", choices=["lowrank", "sparsity"], default=None)
    return parser


_COMMANDS = {"solve": cmd_solve, "hyper": cmd_hyper, "validate": cmd_validate, "bench": cmd_bench}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](cfg)
    except _CONFIG_ERRORS as exc:
        return _fail(exc, 2)
    except OSError as exc:
        return _fail(exc, 2)
    except PvgaError as exc:
        return _fail(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
