"""End-to-end runs of the command-line entry point on small problems.

Each test drives ``main`` in-process with a throwaway output directory and
checks artifacts, exit codes, and the byte-level determinism contract.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from pvga import cli
from pvga.cli import DEFAULTS, _build_parser, _build_problem, _resolve_config, main
from pvga.errors import InvalidAlpha, InvalidData, PvgaError
from pvga.formats import read_csv, read_vgam, substream_seed
from pvga.hyper import HyperConfig
from pvga.linalg import SparsityMask
from pvga.model import make_prior, make_test_problem, sample_poisson_data
from pvga.validate import McmcConfig
from pvga.vga import VgaConfig, run_vga


def write_cfg(tmp_path, name="run.cfg", **sections):
    """Small-problem base config with per-test overrides, key=value format."""
    base = {
        "problem.name": "phillips",
        "problem.size": 40,
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


def run(cmd, cfg, out, *extra):
    return main([cmd, "--config", cfg, "--out", str(out), *extra])


# -- solve -------------------------------------------------------------------


def test_solve_artifacts_and_rerun_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("solve", cfg, out1) == 0
    assert run("solve", cfg, out2) == 0

    for name in ("config.txt", "mean.csv", "cov.vgam", "report.json"):
        assert (out1 / name).is_file()
        if name != "config.txt":  # config embeds the differing out path
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    report = json.loads((out1 / "report.json").read_text())
    assert report["converged"] is True and report["stop_rule"] in ("bound", "fixed_point")
    assert report["problem"] == "phillips"
    assert "wall_time" not in report  # timings would break the determinism contract

    mean = read_csv(out1 / "mean.csv")["mean"]
    cov = read_vgam(out1 / "cov.vgam")
    assert mean.shape == (40,) and cov.shape == (40, 40)


def test_solve_seed_changes_data(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("solve", cfg, out1, "--seed", "0") == 0
    assert run("solve", cfg, out2, "--seed", "1") == 0
    assert (out1 / "mean.csv").read_bytes() != (out2 / "mean.csv").read_bytes()


def test_cli_draws_the_data_the_library_draws_for_a_seed():
    # the CLI, the acceptance tests and perfbench all draw a seed's data
    # from the generator seeded with substream_seed(seed, "data")
    cfg = {**DEFAULTS, "seed": 3}
    A, x_true, data = _build_problem(cfg)
    expect = sample_poisson_data(A, x_true, seed=substream_seed(3, "data"))
    np.testing.assert_array_equal(data.y, expect.y)


def test_cli_factors_a_as_the_library_does(tmp_path):
    # a factored fit reads the library's rsvd factor, at its default seed
    cfg = write_cfg(tmp_path, problem={"name": "blur2d", "size": 16}, prior={"kind": "H1_2D", "alpha": 1.0})
    out = tmp_path / "o"
    factored = ("--rank", "51", "--sparsity", "grid4")
    assert run("solve", cfg, out, "--seed", "0", *factored) == 0
    A, x_true = make_test_problem("blur2d", 16)
    data = sample_poisson_data(A, x_true, seed=substream_seed(0, "data"))
    vcfg = VgaConfig(rank=51, mask=SparsityMask.grid4(16))
    _, report = run_vga(A, data, make_prior("H1_2D", 1.0, 256), vcfg)
    assert json.loads((out / "report.json").read_text())["final_elbo"] == report.elbo_trace[-1]


def test_solve_missing_config_is_usage_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.cfg")]) == 2


_COMMANDS = ("solve", "hyper", "bench", "validate")


@pytest.mark.parametrize(
    "cmd, sections, extra",
    # a mask without a rank
    [pytest.param(c, {}, ("--sparsity", "3"), id=f"{c}-no_rank") for c in _COMMANDS]
    + [pytest.param(c, {"problem": {"name": "nope"}}, (), id=f"{c}-unknown_problem")
       for c in _COMMANDS]
    + [pytest.param(c, {}, ("--rank", "0"), id=f"{c}-rank_zero") for c in _COMMANDS]
    + [pytest.param(c, {}, ("--rank", "41"), id=f"{c}-rank_above_min_n_m") for c in _COMMANDS]
    + [pytest.param(c, {"problem": {"size": 20.9}}, (), id=f"{c}-size_not_integral") for c in _COMMANDS]
    + [
        pytest.param("hyper", {"hyper": {"a": 0.0}}, (), id="hyper-bad_a"),
        pytest.param("hyper", {"hyper": {"grid_points": -1}}, (), id="hyper-negative_grid_points"),
        pytest.param("bench", {"bench": {"study": "nope"}}, (), id="bench-unknown_study"),
        # bench sets each point's rank and mask, so the solver's are not read
        pytest.param("bench", {}, ("--rank", "10"), id="bench-dense_rank"),
        pytest.param("bench", {}, ("--rank", "10", "--sparsity", "3"), id="bench-lowrank_mask"),
        # the sampler needs the full covariance a masked fit does not hold
        pytest.param("validate", {}, ("--rank", "10", "--sparsity", "3"), id="validate-lowrank_mask"),
        pytest.param("bench", {"bench": {"ranks": [2, 0]}}, (), id="bench-rank_zero_in_sweep"),
        pytest.param("bench", {"bench": {"ranks": [2, 41]}}, (), id="bench-rank_above_min_n_m_in_sweep"),
        pytest.param("bench", {"bench": {"study": "sparsity", "rank": 41}}, (),
                     id="bench-sparsity_rank_above_min_n_m"),
        # integer settings that their integer conversion would change, and
        # an even band width, which would keep one entry per row fewer
        pytest.param("solve", {"solver": {"rank": 5.7}}, (), id="solve-rank_not_integral"),
        pytest.param("solve", {"solver": {"max_outer": True}}, (), id="solve-max_outer_true"),
        pytest.param("solve", {}, ("--rank", "30", "--sparsity", "4"),
                     id="solve-even_sparsity"),
        pytest.param("hyper", {"hyper": {"max_em": 2.5}}, (), id="hyper-max_em_not_integral"),
        pytest.param("hyper", {"hyper": {"grid_points": 3.5}}, (), id="hyper-grid_points_not_integral"),
        pytest.param("validate", {"mcmc": {"chain_length": 40000.5, "burn_in": 20000}}, (),
                     id="validate-chain_length_not_integral"),
        pytest.param("bench", {"bench": {"ranks": [2, 4.5]}}, (), id="bench-rank_not_integral_in_sweep"),
        pytest.param("bench", {"bench": {"study": "sparsity", "sparsities": [1, 4], "rank": 30}}, (),
                     id="bench-even_sparsity_in_sweep"),
        pytest.param("bench", {"bench": {"study": "sparsity", "rank": 30.5}}, (),
                     id="bench-sparsity_rank_not_integral"),
        # a rank setting that the study does not read is still checked
        pytest.param("bench", {"bench": {"study": "sparsity", "ranks": "junk", "rank": 30}}, (),
                     id="bench-sparsity_ranks_string"),
        pytest.param("bench", {"bench": {"rank": "junk"}}, (), id="bench-lowrank_rank_string"),
        # a chain the sampler would refuse for keeping fewer than 100 samples
        pytest.param("validate", {"mcmc": {"chain_length": 20150, "burn_in": 20100}}, (),
                     id="validate-kept_below_100"),
        # real-valued settings that float() would take or cut short
        pytest.param("solve", {"prior": {"alpha": True}}, (), id="solve-alpha_true"),
        pytest.param("solve", {"prior": {"alpha": "10"}}, (), id="solve-alpha_string"),
        pytest.param("solve", {"problem": {"rate_scale": [0.5, 50.0, 7]}}, (), id="solve-rate_scale_three"),
        pytest.param("solve", {"problem": {"rate_scale": [0.5]}}, (), id="solve-rate_scale_one"),
        pytest.param("hyper", {"hyper": {"b": True}}, (), id="hyper-b_true"),
        # a prior strength that EM does not read is still checked
        pytest.param("hyper", {"prior": {"alpha": "junk"}}, (), id="hyper-alpha_string"),
        pytest.param("hyper", {"hyper": {"alpha_tol": float("inf")}}, (), id="hyper-alpha_tol_infinite"),
        # a package error raised while the problem is built
        pytest.param("solve", {"problem": {"size": 9000}}, (), id="solve-size_too_large"),
    ],
)
def test_solve_inconsistent_mode_is_usage_error(tmp_path, cmd, sections, extra):
    # config errors, also those found only once the problem is built, fail
    # before anything is written; so do settings the command would ignore
    cfg = write_cfg(tmp_path, **sections)
    out = tmp_path / "o"
    assert run(cmd, cfg, out, *extra) == 2
    assert not out.exists()


_NAN, _INF = float("nan"), float("inf")
_BAND3 = SparsityMask.banded(40, 3)


@pytest.mark.parametrize(
    "field, build",
    [
        # the cases of test_solve_inconsistent_mode_is_usage_error that a library setting decides
        pytest.param("size", lambda: make_test_problem("phillips", 20.9), id="size_20.9"),
        pytest.param("rank", lambda: VgaConfig(rank=5.7).validate(), id="rank_5.7"),
        pytest.param("max_outer", lambda: VgaConfig(max_outer=True).validate(), id="max_outer_true"),
        pytest.param("max_em", lambda: HyperConfig(max_em=2.5).validate(), id="max_em_2.5"),
        pytest.param("chain_length", lambda: McmcConfig(chain_length=40000.5, burn_in=20000).validate(),
                     id="chain_length_40000.5"),
        pytest.param("rank", lambda: VgaConfig(rank=4.5).validate(), id="bench_rank_4.5"),
        pytest.param("rank", lambda: VgaConfig(rank=30.5, mask=_BAND3).validate(),
                     id="bench_rank_30.5"),
        pytest.param("alpha", lambda: make_prior("L2", True, 40), id="alpha_true"),
        pytest.param("alpha", lambda: make_prior("L2", "10", 40), id="alpha_string"),
        pytest.param("rate_scale", lambda: make_test_problem("phillips", 40, rate_scale=[0.5, 50.0, 7]),
                     id="rate_scale_three"),
        pytest.param("rate_scale", lambda: make_test_problem("phillips", 40, rate_scale=[0.5]),
                     id="rate_scale_one"),
        pytest.param("b", lambda: HyperConfig(b=True).validate(), id="b_true"),
        pytest.param("alpha_tol", lambda: HyperConfig(alpha_tol=_INF).validate(), id="alpha_tol_inf"),
        # values each library entry point accepted on its own
        pytest.param("max_outer", lambda: VgaConfig(max_outer=2.5).validate(), id="max_outer_2.5"),
        pytest.param("rank", lambda: VgaConfig(rank=True).validate(), id="rank_true"),
        pytest.param("a", lambda: HyperConfig(a=_NAN).validate(), id="a_nan"),
        pytest.param("b", lambda: HyperConfig(b=_INF).validate(), id="b_inf"),
        pytest.param("alpha_init", lambda: HyperConfig(alpha_init=_INF).validate(), id="alpha_init_inf"),
        pytest.param("alpha_tol", lambda: HyperConfig(alpha_tol=_NAN).validate(), id="alpha_tol_nan"),
        pytest.param("chain_length", lambda: McmcConfig(chain_length=2000.5, burn_in=1000).validate(),
                     id="chain_length_2000.5"),
        pytest.param("seed", lambda: McmcConfig(seed=2.5).validate(), id="mcmc_seed_2.5"),
        pytest.param("seed", lambda: McmcConfig(seed=True).validate(), id="mcmc_seed_true"),
        pytest.param("size", lambda: make_test_problem("phillips", 20.0), id="size_20.0"),
        pytest.param("rate_scale", lambda: make_test_problem("phillips", 40, rate_scale=(0.5, _INF)),
                     id="rate_scale_inf"),
        pytest.param("s", lambda: SparsityMask.banded(40, True), id="band_width_true"),
        pytest.param("seed", lambda: substream_seed(2.5, "data"), id="substream_seed_2.5"),
        pytest.param("seed", lambda: substream_seed(True, "data"), id="substream_seed_true"),
    ],
)
def test_library_refuses_what_the_cli_passes_through(field, build):
    # the CLI hands config values to the library as they are: each type and
    # range check lives in the config or constructor that takes the value
    with pytest.raises(PvgaError, match=rf"\b{field} must"):
        build()


def test_solve_masked_mode_without_rank_is_usage_error_at_every_size(tmp_path, capsys):
    # m = 1600 is above the size where a rank used to be picked silently
    cfg = write_cfg(tmp_path, problem={"name": "blur2d", "size": 40}, prior={"kind": "H1_2D"})
    assert run("solve", cfg, tmp_path / "o", "--sparsity", "grid4") == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "mask needs a rank" in err["message"]


@pytest.mark.parametrize(
    "extra, mode, artifact",
    [((), "dense", "cov.vgam"), (("--rank", "10"), "lowrank", "cov.vgam"),
     (("--rank", "10", "--sparsity", "3"), "lowrank_sparse", "cov_masked.csv")],
    ids=["dense", "lowrank", "masked"],
)
def test_rank_and_mask_choose_the_mode(tmp_path, extra, mode, artifact):
    # no rank is a dense fit, a rank a low-rank one, a rank and a mask a
    # masked one; report.json labels the mode they give
    out = tmp_path / "o"
    assert run("solve", write_cfg(tmp_path), out, *extra) == 0
    assert json.loads((out / "report.json").read_text())["mode"] == mode
    assert (out / artifact).is_file()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("solver", "pcg_tol", 1e-3),
        ("solver", "mode", "dense"),  # the mode follows from rank and mask
        ("slover", "mode", "lowrank"),
        ("emit", "csv", False),
        ("mcmc", "gamma", 1.5),
        ("hyper", "grid_decades", 2.0),
    ],
)
def test_unknown_config_key_is_usage_error(tmp_path, capsys, section, key, value):
    # removed settings, misspelled sections and keys fail loudly, before the
    # output directory is created, instead of being copied and ignored
    cfg = write_cfg(tmp_path, **{section: {key: value}})
    out = tmp_path / "o"
    assert run("solve", cfg, out) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and f"{section}.{key}" in err["message"]
    assert not out.exists()


def test_readme_configs_resolve(tmp_path):
    # every documented config names only keys the CLI accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme{i}.cfg"
        path.write_text(block)
        cfg = _resolve_config(_build_parser().parse_args(["solve", "--config", str(path)]))
        assert cfg["problem"]["name"] in block and cfg["prior"]["kind"] in block


def test_solve_budget_exhaustion_is_solver_failure(tmp_path):
    cfg = write_cfg(tmp_path, solver={"max_outer": 1})
    out = tmp_path / "o"
    assert run("solve", cfg, out) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False and report["stop_rule"] is None


def test_solve_masked_mode(tmp_path):
    cfg = write_cfg(tmp_path, solver={"rank": 30, "sparsity": 3})
    out = tmp_path / "o"
    assert run("solve", cfg, out) == 0
    assert (out / "cov_masked.csv").is_file()
    masked = read_csv(out / "cov_masked.csv")
    assert {"row", "col", "value"} <= set(masked)
    assert not (out / "cov.vgam").exists()


# -- hyper -------------------------------------------------------------------


def test_hyper_two_starts_and_grid(tmp_path):
    alphas = []
    for start in (0.1, 10.0):
        cfg = write_cfg(tmp_path, name=f"h{start}.cfg", hyper={"alpha_init": start, "alpha_tol": 1e-6})
        out = tmp_path / f"h{start}"
        assert run("hyper", cfg, out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["em_iterations"] == len(report["alpha_sequence"]) - 1
        assert isinstance(report["rejected_alphas"], list)
        alphas.append(report["alpha_star"])

        trace = read_csv(out / "hyper_trace.csv")
        diffs = np.diff(trace["alpha"])
        moving = diffs[np.abs(diffs) > 1e-12]
        assert np.all(moving > 0) or np.all(moving < 0)

        grid = read_csv(out / "alpha_grid.csv")
        assert grid["alpha"].shape == (30,)
        peak = grid["alpha"][np.argmax(grid["joint_bound"])]
        cell = (grid["alpha"][-1] / grid["alpha"][0]) ** (1.0 / 29.0)
        assert abs(np.log(peak / report["alpha_star"])) <= np.log(cell) * 1.5

    assert abs(alphas[0] - alphas[1]) <= 1e-3 * alphas[1]


# -- validate ----------------------------------------------------------------


def test_validate_schema_and_metrics(tmp_path):
    cfg = write_cfg(tmp_path, mcmc={"chain_length": 40_000, "burn_in": 20_000})
    out = tmp_path / "v"
    assert run("validate", cfg, out) == 0

    comp = json.loads((out / "compare.json").read_text())
    assert 0.0 <= comp["acceptance_rate"] <= 1.0
    for block in ("mcmc_vs_vga", "laplace_vs_vga", "mcmc_vs_laplace"):
        metrics = comp[block]
        assert set(metrics) == {"mean_l2", "cov_spectral", "kl_forward", "kl_reverse"}
        assert all(np.isfinite(v) for v in metrics.values())
    assert comp["vga_converged"] is True

    hpd = read_csv(out / "hpd.csv")
    assert hpd["i"].shape == (40,)
    for kind in ("vga", "laplace", "mcmc"):
        assert np.all(hpd[f"{kind}_high"] > hpd[f"{kind}_low"])

    chain = read_vgam(out / "chain.vgam")
    assert chain.shape == (comp["n_kept"], 40)


def test_validate_masked_mode_is_config_error(tmp_path, capsys):
    # the sampler draws from the fit's full covariance, which a masked fit
    # does not have; the mask is refused before any fit or artifact
    cfg = write_cfg(tmp_path, problem={"name": "blur2d", "size": 16}, prior={"kind": "H1_2D"})
    out = tmp_path / "v"
    assert run("validate", cfg, out, "--rank", "51", "--sparsity", "grid4") == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert "full covariance" in err["message"] and "solver.sparsity" in err["message"]
    assert not out.exists()


def test_validate_chain_keeping_no_more_samples_than_m_is_config_error(tmp_path, capsys):
    # 20000 steps after a burn-in of 10000, thinned by 10 at m = 1001, keep
    # 1000 samples, whose covariance is singular: compare_gaussians would
    # fail on its Cholesky factor after the output is written
    cfg = write_cfg(tmp_path, problem={"size": 1001}, mcmc={"chain_length": 20000, "burn_in": 10000})
    out = tmp_path / "v"
    assert run("validate", cfg, out) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "keeps 1000 samples (every 10" in err["message"]
    assert not out.exists()


# -- bench -------------------------------------------------------------------


def test_bench_lowrank_errors_shrink(tmp_path):
    cfg = write_cfg(tmp_path, bench={"ranks": [2, 6, 12]})
    out = tmp_path / "b"
    assert run("bench", cfg, out) == 0
    rows = read_csv(out / "bench.csv")
    assert rows["rank"].tolist() == [2.0, 6.0, 12.0]
    assert rows["e_mean"][-1] < rows["e_mean"][0]
    assert rows["e_cov_fro"][-1] < rows["e_cov_fro"][0]
    report = json.loads((out / "report.json").read_text())
    assert report["points"] == 3 and report["reference_converged"] is True


def test_bench_sparsity_band_ordering(tmp_path):
    cfg = write_cfg(tmp_path, bench={"study": "sparsity", "sparsities": [1, 5], "rank": 30})
    out = tmp_path / "b"
    assert run("bench", cfg, out) == 0
    rows = read_csv(out / "bench.csv")
    assert rows["sparsity"].tolist() == [1.0, 5.0]
    assert np.all(np.isfinite(rows["e_cov_spec"]))
    assert rows["e_mean"][1] <= rows["e_mean"][0]


@pytest.mark.parametrize(
    "sections, extra, key",
    [({}, ("--rank", "7"), "solver.rank"),
     ({"solver": {"rank": 7, "sparsity": 3}}, (), "solver.rank"),
     ({"solver": {"sparsity": 3}}, (), "solver.sparsity")],
    ids=["rank_flag", "rank_and_mask_in_config", "mask_in_config"],
)
def test_bench_refuses_the_solver_rank_and_mask(tmp_path, capsys, sections, extra, key):
    # each point sets its own rank and mask and the reference is dense, so a
    # solver rank or mask would be copied into config.txt and never read
    out = tmp_path / "o"
    assert run("bench", write_cfg(tmp_path, **sections), out, *extra) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and f"{key} is not read" in err["message"]
    assert not out.exists()


def test_bench_rerun_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, bench={"ranks": [2, 6]})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("bench", cfg, out1) == 0
    assert run("bench", cfg, out2) == 0
    assert (out1 / "bench.csv").read_bytes() == (out2 / "bench.csv").read_bytes()


# -- argument handling ---------------------------------------------------------


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):  # --rank and --sparsity choose the mode
        main(["solve", "--mode", "dense"])


@pytest.mark.parametrize("cmd", _COMMANDS)
def test_errors_after_the_output_is_written_are_run_failures(tmp_path, monkeypatch, capsys, cmd):
    # ValueError-derived errors (LinAlgError among them) and InvalidData or
    # InvalidAlpha are config errors only before the output directory is
    # written; from there on a package error exits 1 and any other
    # propagates
    cfg = write_cfg(tmp_path)
    for k, exc in enumerate((np.linalg.LinAlgError("SVD did not converge"), InvalidData("d"), InvalidAlpha("a"))):

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "run_vga", fail)
        monkeypatch.setattr(cli, "run_hierarchical", fail)
        out = tmp_path / f"o{k}"
        if isinstance(exc, np.linalg.LinAlgError):
            with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                run(cmd, cfg, out)
        else:
            assert run(cmd, cfg, out) == 1
            err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
            assert err["error"] == type(exc).__name__
        assert (out / "config.txt").is_file()


def test_unknown_problem_is_usage_error(tmp_path):
    cfg = write_cfg(tmp_path)
    text = (tmp_path / "run.cfg").read_text().replace('"phillips"', '"mystery"')
    (tmp_path / "run.cfg").write_text(text)
    assert run("solve", cfg, tmp_path / "o") == 2
