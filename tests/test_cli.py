"""End-to-end runs of the command-line entry point on small problems.

Each test drives ``main`` in-process with a throwaway output directory and
checks artifacts, exit codes, and the byte-level determinism contract.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from pvga.cli import _build_parser, _resolve_config, main
from pvga.formats import read_csv, read_vgam


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


def test_solve_missing_config_is_usage_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.cfg")]) == 2


_COMMANDS = ("solve", "hyper", "bench", "validate")


@pytest.mark.parametrize(
    "cmd, sections, extra",
    [pytest.param(c, {}, ("--mode", "lowrank"), id=f"{c}-no_rank") for c in _COMMANDS]
    + [pytest.param(c, {"problem": {"name": "nope"}}, (), id=f"{c}-unknown_problem")
       for c in _COMMANDS]
    + [
        pytest.param("hyper", {"hyper": {"a": 0.0}}, (), id="hyper-bad_a"),
        pytest.param("validate", {"mcmc": {"gamma": 1.5}}, (), id="validate-bad_gamma"),
        pytest.param("bench", {"bench": {"study": "nope"}}, (), id="bench-unknown_study"),
    ],
)
def test_solve_inconsistent_mode_is_usage_error(tmp_path, cmd, sections, extra):
    # config errors, also those found only once the problem is built, fail
    # before anything is written
    cfg = write_cfg(tmp_path, **sections)
    out = tmp_path / "o"
    assert run(cmd, cfg, out, *extra) == 2
    assert not out.exists()


def test_solve_masked_mode_without_rank_is_usage_error_at_every_size(tmp_path, capsys):
    # m = 1600 is above the size where a rank used to be picked silently
    cfg = write_cfg(tmp_path, problem={"name": "blur2d", "size": 40}, prior={"kind": "H1_2D"})
    assert run("solve", cfg, tmp_path / "o", "--mode", "lowrank_sparse", "--sparsity", "grid4") == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigError" and "requires an explicit rank" in err["message"]


@pytest.mark.parametrize(
    "section, key, value",
    [("solver", "pcg_tol", 1e-3), ("slover", "mode", "lowrank"), ("emit", "csv", False)],
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
        assert cfg["problem"]["name"] in block and cfg["solver"]["mode"] in block


def test_solve_budget_exhaustion_is_solver_failure(tmp_path):
    cfg = write_cfg(tmp_path, solver={"max_outer": 1})
    out = tmp_path / "o"
    assert run("solve", cfg, out) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False and report["stop_rule"] is None


def test_solve_masked_mode(tmp_path):
    cfg = write_cfg(tmp_path, solver={"mode": "lowrank_sparse", "rank": 30, "sparsity": 3})
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
    # does not have; the mode is refused before any fit or artifact
    cfg = write_cfg(tmp_path, problem={"name": "blur2d", "size": 16}, prior={"kind": "H1_2D"})
    out = tmp_path / "v"
    assert run("validate", cfg, out, "--mode", "lowrank_sparse", "--rank", "51", "--sparsity", "grid4") == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ConfigError"
    assert "full covariance" in err["message"] and "lowrank_sparse" in err["message"]
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


def test_unknown_problem_is_usage_error(tmp_path):
    cfg = write_cfg(tmp_path)
    text = (tmp_path / "run.cfg").read_text().replace('"phillips"', '"mystery"')
    (tmp_path / "run.cfg").write_text(text)
    assert run("solve", cfg, tmp_path / "o") == 2
