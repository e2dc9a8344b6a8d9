import functools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml

import duallab.cli as cli
from duallab import market
from duallab.config import MAX_DRIVER_BYTES, ConfigError, load_config, validate_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def small(raw, paths=2_000):
    raw = dict(raw)
    raw["mc"] = {**raw["mc"], "paths": paths}
    return raw


def load_raw(name):
    with open(CONFIG_DIR / name) as fh:
        return yaml.safe_load(fh)


def test_bundled_configs_validate():
    for name in ("merton_log.yaml", "robust_merton.yaml", "jump_dual.yaml",
                 "convergence_bsde.yaml", "convergence_product.yaml"):
        cfg = load_config(CONFIG_DIR / name)
        assert cfg.seed == 20240521


def test_unknown_key_rejected():
    raw = load_raw("merton_log.yaml")
    raw["market"]["volatility"] = 0.3
    with pytest.raises(ConfigError, match="market.volatility"):
        validate_config(raw)


def test_missing_seed_rejected():
    raw = load_raw("merton_log.yaml")
    del raw["mc"]["seed"]
    with pytest.raises(ConfigError, match="mc.seed"):
        validate_config(raw)


def test_missing_seed_exit_code(tmp_path, capsys):
    raw = load_raw("merton_log.yaml")
    del raw["mc"]["seed"]
    cfg_file = tmp_path / "bad.yaml"
    cfg_file.write_text(yaml.safe_dump(raw))
    code = cli.main(["primal", "--config", str(cfg_file)])
    assert code == 2
    assert "mc.seed" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("mc", "paths", "abc"), ("mc", "paths", 0), ("mc", "paths", 2.5), ("mc", "paths", True),
    ("mc", "seed", "abc"), ("mc", "seed", -1), ("mc", "seed", 1.5), ("mc", "seed", 2**128),
    ("grid", "steps", "abc"), ("grid", "steps", 0), ("grid", "steps", -3),
])
def test_bad_integer_field_exit_code(tmp_path, capsys, section, key, value):
    raw = load_raw("merton_log.yaml")
    raw[section][key] = value
    cfg_file = tmp_path / "bad.yaml"
    cfg_file.write_text(yaml.safe_dump(raw))
    code = cli.main(["primal", "--config", str(cfg_file), "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {section}.{key} must be an integer")
    assert not (tmp_path / "run").exists()


def test_largest_philox_key_is_a_valid_seed():
    raw = load_raw("merton_log.yaml")
    raw["mc"]["seed"] = 2**128 - 1
    cfg = validate_config(raw)
    ens = market.simulate_drivers(cfg.market_model(), cfg.time_grid(), 4, cfg.seed)
    assert ens.brownian_increments.shape == (4, cfg.n_steps)


def test_missing_config_file_exit_code(capsys):
    assert cli.main(["primal", "--config", "/nonexistent.yaml"]) == 2


@pytest.mark.parametrize("text", ["", "- market\n- grid\n"], ids=["empty", "list-root"])
def test_non_mapping_config_exit_code(tmp_path, capsys, text):
    cfg_file = tmp_path / "bad.yaml"
    cfg_file.write_text(text)
    assert cli.main(["primal", "--config", str(cfg_file)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_jump_entry_rejected():
    raw = load_raw("jump_dual.yaml")
    raw["market"]["jumps"][0]["size"] = 0.2
    with pytest.raises(ConfigError, match=r"jumps\[0\]"):
        validate_config(raw)


def test_primal_experiment_end_to_end(tmp_path):
    raw = small(load_raw("merton_log.yaml"))
    raw["out"] = str(tmp_path / "run")
    result = cli.run_experiment(validate_config(raw))
    assert result["pi"] == 1.25
    solution = json.loads((tmp_path / "run" / "solution.json").read_text())
    assert solution["pi"] == 1.25
    assert solution["config_hash"] == validate_config(raw).hash()
    candidates = (tmp_path / "run" / "candidates.csv").read_text().splitlines()
    assert candidates[0].startswith("# config_hash=")
    assert len(candidates) == 2 + 51


def test_robust_experiment_end_to_end(tmp_path):
    raw = small(load_raw("robust_merton.yaml"))
    raw["out"] = str(tmp_path / "run")
    result = cli.run_experiment(validate_config(raw))
    assert result["pi"] == 0.625 and result["mu"] == -0.125
    assert result["is_saddle"] is True
    assert result["pi_ratio_vs_nonrobust"] == 0.5
    matrix = (tmp_path / "run" / "payoff_matrix.csv").read_text().splitlines()
    assert len(matrix) == 2 + 21 * 21


def test_dual_experiment_end_to_end(tmp_path):
    raw = small(load_raw("jump_dual.yaml"), paths=5_000)
    raw["out"] = str(tmp_path / "run")
    result = cli.run_experiment(validate_config(raw))
    assert abs(result["theta1"][0] - (-3.0 + 2.0 * math.sqrt(2.0))) < 0.1
    assert "replication" in result


def test_reproducibility_byte_identical(tmp_path):
    raw = small(load_raw("merton_log.yaml"))
    raw["out"] = str(tmp_path / "a")
    cli.run_experiment(validate_config(raw))
    first = (tmp_path / "a" / "solution.json").read_bytes()
    raw["out"] = str(tmp_path / "b")
    cli.run_experiment(validate_config(raw))
    second = (tmp_path / "b" / "solution.json").read_bytes()
    # the output directory is not part of the hashed identity of the run
    assert first == second


def test_seed_changes_output(tmp_path):
    raw = small(load_raw("merton_log.yaml"))
    raw["out"] = str(tmp_path / "a")
    base = cli.run_experiment(validate_config(raw))
    raw["mc"]["seed"] = 7
    raw["out"] = str(tmp_path / "b")
    other = cli.run_experiment(validate_config(raw))
    assert base["pi"] == other["pi"] == 1.25  # argmax is seed-independent
    assert base["derivative_check"] != other["derivative_check"]


def test_simulate_mode(tmp_path):
    raw = small(load_raw("merton_log.yaml"), paths=50)
    raw["mode"] = "simulate"
    raw["out"] = str(tmp_path / "run")
    cli.run_experiment(validate_config(raw))
    assert (tmp_path / "run" / "paths.csv").exists()
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["channels"]["S"]["min"] > 0


def test_manifest_records_library_versions(tmp_path):
    raw = small(load_raw("merton_log.yaml"), paths=10)
    raw["mode"] = "simulate"
    raw["out"] = str(tmp_path / "run")
    cli.run_experiment(validate_config(raw))
    versions = json.loads((tmp_path / "run" / "manifest.json").read_text())["versions"]
    assert versions["numpy"] == np.__version__
    assert versions["scipy"] == scipy.__version__
    assert versions["pyyaml"] == yaml.__version__


def _fresh_version_cache(monkeypatch):
    """An empty per-process cache of the scipy version, for this test only."""
    monkeypatch.setattr(cli, "_scipy_version", functools.cache(cli._scipy_version.__wrapped__))


def test_manifest_reads_scipy_version_once(monkeypatch):
    lookups = []
    original = cli.metadata.version

    def version(name):
        lookups.append(name)
        return original(name)

    monkeypatch.setattr(cli.metadata, "version", version)
    _fresh_version_cache(monkeypatch)
    cfg = validate_config(small(load_raw("merton_log.yaml"), paths=10))
    first, second = cli._manifest(cfg), cli._manifest(cfg)
    assert lookups == ["scipy"]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["versions"]["scipy"] == scipy.__version__


def test_manifest_leaves_out_scipy_when_not_installed(tmp_path, monkeypatch):
    def version(name):
        if name == "scipy":
            raise cli.metadata.PackageNotFoundError(name)
        raise AssertionError(f"unexpected lookup of {name}")

    monkeypatch.setattr(cli.metadata, "version", version)
    _fresh_version_cache(monkeypatch)
    raw = small(load_raw("merton_log.yaml"), paths=10)
    raw["mode"] = "simulate"
    raw["out"] = str(tmp_path / "run")
    cli.run_experiment(validate_config(raw))
    versions = json.loads((tmp_path / "run" / "manifest.json").read_text())["versions"]
    assert sorted(versions) == ["duallab", "numpy", "python", "pyyaml"]


def _refuse_allocation(monkeypatch):
    """Make any driver simulation or time-grid evaluation fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("an oversized run reached allocation")

    monkeypatch.setattr(cli, "simulate_drivers", refuse)
    monkeypatch.setattr(market, "simulate_drivers", refuse)
    monkeypatch.setattr(market.TimeGrid, "times", property(refuse))


@pytest.mark.parametrize("flag, value", [("--paths", "10000000"), ("--steps", "100000000")])
def test_oversized_run_refused_before_allocation(tmp_path, capsys, monkeypatch, flag, value):
    _refuse_allocation(monkeypatch)
    code = cli.main(["dual", "--config", str(CONFIG_DIR / "jump_dual.yaml"),
                     flag, value, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: mc.paths = ") and "reduce mc.paths" in err
    assert not (tmp_path / "run").exists()


def test_driver_bytes_limit_is_inclusive(monkeypatch):
    raw = load_raw("merton_log.yaml")  # no jumps: 64 steps are 512 bytes per path
    raw["grid"]["steps"] = 64
    raw["mc"]["paths"] = MAX_DRIVER_BYTES // 512
    assert raw["mc"]["paths"] * 512 == MAX_DRIVER_BYTES
    validate_config(raw)
    raw["mc"]["paths"] += 1
    _refuse_allocation(monkeypatch)
    with pytest.raises(ConfigError, match="mc.paths"):
        validate_config(raw)


def test_oversized_convergence_ladder_refused(monkeypatch):
    _refuse_allocation(monkeypatch)
    raw = load_raw("convergence_bsde.yaml")
    raw["convergence"]["paths"] = [10_000, 10**8]
    with pytest.raises(ConfigError, match="^convergence.paths = 100000000 with 100 steps"):
        validate_config(raw)
    raw["convergence"]["paths"] = ["many"]
    with pytest.raises(ConfigError, match="must list integers"):
        validate_config(raw)


def test_runs_build_the_price_only_when_they_read_it(tmp_path, monkeypatch):
    calls = []
    original = market.price_paths

    def counting(model, ensemble):
        calls.append(ensemble.n_paths)
        return original(model, ensemble)

    monkeypatch.setattr(market, "price_paths", counting)
    monkeypatch.setattr(cli, "price_paths", counting)
    for name, case in (("merton_log.yaml", "merton_log"), ("robust_merton.yaml", "robust_merton")):
        raw = small(load_raw(name), paths=500)
        raw.update(mode="bridge-check", bridge={"case": case, "adjoints": "analytic"},
                   out=str(tmp_path / case))
        cli.run_experiment(validate_config(raw))
    raw = small(load_raw("robust_merton.yaml"), paths=500)
    raw["robust"] = {"phi_grid": {"min": 0.125, "max": 1.125, "count": 5},
                     "mu_grid": {"min": -0.25, "max": 0.0, "count": 5}}
    raw["out"] = str(tmp_path / "robust")
    cli.run_experiment(validate_config(raw))
    assert calls == []
    # replication and simulate read S: built once each
    raw = small(load_raw("jump_dual.yaml"), paths=501)
    raw["out"] = str(tmp_path / "dual")
    cli.run_experiment(validate_config(raw))
    raw = small(load_raw("merton_log.yaml"), paths=502)
    raw.update(mode="simulate", out=str(tmp_path / "simulate"))
    cli.run_experiment(validate_config(raw))
    assert calls == [501, 502]


def test_convergence_bsde_mode(tmp_path):
    raw = load_raw("convergence_bsde.yaml")
    raw["convergence"]["paths"] = [5_000, 10_000, 20_000]
    raw["out"] = str(tmp_path / "run")
    result = cli.run_experiment(validate_config(raw))
    errors = [result["errors"][str(n)] for n in (5_000, 10_000, 20_000)]
    assert errors[2] <= 1.5 * errors[1] or errors[2] <= 1.5 * errors[0]
    assert all(e < 0.02 for e in errors)


def test_convergence_product_identity_mode(tmp_path):
    raw = load_raw("convergence_product.yaml")
    raw["mc"]["paths"] = 2_000
    raw["out"] = str(tmp_path / "run")
    result = cli.run_experiment(validate_config(raw))
    rows = {r["steps"]: r for r in result["rows"]}
    assert rows[200]["deviation_euler"] < rows[25]["deviation_euler"]
    assert all(r["deviation_exact"] < 1e-12 for r in result["rows"])


def test_cli_overrides(tmp_path):
    out = tmp_path / "run"
    code = cli.main([
        "robust", "--config", str(CONFIG_DIR / "robust_merton.yaml"),
        "--paths", "1000", "--out", str(out),
        "--phi-grid", "0.125:1.125:11", "--mu-grid=-0.25:0.0:11",
    ])
    assert code == 0
    matrix = (out / "payoff_matrix.csv").read_text().splitlines()
    assert len(matrix) == 2 + 11 * 11


def test_bridge_check_mode(tmp_path):
    raw = small(load_raw("merton_log.yaml"), paths=2_000)
    raw["mode"] = "bridge-check"
    raw["bridge"] = {"case": "merton_log", "adjoints": "analytic"}
    raw["out"] = str(tmp_path / "run")
    result = cli.run_experiment(validate_config(raw))
    assert result["pi_recovered"] == pytest.approx(1.25, abs=1e-12)
    for entry in result["identities_forward"].values():
        assert entry["max_abs"] < 1e-12
    assert result["product_identity_max_dev"] < 1e-12


@pytest.mark.parametrize("name, case", [("merton_log.yaml", "merton_log"),
                                        ("robust_merton.yaml", "robust_merton")])
def test_regression_bridge_check_is_refused_with_its_reason(tmp_path, capsys, name, case):
    raw = small(load_raw(name), paths=1_000)
    raw.update(mode="bridge-check", bridge={"case": case, "adjoints": "regression"})
    cfg_file = tmp_path / "bridge.yaml"
    cfg_file.write_text(yaml.safe_dump(raw))
    run = ["bridge-check", "--config", str(cfg_file), "--out", str(tmp_path / "run")]
    assert cli.main(run) == 1
    err = capsys.readouterr().err
    assert err.startswith("duallab.bridge.BridgeViolationError: regression adjoints give a "
                          "path-dependent fraction; bridged fraction is not constant: it "
                          "deviates from its mean ")
    assert err.rstrip().endswith("no scalar reduction; run bridge-check with --mode analytic")
    worst = float(re.search(r" by up to ([0-9.e+-]+), above 1e-09", err).group(1))
    assert worst > 1e-9
    # the pointer holds: --mode overrides the bridge section's adjoints
    assert cli.main(run + ["--mode", "analytic"]) == 0


def test_bridge_check_robust_case(tmp_path):
    raw = small(load_raw("robust_merton.yaml"), paths=2_000)
    raw["mode"] = "bridge-check"
    raw["bridge"] = {"case": "robust_merton", "adjoints": "analytic"}
    raw["out"] = str(tmp_path / "run")
    result = cli.run_experiment(validate_config(raw))
    assert result["mu_recovered"] == result["mu_transferred"]
    assert result["pi_recovered"] == pytest.approx(0.625, abs=1e-12)
    assert result["product_identity_max_dev"] < 1e-12


@pytest.mark.parametrize("scale", [1.0, 7.0 / 3.0])
def test_robust_pi_ratio_is_computed(tmp_path, scale):
    # the closed form c*b/((1+c) sigma^2) lies on the phi grid at both scales
    raw = small(load_raw("robust_merton.yaml"))
    raw["penalty"] = {"name": "quadratic", "scale": scale}
    raw["out"] = str(tmp_path / "run")
    result = cli.run_experiment(validate_config(raw))
    assert result["pi"] == pytest.approx(result["closed_form"]["pi"], rel=1e-12)
    assert result["pi_ratio_vs_nonrobust"] == pytest.approx(scale / (1.0 + scale), rel=1e-12)
    if scale == 1.0:
        assert result["pi_ratio_vs_nonrobust"] == 0.5


def _diagnostics(tmp_path, name, **overrides):
    raw = small(load_raw(name))
    raw.update(overrides)
    raw["out"] = str(tmp_path / "run")
    cli.run_experiment(validate_config(raw))
    solution = json.loads((tmp_path / "run" / "solution.json").read_text())
    return solution, json.loads((tmp_path / "run" / "diagnostics.json").read_text())


def test_diagnostics_grid_edge_unset_at_interior_argmax(tmp_path):
    solution, diag = _diagnostics(tmp_path, "merton_log.yaml")
    assert solution["pi"] == 1.25 and diag["grid_edge"] is False
    assert diag["excluded"] == 0
    # pi = 0 is not among the candidates, so only t0 has a deterministic state
    assert diag["bsde"]["rank_deficient_steps"] == 1
    assert diag["bsde"]["constant_state_steps"] == 1
    assert diag["bsde"]["max_cond"] >= 1.0 and diag["bsde"]["max_fit_rmse"] > 0.0
    assert "grid_edge" not in solution


def test_diagnostics_grid_edge_set_at_boundary_argmax(tmp_path):
    # the unconstrained optimum 1.25 lies beyond the grid, so the argmax is its last value
    solution, diag = _diagnostics(tmp_path, "merton_log.yaml",
                                  primal={"grid_min": 0.0, "grid_max": 1.0, "grid_step": 0.05})
    assert solution["pi"] == 1.0 and diag["grid_edge"] is True


def test_diagnostics_of_dual_and_robust_runs(tmp_path):
    _, diag = _diagnostics(tmp_path / "dual", "jump_dual.yaml")
    assert diag["grid_edge"] is False and diag["excluded"] == 0
    assert set(diag["bsde"]) == {"rank_deficient_steps", "constant_state_steps", "max_cond",
                                 "max_fit_rmse"}
    # only t0 has a deterministic state
    assert diag["bsde"]["constant_state_steps"] == 1
    _, diag = _diagnostics(tmp_path / "robust", "robust_merton.yaml", adjoints="analytic")
    assert diag == {"grid_edge": False, "excluded": 0, "config_hash": diag["config_hash"]}
