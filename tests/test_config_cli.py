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
from duallab import dual, market, mc, preferences
from duallab.config import (EVENT_TAIL_LOG, MAX_DRIVER_BYTES, MAX_GRID_CANDIDATES, ConfigError,
                            _event_bound, load_config, validate_config)

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


@pytest.mark.parametrize("section", ["market", "grid", "mc"])
def test_missing_section_exit_code_names_the_field(tmp_path, capsys, section):
    raw = load_raw("merton_log.yaml")
    del raw[section]
    cfg_file = tmp_path / "bad.yaml"
    cfg_file.write_text(yaml.safe_dump(raw))
    assert cli.main(["primal", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err.strip() == (
        f"configuration error: missing required configuration field: {section}")


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


@pytest.mark.parametrize("where, value, named", [
    ("x0", "abc", "x0"), ("x0", -1.0, "x0"), ("y", 0.0, "y"),
    ("market.drift", "fast", "market.drift"), ("market.vol", True, "market.vol"),
    ("market.s0", -2.0, "market.s0"), ("market.horizon", 0.0, "market.horizon"),
    ("market.jumps", [{"mark": "big", "intensity": 1.0}], "market.jumps[0].mark"),
    ("market.jumps", [{"mark": 0.1, "intensity": None}], "market.jumps[0].intensity"),
    # valid numbers, but no market: a jump of -150% and a negative intensity
    ("market.jumps", [{"mark": -1.5, "intensity": 1.0}], "market: jump sizes"),
    ("market.jumps", [{"mark": 0.1, "intensity": -1.0}], "market: jump intensities"),
])
def test_bad_number_field_exit_code(tmp_path, capsys, where, value, named):
    raw = load_raw("merton_log.yaml")
    *sections, key = where.split(".")
    section = raw
    for name in sections:
        section = section[name]
    section[key] = value
    cfg_file = tmp_path / "bad.yaml"
    cfg_file.write_text(yaml.safe_dump(raw))
    code = cli.main(["primal", "--config", str(cfg_file), "--paths", "1000",
                     "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {named}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, name, edit, flags, named", [
    ("robust", "robust_merton.yaml", {}, ["--phi-grid", "1:2"], "--phi-grid must be min:max:count"),
    ("robust", "robust_merton.yaml", {}, ["--mu-grid", "1:2:x"], "--mu-grid must be min:max:count"),
    ("robust", "robust_merton.yaml", {}, ["--phi-grid", "1:nan:3"], "robust.phi_grid.max"),
    ("robust", "robust_merton.yaml", {}, ["--mu-grid=-0.25:0:0"], "robust.mu_grid.count"),
    ("primal", "merton_log.yaml", {}, ["--grid-step", "0"], "primal.grid_step"),
    ("primal", "merton_log.yaml", {}, ["--grid-step", "-0.05"], "primal.grid_step"),
    ("primal", "merton_log.yaml", {}, ["--grid-min", "2", "--grid-max", "1"], "primal.grid_max"),
    ("primal", "merton_log.yaml", {"primal": {"grid_max": "inf"}}, [], "primal.grid_max"),
    ("dual", "jump_dual.yaml", {"dual": {"theta1_grid": {"min": -0.6, "max": 0.3, "count": 0}}},
     [], "dual.theta1_grid.count"),
    ("dual", "jump_dual.yaml", {"dual": {"theta1_grid": {"min": -0.6, "count": 19}}}, [],
     "missing required configuration field: dual.theta1_grid.max"),
])
def test_bad_search_grid_is_a_configuration_error(tmp_path, capsys, command, name, edit, flags,
                                                  named):
    """A grid with no candidate, or a non-finite one, exits 2 before any path
    is simulated, not 1 from inside the search."""
    cfg_file = tmp_path / "bad.yaml"
    cfg_file.write_text(yaml.safe_dump({**load_raw(name), **edit}))
    code = cli.main([command, "--config", str(cfg_file), "--paths", "500", *flags,
                     "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {named}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("step", ["1e-300", "5e-324"])
def test_primal_grid_of_any_step_is_counted_before_it_is_built(tmp_path, capsys, step):
    """A step too fine for any grid exits 2 naming primal.grid_step, not 1
    from numpy inside the validation (``Maximum allowed size exceeded``);
    at a subnormal step the count overflows to inf."""
    code = cli.main(["primal", "--config", str(CONFIG_DIR / "merton_log.yaml"),
                     "--grid-step", step, "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: primal.grid_step gives ")
    assert not (tmp_path / "run").exists()


def test_primal_grid_above_the_candidate_bound_is_refused():
    raw = load_raw("merton_log.yaml")
    raw["primal"] = {"grid_min": 0.0, "grid_max": 0.5 * (MAX_GRID_CANDIDATES - 1),
                     "grid_step": 0.5}
    assert validate_config(raw).primal_grid().size == MAX_GRID_CANDIDATES
    raw["primal"]["grid_max"] += 0.5
    with pytest.raises(ConfigError, match=rf"^primal.grid_step gives {MAX_GRID_CANDIDATES + 1} "):
        validate_config(raw)


def test_theta1_grid_above_the_candidate_bound_is_refused():
    raw = load_raw("jump_dual.yaml")
    raw["dual"]["theta1_grid"]["count"] = MAX_GRID_CANDIDATES
    assert validate_config(raw).theta1_grid().size == MAX_GRID_CANDIDATES
    # a count in the billions is refused before anything of its size is built;
    # the message gives it exactly below 1e15
    for count, shown in ((MAX_GRID_CANDIDATES + 1, "1000001"), (10**15 - 1, "999999999999999"),
                         (10**15, "1e+15"), (2**62, "4.61e+18")):
        raw["dual"]["theta1_grid"]["count"] = count
        with pytest.raises(ConfigError, match=rf"^dual.theta1_grid.count gives {re.escape(shown)} grid "):
            validate_config(raw)


def test_robust_grid_counts_its_phi_by_mu_product():
    # each axis well below the bound, their product above it
    raw = load_raw("robust_merton.yaml")
    raw["robust"] = {"phi_grid": {"min": 0.1, "max": 1.0, "count": 1_000},
                     "mu_grid": {"min": -0.2, "max": 0.0, "count": MAX_GRID_CANDIDATES // 1_000}}
    phi, mu = validate_config(raw).robust_grids()
    assert phi.size * mu.size == MAX_GRID_CANDIDATES
    raw["robust"]["phi_grid"]["count"] += 1
    with pytest.raises(ConfigError,
                       match=r"^robust.phi_grid.count x robust.mu_grid.count gives 1001000 "):
        validate_config(raw)


def test_s0_and_penalty_scale_default_where_the_run_reads_them():
    """An absent market.s0 and penalty.scale read 1.0 through the methods a
    run builds them with, which are also where they are validated."""
    raw = load_raw("robust_merton.yaml")
    raw["market"].pop("s0", None)
    raw.pop("penalty", None)
    cfg = validate_config(raw)
    assert cfg.market_model().s0 == 1.0 and cfg.penalty().scale == 1.0
    raw["market"]["s0"], raw["penalty"] = 2.5, {"scale": 0.5}
    cfg = validate_config(raw)
    assert cfg.market_model().s0 == 2.5 and cfg.penalty().scale == 0.5
    for section, key in (("market", "s0"), ("penalty", "scale")):
        bad = {**raw, section: {**raw[section], key: 0.0}}
        with pytest.raises(ConfigError, match=rf"^{section}.{key} must be a positive"):
            validate_config(bad)


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


@pytest.mark.parametrize("content, named", [
    (b"market: [\n", "is not valid YAML: while parsing a flow node"),
    (b"\xff\xfemode: simulate\n", "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
], ids=["not-yaml", "not-utf8"])
def test_an_unreadable_config_file_exits_2_naming_it(tmp_path, capsys, content, named):
    # each ended in a yaml or a codec traceback with exit 1
    cfg_file = tmp_path / "bad.yaml"
    cfg_file.write_bytes(content)
    assert cli.main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {cfg_file} {named}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, edit, flags, named", [
    ("simulate", {"mc": 5}, ["--seed", "3"], "mc must be a mapping"),
    ("robust", {"penalty": 3}, ["--penalty-scale", "2"], "penalty must be a mapping"),
], ids=["mc", "penalty"])
def test_an_override_into_a_section_that_is_not_a_mapping_exits_2(tmp_path, capsys, command,
                                                                   edit, flags, named):
    # the override merged the section into a mapping: a TypeError, exit 1
    cfg_file = tmp_path / "bad.yaml"
    cfg_file.write_text(yaml.safe_dump({**load_raw("robust_merton.yaml"), **edit}))
    code = cli.main([command, "--config", str(cfg_file), "--out", str(tmp_path / "run"), *flags])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {named}\n"


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


def test_manifest_does_not_depend_on_the_output_directory(tmp_path):
    raw = small(load_raw("merton_log.yaml"), paths=10)
    raw["mode"] = "simulate"
    manifests = []
    for out in (tmp_path / "a", tmp_path / "a-much-longer-directory-name"):
        cli.run_experiment(validate_config({**raw, "out": str(out)}))
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    config = json.loads(manifests[0])["config"]
    assert "out" not in config and config["mode"] == "simulate"


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


def test_many_mark_run_is_sized_by_its_events(monkeypatch):
    # 80k paths x 100 steps with 8 marks: 576 MB as dense counts, which the
    # limit refused; dB plus the events of 8 marks at intensity 1 is 119 MB
    raw = load_raw("jump_dual.yaml")
    raw["market"]["jumps"] = [{"mark": 0.01 * (j + 1), "intensity": 1.0} for j in range(8)]
    raw["mc"]["paths"] = 80_000
    assert 80_000 * 100 * (1 + 8) * 8 > MAX_DRIVER_BYTES
    validate_config(raw)
    # the events are bounded by the cells: at lambda dt = 20 every cell holds
    # a jump, and 8 marks of events then outweigh the dense counts
    for jump in raw["market"]["jumps"]:
        jump["intensity"] = 2000.0
    raw["mc"]["paths"] = 20_000
    _refuse_allocation(monkeypatch)
    with pytest.raises(ConfigError, match="^mc.paths = 20000 with 100 steps and 8 jump mark"):
        validate_config(raw)


def test_refusal_counts_db_and_every_event_at_its_bound(monkeypatch):
    # one mark at intensity 1 over a horizon of 4: dB is 560,000,000 bytes,
    # and the events 28 bytes each at the bound on a Poisson(2.8e6) total,
    # 2,812,442: 638,748,376 bytes in all
    raw = load_raw("jump_dual.yaml")
    raw["market"]["horizon"] = 4.0
    raw["mc"]["paths"] = 700_000
    _refuse_allocation(monkeypatch)
    with pytest.raises(ConfigError, match=r"^mc.paths = 700000 with 100 steps and 1 jump "
                                          r"mark\(s\) needs 609 MiB of driver arrays"):
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


def _refuse_certification(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a utility pair was built")

    monkeypatch.setattr(preferences, "certify_pair", refuse)


POWER = {"utility.name": "power", "utility.alpha": 0.5}
ANALYTIC_POWER = ("adjoints = 'analytic' needs closed-form adjoints, which utility.name = 'power' "
                  "does not have; use regression")


@pytest.mark.parametrize("command, name, edits, named", [
    # the default ladders, which the run takes where the config sets none
    ("convergence", "convergence_bsde.yaml",
     {"mc.paths": 1_000, "grid.steps": 1_500, "convergence.paths": None},
     "convergence.paths = 50000 with 1500 steps and 0 jump mark(s) needs 572 MiB of driver "
     "arrays, above the 512 MiB limit; reduce convergence.paths"),
    ("convergence", "convergence_product.yaml",
     {"mc.paths": 700_000, "grid.steps": 10, "convergence.steps": None},
     "mc.paths = 700000 with 100 steps and 0 jump mark(s) needs 534 MiB"),
    ("dual", "jump_dual.yaml", {"dual": None}, "dual.theta1_grid required for a jump market"),
    ("bridge-check", "merton_log.yaml", {"bridge": {"case": "nope"}},
     "bridge.case must be one of ('merton_log', 'robust_merton'), got 'nope'"),
    ("bridge-check", "merton_log.yaml", {"bridge": {"case": "merton_log", "adjoints": "analytc"}},
     "bridge.adjoints must be one of ('analytic', 'regression'), got 'analytc'"),
    ("convergence", "convergence_bsde.yaml", {"convergence.benchmark": "nope"},
     "convergence.benchmark must be one of ('bsde', 'product-identity'), got 'nope'"),
    ("robust", "robust_merton.yaml", {"penalty.scale": -1},
     "penalty.scale must be a positive finite number, got -1"),
    ("primal", "merton_log.yaml", {"utility.name": "nope"},
     "utility.name must be one of ('log', 'power'), got 'nope'"),
    # two steps leave no interior step: the FOC residual read 0.0
    ("primal", "merton_log.yaml", {"grid.steps": 2},
     "grid.steps must be at least 3 for a primal run"),
    # a TypeError, exit 1: the jumps were iterated unchecked
    ("dual", "jump_dual.yaml", {"market.jumps": 5}, "market.jumps must be a list, got 5"),
    # a bridge check starts from the log closed form: exit 1 with a ValueError
    # in a jump market, a ZeroDivisionError at sigma = 0
    ("bridge-check", "jump_dual.yaml", {},
     "mode bridge-check: closed form requires a no-jump market; market.jumps has 1 mark(s)"),
    ("bridge-check", "merton_log.yaml", {"market.vol": 0.0},
     "mode bridge-check: closed form requires a nonzero volatility; market.vol is 0.0"),
    # analytic adjoints of a power utility: exit 1 after the search
    ("primal", "merton_log.yaml", {**POWER, "adjoints": "analytic"}, ANALYTIC_POWER),
    ("dual", "jump_dual.yaml", {**POWER, "adjoints": "analytic"}, ANALYTIC_POWER),
    ("robust", "robust_merton.yaml", {**POWER, "adjoints": "analytic"}, ANALYTIC_POWER),
    ("bridge-check", "merton_log.yaml",
     {**POWER, "bridge": {"case": "merton_log", "adjoints": "analytic"}},
     "bridge." + ANALYTIC_POWER),
], ids=["default-paths-ladder", "default-steps-ladder", "theta1-grid", "bridge-case",
        "bridge-adjoints", "benchmark", "penalty-scale", "utility-name", "foc-window",
        "jumps-not-a-list", "bridge-jump-market", "bridge-zero-vol", "analytic-power-primal",
        "analytic-power-dual", "analytic-power-robust", "analytic-power-bridge"])
def test_a_bad_setting_exits_2_before_anything_runs(tmp_path, capsys, monkeypatch, command, name,
                                                    edits, named):
    """Each of these settings was read only by its runner: the default
    ladders ran unsized, and the others exited 1 after the ensemble was
    simulated and the manifest written (a mistyped bridge.adjoints ran as
    regression).  Each exits 2 now, with nothing simulated, certified or
    written."""
    raw = load_raw(name)
    for entry, value in edits.items():
        *sections, key = entry.split(".")
        section = functools.reduce(dict.__getitem__, sections, raw)
        if value is None:
            del section[key]
        else:
            section[key] = value
    cfg_file = tmp_path / "bad.yaml"
    cfg_file.write_text(yaml.safe_dump(raw))
    _refuse_allocation(monkeypatch)
    _refuse_certification(monkeypatch)
    code = cli.main([command, "--config", str(cfg_file), "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {named}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("name, mode", [("merton_log.yaml", "primal"),
                                        ("jump_dual.yaml", "dual"),
                                        ("robust_merton.yaml", "robust")])
def test_a_search_needs_an_interior_step_for_its_foc_residuals(name, mode):
    # the residuals are summarized over mc.interior_window, empty below 3 steps
    raw = load_raw(name)
    raw["mode"] = mode
    for steps in (1, 2):
        raw["grid"]["steps"] = steps
        with pytest.raises(ConfigError, match=rf"^grid.steps must be at least 3 for a {mode} run"
                                              rf".*; got {steps}$"):
            validate_config(raw)
    assert mc.interior_window(2) == slice(1, 1) and mc.interior_window(3) == slice(1, 2)
    raw["grid"]["steps"] = 3
    validate_config(raw)
    raw.update(mode="simulate")
    raw["grid"]["steps"] = 1
    validate_config(raw)


def test_validation_builds_no_utility_pair(monkeypatch):
    # a certification costs milliseconds; a run builds its pair once
    _refuse_certification(monkeypatch)
    for name in ("merton_log.yaml", "robust_merton.yaml", "jump_dual.yaml",
                 "convergence_bsde.yaml", "convergence_product.yaml"):
        validate_config(load_raw(name))
    raw = load_raw("merton_log.yaml")
    raw["utility"] = {"name": "power", "alpha": 0.5}
    validate_config(raw)
    for alpha in (0.0, 1.0, "x"):
        raw["utility"]["alpha"] = alpha
        with pytest.raises(ConfigError, match="^utility.alpha must"):
            validate_config(raw)
    del raw["utility"]["alpha"]
    with pytest.raises(ConfigError, match="utility.alpha$"):
        validate_config(raw)


@pytest.mark.parametrize("grid_max, last", [(0.13, 0.1), (0.15, 0.15), (0.149999999999, 0.15),
                                             (0.1999, 0.15)])
def test_the_primal_grid_ends_at_the_last_fraction_within_grid_max(grid_max, last):
    """The last fraction is the largest grid_min + k * grid_step that does not
    pass grid_max, within rounding: 0 to 0.13 by 0.05 searches 0, 0.05 and
    0.1, not 0.15."""
    raw = load_raw("merton_log.yaml")
    raw["primal"] = {"grid_min": 0.0, "grid_max": grid_max, "grid_step": 0.05}
    grid = validate_config(raw).primal_grid()
    assert grid[-1] == last
    assert np.array_equal(grid, np.round(0.05 * np.arange(grid.size), 12))


def test_the_config_builds_every_default_and_writes_none_into_the_raw_mapping():
    raw = load_raw("merton_log.yaml")
    for key in ("primal", "mode", "x0"):
        del raw[key]
    as_read = json.dumps(raw)
    cfg = validate_config(raw)
    assert (cfg.mode, cfg.adjoints, cfg.x0, cfg.y) == ("simulate", "regression", 1.0, 1.0)
    assert np.array_equal(cfg.primal_grid(), np.round(0.05 * np.arange(51), 12))
    phi, mu = cfg.robust_grids()
    assert np.array_equal(phi, np.linspace(0.125, 1.125, 21))
    assert np.array_equal(mu, np.linspace(-0.25, 0.0, 21))
    assert cfg.theta1_grid() is None
    assert cfg.bridge() == ("merton_log", "regression")
    assert cfg.ladder() == ("bsde", [(10_000, 100), (25_000, 100), (50_000, 100)])
    assert cfg.penalty().scale == 1.0 and cfg.utility().name == "log"
    assert json.dumps(cfg.raw) == as_read and cfg.identity() == {
        key: value for key, value in raw.items() if key != "out"}
    # the primal grid is rounded to 12 decimals, its count taken from the span
    raw.update(primal={"grid_min": 0.5, "grid_max": 1.5, "grid_step": 1 / 3},
               robust={"phi_grid": {"min": 0.5, "max": 0.5, "count": 1}},
               convergence={"benchmark": "product-identity", "steps": [1, 2]},
               bridge={"case": "robust_merton"}, adjoints="analytic", penalty={"scale": 2.5})
    raw["mc"].update(paths=1, seed=0)
    raw["grid"]["steps"] = 1
    cfg = validate_config(raw)
    assert cfg.primal_grid().tolist() == [0.5, 0.833333333333, 1.166666666667, 1.5]
    assert cfg.robust_grids()[0].tolist() == [0.5]
    assert cfg.ladder() == ("product-identity", [(1, 1), (1, 2)])
    assert cfg.bridge() == ("robust_merton", "analytic")
    assert cfg.penalty().scale == 2.5


@pytest.mark.parametrize("ladder", [[], [0, 10], [True], [2.5], 100, ["many"]])
def test_a_ladder_that_is_not_a_list_of_counts_is_refused(ladder):
    raw = load_raw("convergence_product.yaml")
    raw["convergence"]["steps"] = ladder
    with pytest.raises(ConfigError, match=r"^convergence.steps must list integers of at least 1"):
        validate_config(raw)


@pytest.mark.parametrize("mean", [0.0, 0.3, 1.0, 40.0, 5e3, 1e8])
def test_event_bound_is_the_least_count_with_the_bernstein_tail_below_its_bound(mean):
    # N >= mean + t has probability below exp(-t^2 / (2 (mean + t/3))), and
    # the bound is the least integer whose t makes that exp(-EVENT_TAIL_LOG)
    def exponent(count):
        t = count - mean
        return t * t / (2 * (mean + t / 3))

    bound = _event_bound(mean, 10**15)
    assert exponent(bound) >= EVENT_TAIL_LOG * (1 - 1e-12)
    assert bound - 1 <= mean or exponent(bound - 1) < EVENT_TAIL_LOG
    assert _event_bound(mean, 7) == min(7, bound)


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
    # a dual solve replicates from the amount held in the stock, q2/sigma,
    # and reads no price; only simulate writes S, built once
    raw = small(load_raw("jump_dual.yaml"), paths=501)
    raw["out"] = str(tmp_path / "dual")
    cli.run_experiment(validate_config(raw))
    raw = small(load_raw("merton_log.yaml"), paths=502)
    raw.update(mode="simulate", out=str(tmp_path / "simulate"))
    cli.run_experiment(validate_config(raw))
    assert calls == [502]


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


@pytest.mark.parametrize("flag, key", [("--phi-grid", "phi_grid"), ("--mu-grid", "mu_grid"),
                                       ("--mu", "mu_grid")])
def test_a_grid_after_a_space_may_start_with_a_minus(tmp_path, monkeypatch, capsys, flag, key):
    # argparse alone reads "-0.25:0:21" as an option and exits 2; the spaced
    # and the "=" spelling, and a prefix of the flag, give the same validated
    # config, and an option after the flag is still an option
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg) or {})
    base = ["robust", "--config", str(CONFIG_DIR / "robust_merton.yaml"), "--out", str(tmp_path)]
    assert cli.main([*base, flag, "-0.25:0:21"]) == 0
    assert cli.main([*base, f"{flag}=-0.25:0:21"]) == 0
    spaced, joined = seen
    assert spaced == joined
    assert spaced.raw["robust"][key] == {"min": -0.25, "max": 0.0, "count": 21}
    with pytest.raises(SystemExit) as exited:
        cli.main([*base, flag, "-h"])
    assert exited.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


_BASE = {"mode": "primal", "mc": {"paths": 10, "seed": 1}, "grid": {"steps": 5},
         "bridge": {"case": "merton_log", "adjoints": "regression"}}
_COMMON = ["--seed", "7", "--paths", "900", "--steps", "12", "--out", "o", "--mode", "analytic"]
_OVERRIDDEN = {"mode": None, "mc": {"paths": 900, "seed": 7}, "grid": {"steps": 12},
               "bridge": {"case": "merton_log", "adjoints": "analytic"}, "out": "o",
               "adjoints": "analytic"}


@pytest.mark.parametrize("command, raw, flags, expected", [
    ("primal", _BASE, _COMMON + ["--grid-min", "0.5", "--grid-max", "1.5", "--grid-step", "0.25"],
     {**_OVERRIDDEN, "mode": "primal",
      "primal": {"grid_min": 0.5, "grid_max": 1.5, "grid_step": 0.25}}),
    ("dual", {"mc": {"seed": 3}}, ["--y", "2.5", "--paths", "50"],
     {"mc": {"seed": 3, "paths": 50}, "mode": "dual", "y": 2.5}),
    ("robust", _BASE, _COMMON + ["--phi-grid", "0.1:1.1:5", "--mu-grid=-0.2:0.0:3",
                                 "--penalty-scale", "2.5"],
     {**_OVERRIDDEN, "mode": "robust",
      "robust": {"phi_grid": {"min": 0.1, "max": 1.1, "count": 5},
                 "mu_grid": {"min": -0.2, "max": 0.0, "count": 3}},
      "penalty": {"name": "quadratic", "scale": 2.5}}),
    ("robust", {"penalty": {"name": "entropic", "scale": 1.0},
                "robust": {"phi_grid": {"min": 0, "max": 1, "count": 2}}},
     ["--penalty-scale", "3.0", "--mu-grid=-0.5:0.5:11"],
     {"penalty": {"name": "entropic", "scale": 3.0},
      "robust": {"phi_grid": {"min": 0, "max": 1, "count": 2},
                 "mu_grid": {"min": -0.5, "max": 0.5, "count": 11}},
      "mode": "robust"}),
    ("bridge-check", {}, ["--mode", "regression"], {"mode": "bridge-check", "adjoints": "regression"}),
    ("simulate", {}, [], {"mode": "simulate"}),
])
def test_every_override_flag_sets_its_config_entry(command, raw, flags, expected):
    # every flag of every subcommand; the sections a flag starts, the
    # quadratic penalty's default name and --mode's bridge adjoints included
    args = cli._build_parser().parse_args([command, "--config", "c.yaml", *flags])
    as_read = json.dumps(raw)
    overridden = cli._apply_overrides(raw, args, command)
    assert overridden == expected
    assert list(overridden) == list(expected)
    assert json.dumps(raw) == as_read


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


def _run(tmp_path, command, raw, *flags):
    """cli.main on ``raw`` written to a file: (exit code, the run's directory)."""
    cfg_file = tmp_path / f"{command}.yaml"
    cfg_file.write_text(yaml.safe_dump(raw))
    out = tmp_path / command
    return cli.main([command, "--config", str(cfg_file), "--out", str(out), *flags]), out


# a pure-jump market: sigma = 0, one mark gamma = 0.1 at intensity nu = 1, b = 0.05
PURE_JUMP = {"drift": 0.05, "vol": 0.0, "s0": 1.0, "horizon": 1.0,
             "jumps": [{"mark": 0.1, "intensity": 1.0}]}


def test_a_robust_run_at_zero_volatility_keeps_its_solution(tmp_path):
    """run_robust took the closed form under its own copy of the
    precondition, no jumps, and divided by sigma = 0 after the search: exit
    1 with only manifest.json.  The closed form's one predicate leaves the
    closed_form block out instead."""
    raw = small(load_raw("robust_merton.yaml"))
    raw["market"]["vol"] = 0.0
    code, out = _run(tmp_path, "robust", raw)
    assert code == 0
    payload = json.loads((out / "solution.json").read_text())
    assert "closed_form" not in payload and "pi_ratio_vs_nonrobust" not in payload
    assert sorted(p.name for p in out.iterdir()) == [
        "diagnostics.json", "manifest.json", "payoff_matrix.csv", "solution.json"]


@pytest.mark.parametrize("mode", ["analytic", "regression"])
def test_a_dual_run_at_zero_volatility_takes_the_jump_branch(tmp_path, mode):
    """No bundled config reaches the jump branch.  At sigma = 0 the ELMM
    constraint b + sum gamma theta1 nu = 0 pins theta1 = -b/(gamma nu) =
    -0.5 on every step whatever the searched theta1, with theta0 = 0; the
    replication holds the exposure fitted from r2 and its wealth stays
    positive.  Regression adjoints see the pure-jump density's few distinct
    log values, a rank-deficient basis at the early steps, which
    diagnostics.json counts and nothing warns of."""
    raw = small(load_raw("jump_dual.yaml"))
    raw["market"] = PURE_JUMP
    code, out = _run(tmp_path, "dual", raw, "--mode", mode)
    assert code == 0
    payload = json.loads((out / "solution.json").read_text())
    assert payload["theta0_initial"] == 0.0
    assert payload["theta1"] == [pytest.approx(-0.5, rel=1e-15)]
    assert payload["replication"]["n_nonpositive"] == 0
    # every step, and the constraint, through the API on the run's ensemble
    cfg = validate_config(raw)
    model, ens = cli._ensemble(cfg)
    control = dual.scenario_from_theta1(model, ens.grid, cfg.theta1_grid()[0], cfg.y)
    assert np.all(control.theta0 == 0.0)
    assert np.allclose(control.theta1, -0.5, rtol=1e-15, atol=0.0)
    assert np.max(np.abs(market.elmm_residual(model, ens.grid, control))) <= 1e-17


def test_a_robust_run_at_zero_volatility_in_a_jump_market_exits_0(tmp_path):
    raw = small(load_raw("robust_merton.yaml"))
    raw["market"] = PURE_JUMP
    code, out = _run(tmp_path, "robust", raw, "--mode", "analytic")
    assert code == 0
    payload = json.loads((out / "solution.json").read_text())
    assert payload["is_saddle"] and "closed_form" not in payload


@pytest.mark.parametrize("command, name", [("primal", "merton_log.yaml"),
                                           ("robust", "robust_merton.yaml")])
def test_every_search_refuses_an_all_inadmissible_grid(tmp_path, capsys, command, name):
    """Every fraction of 2.5..3.0 has 1 + pi*gamma <= 0 at a mark of -0.5.
    The primal search refused; the saddle evaluated nothing, picked the
    cell (2.5, 0.0) and failed in the forward fill with an
    AdmissibilityError.  Both refuse with the same ValueError."""
    raw = small(load_raw(name))
    raw["market"]["jumps"] = [{"mark": -0.5, "intensity": 1.0}]
    flags = (["--grid-min", "2.5", "--grid-max", "3.0", "--grid-step", "0.25"]
             if command == "primal" else ["--phi-grid", "2.5:3.0:3"])
    code, out = _run(tmp_path, command, raw, *flags)
    assert code == 1
    assert capsys.readouterr().err == "builtins.ValueError: all candidates inadmissible\n"
    assert [p.name for p in out.iterdir()] == ["manifest.json"]


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
