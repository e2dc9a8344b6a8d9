"""Command-line harness: one subcommand per experiment mode.

Every run writes a manifest (config hash, seed, library versions) next to its
outputs, and identical configurations produce byte-identical solution files.
Exit codes: 0 on success, 2 on configuration errors, 1 on solver errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from importlib import metadata

import numpy as np
import yaml

from . import __version__
from .bridge import (
    BridgeViolationError,
    bridged_fraction,
    dual_to_primal,
    primal_to_dual,
    robust_dual_to_primal,
    robust_primal_to_dual,
    verify_product_identity,
)
from .config import ConfigError, ExperimentConfig, read_config, validate_config
from .dual import evaluate_dual_scenario, solve_dual_search, unique_scenario_no_jumps
from .market import (
    Strategy,
    TimeGrid,
    as_time_fn,
    density_paths,
    ensemble_summary,
    ensemble_to_csv,
    price_paths,
    simulate_drivers,
    wealth_paths,
)
from .primal import hamiltonian_derivative_check, solve_primal_search
from .robust import robust_log_closed_form, solve_robust_dual, solve_robust_saddle


def _write_json(path: str, payload: dict, cfg_hash: str) -> None:
    payload = {"config_hash": cfg_hash, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows, cfg_hash: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={cfg_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_diagnostics(out: str, solution, cfg_hash: str) -> None:
    """Search and solver diagnostics of a run, in diagnostics.json beside solution.json."""
    payload = {"grid_edge": solution.grid_edge, "excluded": len(solution.excluded)}
    adj = solution.adjoints
    if adj.mode == "regression":
        per_step = adj.diagnostics["per_step"]
        payload["bsde"] = {
            "rank_deficient_steps": sum(s["rank"] < adj.diagnostics["n_columns"] for s in per_step),
            "constant_state_steps": adj.diagnostics["constant_state_steps"],
            "max_cond": max(s["cond"] for s in per_step),
            "max_fit_rmse": max(s["fit_rmse"] for s in per_step),
        }
    _write_json(os.path.join(out, "diagnostics.json"), payload, cfg_hash)


@functools.cache
def _scipy_version() -> str | None:
    """scipy's version from its package metadata, read once per process
    (parsing the metadata costs several ms); scipy is a test dependency only,
    so it is not imported."""
    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return None


def _manifest(cfg: ExperimentConfig) -> dict:
    versions = {
        "duallab": __version__,
        "numpy": np.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
        "pyyaml": yaml.__version__,
    }
    scipy_version = _scipy_version()
    if scipy_version is not None:
        versions["scipy"] = scipy_version
    return {"config": cfg.raw, "seed": cfg.seed, "versions": versions}


def _grid(section: dict) -> np.ndarray:
    return np.linspace(float(section["min"]), float(section["max"]), int(section["count"]))


def _ensemble(cfg: ExperimentConfig):
    model = cfg.market_model()
    ens = simulate_drivers(model, cfg.time_grid(), cfg.n_paths, cfg.seed)
    return model, ens


def run_simulate(cfg: ExperimentConfig, out: str) -> dict:
    model, ens = _ensemble(cfg)
    price_paths(model, ens)
    cfg_hash = cfg.hash()
    ensemble_to_csv(ens, os.path.join(out, "paths.csv"), channels=["S"],
                    header_comment=f"config_hash={cfg_hash}")
    summary = ensemble_summary(ens)
    _write_json(os.path.join(out, "summary.json"), summary, cfg_hash)
    return summary


def run_primal(cfg: ExperimentConfig, out: str) -> dict:
    model, ens = _ensemble(cfg)
    section = cfg.raw.get("primal", {})
    lo = float(section.get("grid_min", 0.0))
    hi = float(section.get("grid_max", 2.5))
    step = float(section.get("grid_step", 0.05))
    n = int(round((hi - lo) / step)) + 1
    pi_values = np.round(lo + step * np.arange(n), 12)
    solution = solve_primal_search(
        model, cfg.utility(), cfg.x0, pi_values, ens, adjoint_mode=cfg.adjoints
    )
    deriv, deriv_se = hamiltonian_derivative_check(solution)
    cfg_hash = cfg.hash()
    _write_csv(
        os.path.join(out, "candidates.csv"),
        ["pi", "value", "se"],
        [(repr(float(p)), repr(float(v)), repr(float(s)))
         for p, v, s in zip(solution.pi_values, solution.candidate_values, solution.candidate_se)],
        cfg_hash,
    )
    payload = {
        "mode": "primal",
        "pi": solution.pi,
        "value": solution.value,
        "se": solution.se,
        "x0": cfg.x0,
        "adjoints": solution.adjoints.mode,
        "foc_mean_normalized": solution.foc["mean_normalized"],
        "foc_max_normalized": solution.foc["max_normalized"],
        "derivative_check": {"estimate": deriv, "se": deriv_se},
        "excluded": solution.excluded,
    }
    _write_json(os.path.join(out, "solution.json"), payload, cfg_hash)
    _write_diagnostics(out, solution, cfg_hash)
    return payload


def run_dual(cfg: ExperimentConfig, out: str) -> dict:
    model, ens = _ensemble(cfg)
    section = cfg.raw.get("dual", {})
    theta1_values = None
    if model.n_marks:
        gsection = section.get("theta1_grid")
        if gsection is None:
            raise ConfigError("dual.theta1_grid required for a jump market")
        theta1_values = _grid(gsection)
    solution = solve_dual_search(
        model, cfg.utility(), cfg.y, ens,
        theta1_values=theta1_values, adjoint_mode=cfg.adjoints,
    )
    cfg_hash = cfg.hash()
    _write_csv(
        os.path.join(out, "candidates.csv"),
        ["theta1", "value", "se"],
        [(json.dumps(t), repr(float(v)), repr(float(s)))
         for t, v, s in zip(solution.theta1_values, solution.candidate_values, solution.candidate_se)],
        cfg_hash,
    )
    payload = {
        "mode": "dual",
        "y": cfg.y,
        "value": solution.value,
        "se": solution.se,
        "theta0_initial": float(solution.control.theta0[0]),
        "theta1": np.asarray(solution.control.theta1[0]).tolist() if model.n_marks else [],
        "p2_initial": float(solution.adjoints.p[:, 0].mean()),
        "adjoints": solution.adjoints.mode,
        "foc_mean_normalized": solution.foc["mean_normalized"],
        "replication": solution.replication,
    }
    _write_json(os.path.join(out, "solution.json"), payload, cfg_hash)
    _write_diagnostics(out, solution, cfg_hash)
    return payload


def run_robust(cfg: ExperimentConfig, out: str) -> dict:
    model, ens = _ensemble(cfg)
    section = cfg.raw.get("robust", {})
    phi_grid = _grid(section.get("phi_grid", {"min": 0.125, "max": 1.125, "count": 21}))
    mu_grid = _grid(section.get("mu_grid", {"min": -0.25, "max": 0.0, "count": 21}))
    penalty = cfg.penalty()
    utility = cfg.utility()
    solution = solve_robust_saddle(
        model, utility, penalty, cfg.x0, phi_grid, mu_grid, ens, adjoint_mode=cfg.adjoints
    )
    cfg_hash = cfg.hash()
    rows = []
    for jp, pi in enumerate(solution.pi_values):
        for jm, mu in enumerate(solution.mu_values):
            rows.append((repr(float(pi)), repr(float(mu)),
                         repr(float(solution.payoff[jp, jm])),
                         repr(float(solution.payoff_se[jp, jm]))))
    _write_csv(os.path.join(out, "payoff_matrix.csv"), ["pi", "mu", "value", "se"], rows, cfg_hash)
    payload = {
        "mode": "robust",
        "pi": solution.pi,
        "mu": solution.mu,
        "value": solution.value,
        "se": solution.se,
        "is_saddle": solution.is_saddle,
        "gap": solution.gap,
        "minimax": solution.minimax,
        "maximin": solution.maximin,
        "adjoints": solution.adjoints.mode,
        "foc": {
            "drift_mean_normalized": solution.foc["drift_mean_normalized"],
            "penalty_mean_normalized": solution.foc["penalty_mean_normalized"],
        },
    }
    if utility.name == "log" and penalty.name == "quadratic" and model.n_marks == 0:
        cf = robust_log_closed_form(model, penalty)
        payload["closed_form"] = {"mu": cf.mu(0.0), "pi": cf.pi(0.0)}
        # solved fraction over the plain Merton fraction b/sigma^2
        b, s = float(model.drift), float(model.vol)
        payload["pi_ratio_vs_nonrobust"] = solution.pi * s * s / b if b else None
    _write_json(os.path.join(out, "solution.json"), payload, cfg_hash)
    _write_diagnostics(out, solution, cfg_hash)
    return payload


def _scalar_fraction(portfolio, adjoints: str) -> float:
    """The bridged fraction as the scalar the round trip recovers.  Regression
    adjoints carry per-path fitting noise, so their fraction is refused."""
    try:
        return bridged_fraction(portfolio)
    except BridgeViolationError as exc:
        if adjoints != "regression":
            raise
        raise BridgeViolationError(
            f"regression adjoints give a path-dependent fraction; {exc}; "
            "run bridge-check with --mode analytic"
        ) from exc


def run_bridge_check(cfg: ExperimentConfig, out: str) -> dict:
    model, ens = _ensemble(cfg)
    section = cfg.raw.get("bridge", {})
    case = section.get("case", "merton_log")
    adjoints = section.get("adjoints", cfg.adjoints)
    utility = cfg.utility()
    if case == "merton_log":
        b, s = as_time_fn(model.drift)(0.0), as_time_fn(model.vol)(0.0)
        pi_star = b / s**2
        primal = solve_primal_search(model, utility, cfg.x0, [pi_star], ens, adjoint_mode=adjoints)
        control, y, rep_fwd = primal_to_dual(primal)
        dual = evaluate_dual_scenario(model, utility, control, ens, adjoint_mode=adjoints,
                                      density=rep_fwd.density)
        portfolio, x_back, rep_back = dual_to_primal(dual)
        pi_back = _scalar_fraction(portfolio, adjoints)
        product_dev = verify_product_identity(primal.wealth, primal.adjoints.p, cfg.x0, y)
        payload = {
            "mode": "bridge-check",
            "case": case,
            "adjoints": adjoints,
            "pi": primal.pi,
            "y": y,
            "x_recovered": x_back,
            "pi_recovered": pi_back,
            "identities_forward": rep_fwd.identities,
            "identities_backward": rep_back.identities,
            "product_identity_max_dev": product_dev,
        }
    elif case == "robust_merton":
        penalty = cfg.penalty()
        cf = robust_log_closed_form(model, penalty)
        pi_star, mu_star = cf.pi(0.0), cf.mu(0.0)
        primal = solve_robust_saddle(
            model, utility, penalty, cfg.x0, [pi_star], [mu_star], ens, adjoint_mode=adjoints
        )
        control, mu_fwd, y, rep_fwd = robust_primal_to_dual(primal)
        dual = solve_robust_dual(
            model, utility, penalty, y, ens, [mu_star], adjoint_mode=adjoints
        )
        portfolio, mu_back, x_back, rep_back = robust_dual_to_primal(dual)
        pi_back = _scalar_fraction(portfolio, adjoints)
        product_dev = verify_product_identity(primal.wealth, primal.adjoints.p, cfg.x0, y)
        payload = {
            "mode": "bridge-check",
            "case": case,
            "adjoints": adjoints,
            "pi": primal.pi,
            "mu": primal.mu,
            "y": y,
            "mu_transferred": mu_fwd,
            "x_recovered": x_back,
            "mu_recovered": mu_back,
            "pi_recovered": pi_back,
            "identities_forward": rep_fwd.identities,
            "identities_backward": rep_back.identities,
            "product_identity_max_dev": product_dev,
        }
    else:
        raise ConfigError(f"unknown bridge case {case!r}")
    _write_json(os.path.join(out, "report.json"), payload, cfg.hash())
    return payload


def run_convergence(cfg: ExperimentConfig, out: str) -> dict:
    model = cfg.market_model()
    section = cfg.raw.get("convergence", {})
    benchmark = section.get("benchmark", "bsde")
    cfg_hash = cfg.hash()
    rows: list[tuple] = []
    utility = cfg.utility()
    if benchmark == "bsde":
        grid = cfg.time_grid()
        for n in section.get("paths", [10000, 25000, 50000]):
            ens = simulate_drivers(model, grid, int(n), cfg.seed)
            sol = solve_dual_search(model, utility, cfg.y, ens, adjoint_mode="regression",
                                    replicate=False)
            err = abs(float(sol.adjoints.p[:, 0].mean()) * cfg.y - 1.0)
            rows.append((int(n), repr(err)))
        _write_csv(os.path.join(out, "convergence.csv"), ["paths", "p2_initial_rel_error"], rows, cfg_hash)
        payload = {"mode": "convergence", "benchmark": benchmark,
                   "errors": {str(r[0]): float(r[1]) for r in rows}}
    elif benchmark == "product-identity":
        horizon = float(cfg.raw["market"]["horizon"])
        b, s = as_time_fn(model.drift)(0.0), as_time_fn(model.vol)(0.0)
        pi_star = b / s**2
        for steps in section.get("steps", [25, 50, 100]):
            grid = TimeGrid(int(steps), horizon)
            ens = simulate_drivers(model, grid, cfg.n_paths, cfg.seed)
            control = unique_scenario_no_jumps(model, grid, cfg.y)
            devs = {}
            for scheme in ("euler", "exact"):
                wealth = wealth_paths(model, ens, Strategy.fraction(pi_star), cfg.x0, scheme=scheme)
                dens = density_paths(ens, control, scheme=scheme)
                devs[scheme] = verify_product_identity(wealth, dens, cfg.x0, cfg.y)
            rows.append((int(steps), repr(devs["euler"]), repr(devs["exact"])))
        _write_csv(os.path.join(out, "convergence.csv"),
                   ["steps", "deviation_euler", "deviation_exact"], rows, cfg_hash)
        payload = {
            "mode": "convergence",
            "benchmark": benchmark,
            "rows": [
                {"steps": int(r[0]), "deviation_euler": float(r[1]), "deviation_exact": float(r[2])}
                for r in rows
            ],
        }
    else:
        raise ConfigError(f"unknown convergence benchmark {benchmark!r}")
    _write_json(os.path.join(out, "summary.json"), payload, cfg_hash)
    return payload


_RUNNERS = {
    "simulate": run_simulate,
    "primal": run_primal,
    "dual": run_dual,
    "robust": run_robust,
    "bridge-check": run_bridge_check,
    "convergence": run_convergence,
}


def run_experiment(cfg: ExperimentConfig) -> dict:
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "manifest.json"), _manifest(cfg), cfg.hash())
    return _RUNNERS[cfg.mode](cfg, out)


def _apply_overrides(raw: dict, args: argparse.Namespace, mode: str) -> dict:
    raw = dict(raw)
    raw["mode"] = mode
    if getattr(args, "seed", None) is not None:
        raw.setdefault("mc", {})
        raw["mc"] = {**raw["mc"], "seed": args.seed}
    if getattr(args, "paths", None) is not None:
        raw["mc"] = {**raw.get("mc", {}), "paths": args.paths}
    if getattr(args, "steps", None) is not None:
        raw["grid"] = {**raw.get("grid", {}), "steps": args.steps}
    if getattr(args, "out", None) is not None:
        raw["out"] = args.out
    if getattr(args, "mode", None) is not None:
        raw["adjoints"] = args.mode
        if isinstance(raw.get("bridge"), dict):
            raw["bridge"] = {**raw["bridge"], "adjoints": args.mode}
    if getattr(args, "y", None) is not None:
        raw["y"] = args.y
    if getattr(args, "grid_min", None) is not None:
        raw["primal"] = {**raw.get("primal", {}), "grid_min": args.grid_min}
    if getattr(args, "grid_max", None) is not None:
        raw["primal"] = {**raw.get("primal", {}), "grid_max": args.grid_max}
    if getattr(args, "grid_step", None) is not None:
        raw["primal"] = {**raw.get("primal", {}), "grid_step": args.grid_step}
    for name in ("phi_grid", "mu_grid"):
        value = getattr(args, name, None)
        if value is not None:
            lo, hi, count = value.split(":")
            raw["robust"] = {
                **raw.get("robust", {}),
                name: {"min": float(lo), "max": float(hi), "count": int(count)},
            }
    if getattr(args, "penalty_scale", None) is not None:
        raw["penalty"] = {**raw.get("penalty", {"name": "quadratic"}), "scale": args.penalty_scale}
    return raw


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duallab",
        description="Monte Carlo experiments for primal, dual and robust portfolio choice",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in _RUNNERS:
        p = sub.add_parser(mode, help=f"run the {mode} experiment")
        p.add_argument("--config", required=True, help="YAML configuration file")
        p.add_argument("--seed", type=int, help="override mc.seed")
        p.add_argument("--paths", type=int, help="override mc.paths")
        p.add_argument("--steps", type=int, help="override grid.steps")
        p.add_argument("--out", help="output directory")
        p.add_argument("--mode", choices=("analytic", "regression"),
                       help="adjoint mode (closed form vs regression)")
        if mode == "primal":
            p.add_argument("--grid-min", type=float, dest="grid_min")
            p.add_argument("--grid-max", type=float, dest="grid_max")
            p.add_argument("--grid-step", type=float, dest="grid_step")
        if mode == "dual":
            p.add_argument("--y", type=float, help="initial density value")
        if mode == "robust":
            p.add_argument("--phi-grid", dest="phi_grid", help="min:max:count")
            p.add_argument("--mu-grid", dest="mu_grid", help="min:max:count")
            p.add_argument("--penalty-scale", type=float, dest="penalty_scale")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        raw = _apply_overrides(read_config(args.config), args, args.command)
        cfg = validate_config(raw)
    except (ConfigError, OSError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_experiment(cfg)
    except Exception as exc:  # solver errors carry module context
        print(f"{type(exc).__module__}.{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True, default=str)[:2000])
    return 0


if __name__ == "__main__":
    sys.exit(main())
