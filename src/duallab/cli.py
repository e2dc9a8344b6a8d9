"""Command-line harness: one subcommand per experiment mode.

Every run writes a manifest (config hash, seed, library versions) next to its
outputs, and identical configurations produce byte-identical solution files.
Exit codes: 0 on success, 2 on configuration errors, 1 on solver errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import re
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
    verify_product_identity,
)
from .config import ConfigError, ExperimentConfig, read_config, validate_config
from .dual import evaluate_dual_scenario, solve_dual_search, unique_scenario_no_jumps
from .market import (
    TimeGrid,
    density_paths,
    ensemble_summary,
    ensemble_to_csv,
    price_paths,
    simulate_drivers,
    wealth_paths,
)
from .primal import (closed_form_refusal, hamiltonian_derivative_check, merton_log_closed_form,
                     solve_primal_search)
from .robust import robust_log_closed_form, solve_robust_saddle


def _write(path: str, content, cfg_hash: str) -> None:
    """Write one output file stamped with the config hash: a mapping as JSON,
    the hash among its keys; a (header, rows) table as CSV under a
    ``# config_hash=`` line; a callable writes the file itself, given the
    path and that line's text."""
    if isinstance(content, dict):
        with open(path, "w") as fh:
            json.dump({"config_hash": cfg_hash, **content}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    elif callable(content):
        content(path, header_comment=f"config_hash={cfg_hash}")
    else:
        header, rows = content
        with open(path, "w", newline="") as fh:
            fh.write(f"# config_hash={cfg_hash}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def _diagnostics(solution) -> dict:
    """Search and solver diagnostics of a run, diagnostics.json beside solution.json."""
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
    return payload


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
    return {"config": cfg.identity(), "seed": cfg.seed, "versions": versions}


def _ensemble(cfg: ExperimentConfig):
    model = cfg.market_model()
    return model, simulate_drivers(model, cfg.time_grid(), cfg.n_paths, cfg.seed)


# Each runner returns the files of its run, name -> content as _write takes
# it; the first is the run's main payload.


def run_simulate(cfg: ExperimentConfig) -> dict:
    model, ens = _ensemble(cfg)
    price_paths(model, ens)
    return {"summary.json": ensemble_summary(ens),
            "paths.csv": functools.partial(ensemble_to_csv, ens, channels=["S"])}


def run_primal(cfg: ExperimentConfig) -> dict:
    model, ens = _ensemble(cfg)
    solution = solve_primal_search(
        model, cfg.utility(), cfg.x0, cfg.primal_grid(), ens, adjoint_mode=cfg.adjoints
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
        "derivative_check": hamiltonian_derivative_check(solution),
        "excluded": solution.excluded,
    }
    rows = [(repr(float(p)), repr(float(v)), repr(float(s)))
            for p, v, s in zip(solution.pi_values, solution.candidate_values, solution.candidate_se)]
    return {"solution.json": payload, "candidates.csv": (["pi", "value", "se"], rows),
            "diagnostics.json": _diagnostics(solution)}


def run_dual(cfg: ExperimentConfig) -> dict:
    model, ens = _ensemble(cfg)
    solution = solve_dual_search(
        model, cfg.utility(), cfg.y, ens,
        theta1_values=cfg.theta1_grid() if model.n_marks else None, adjoint_mode=cfg.adjoints,
    )
    payload = {
        "mode": "dual",
        "y": cfg.y,
        "value": solution.value,
        "se": solution.se,
        "theta0_initial": float(solution.control.theta0[0]),
        "theta1": np.asarray(solution.control.theta1[0]).tolist() if model.n_marks else [],
        "p2_initial": float(solution.adjoints.p_initial.mean()),
        "adjoints": solution.adjoints.mode,
        "foc_mean_normalized": solution.foc["mean_normalized"],
        "replication": solution.replication,
    }
    rows = [(json.dumps(t), repr(float(v)), repr(float(s)))
            for t, v, s in zip(solution.theta1_values, solution.candidate_values, solution.candidate_se)]
    return {"solution.json": payload, "candidates.csv": (["theta1", "value", "se"], rows),
            "diagnostics.json": _diagnostics(solution)}


def run_robust(cfg: ExperimentConfig) -> dict:
    model, ens = _ensemble(cfg)
    penalty = cfg.penalty()
    utility = cfg.utility()
    solution = solve_robust_saddle(
        model, utility, penalty, cfg.x0, *cfg.robust_grids(), ens, adjoint_mode=cfg.adjoints
    )
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
    if utility.name == "log" and penalty.name == "quadratic" and not closed_form_refusal(model):
        pi_cf, mu_cf = robust_log_closed_form(model, penalty)
        payload["closed_form"] = {"mu": mu_cf, "pi": pi_cf}
        # solved fraction over the plain Merton fraction b/sigma^2
        b, s = float(model.drift), float(model.vol)
        payload["pi_ratio_vs_nonrobust"] = solution.pi * s * s / b if b else None
    # the candidates are the flat C-order (pi, mu) grid
    cells = itertools.product(solution.pi_values, solution.mu_values)
    rows = [(repr(float(pi)), repr(float(mu)), repr(float(v)), repr(float(se)))
            for (pi, mu), v, se in zip(cells, solution.candidate_values, solution.candidate_se)]
    return {"solution.json": payload, "payoff_matrix.csv": (["pi", "mu", "value", "se"], rows),
            "diagnostics.json": _diagnostics(solution)}


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


def run_bridge_check(cfg: ExperimentConfig) -> dict:
    """Primal solve, map to the dual, dual solve, map back.  Each stage keeps
    only what the next map reads: regression adjoints keep q1 and r1 whole
    (``keep="pqr"``), as the map to the dual reads them path by path, while
    closed-form adjoints keep no channel whole and form each row the maps
    read from the wealth or the density; the product identity is taken
    while the primal's wealth is alive, reading p1 one step row at a time,
    the primal solution is then let go, and the forward report hands its
    density on to the dual solve.  The robust case differs only in its
    closed form and saddle: its bridged scenario carries the perturbation
    mu, which the maps transfer unchanged."""
    model, ens = _ensemble(cfg)
    case, adjoints = cfg.bridge()
    utility = cfg.utility()
    if case == "merton_log":
        pi_star = float(merton_log_closed_form(model).values)
        primal = solve_primal_search(model, utility, cfg.x0, [pi_star], ens, adjoint_mode=adjoints,
                                     keep="pqr")
    else:
        penalty = cfg.penalty()
        pi_star, mu_star = robust_log_closed_form(model, penalty)
        primal = solve_robust_saddle(model, utility, penalty, cfg.x0, [pi_star], [mu_star], ens,
                                     adjoint_mode=adjoints, keep="pqr")
    control, y, rep_fwd = primal_to_dual(primal)
    product_dev = verify_product_identity(primal.wealth,
                                          functools.partial(primal.adjoints.rows, "p"), cfg.x0, y)
    pi, mu = primal.pi, primal.mu
    del primal  # its wealth, p1 and q1 are read by no later map
    dual = evaluate_dual_scenario(model, utility, control, ens, adjoint_mode=adjoints,
                                  density=rep_fwd.take_density())
    portfolio, x_back, rep_back = dual_to_primal(dual)
    transfer = {} if mu is None else {
        "mu": mu, "mu_transferred": control.mu, "mu_recovered": dual.mu}
    del dual
    payload = {
        "mode": "bridge-check",
        "case": case,
        "adjoints": adjoints,
        "pi": pi,
        "y": y,
        "x_recovered": x_back,
        "pi_recovered": _scalar_fraction(portfolio, adjoints),
        "identities_forward": rep_fwd.identities,
        "identities_backward": rep_back.identities,
        "product_identity_max_dev": product_dev,
        **transfer,
    }
    return {"report.json": payload}


def run_convergence(cfg: ExperimentConfig) -> dict:
    """The benchmark's error at each rung of its ladder.  A rung's ensemble
    and solution are let go before the next rung simulates."""
    model = cfg.market_model()
    benchmark, rungs = cfg.ladder()
    utility = cfg.utility()
    if benchmark == "bsde":
        header, rows = ["paths", "p2_initial_rel_error"], []
        for paths, steps in rungs:
            ens = simulate_drivers(model, TimeGrid(steps, model.horizon), paths, cfg.seed)
            sol = solve_dual_search(model, utility, cfg.y, ens, adjoint_mode="regression",
                                    replicate=False)
            rows.append((paths, abs(float(sol.adjoints.p_initial.mean()) * cfg.y - 1.0)))
            del ens, sol
        payload = {"errors": {str(n): e for n, e in rows}}
    else:
        header, rows = ["steps", "deviation_euler", "deviation_exact"], []
        merton = merton_log_closed_form(model)
        for paths, steps in rungs:
            grid = TimeGrid(steps, model.horizon)
            ens = simulate_drivers(model, grid, paths, cfg.seed)
            control = unique_scenario_no_jumps(model, grid, cfg.y)
            devs = [verify_product_identity(wealth_paths(model, ens, merton, cfg.x0, scheme=kind),
                                            density_paths(ens, control, scheme=kind), cfg.x0, cfg.y)
                    for kind in ("euler", "exact")]
            rows.append((steps, *devs))
            del ens
        payload = {"rows": [dict(zip(header, row)) for row in rows]}
    return {"summary.json": {"mode": "convergence", "benchmark": benchmark, **payload},
            "convergence.csv": (header, [(n, *map(repr, errors)) for n, *errors in rows])}


_RUNNERS = {
    "simulate": run_simulate,
    "primal": run_primal,
    "dual": run_dual,
    "robust": run_robust,
    "bridge-check": run_bridge_check,
    "convergence": run_convergence,
}


# glibc's malloc serves an allocation of this many bytes or more with a
# mapping of its own, returned to the system when freed (see
# _map_large_arrays).  At 50k paths that is every path array, the sweep's
# 6.4 MB block of dB and a search's candidate buffers, each allocated once
# per call, while the 3.3 MB Poisson chunks and the 1.6 MB deviation blocks
# of the bridge checks, allocated in loops, reuse the heap: at 1 MiB,
# paths_io ran 4% slower (BENCH_sparse_jumps.json, earlier round)
MAP_THRESHOLD_BYTES = 2**22


def _map_large_arrays() -> None:
    """Fix glibc's mmap threshold at :data:`MAP_THRESHOLD_BYTES` and its
    trim threshold at twice that, glibc's own ratio; elsewhere, nothing.

    By default glibc raises both as mapped blocks are freed: once a
    candidate search frees its 16 MiB buffers, every array under 16 MiB
    comes from the heap, and up to 32 MiB of freed heap stays resident for
    the rest of the run, into the peak of a later experiment.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # malloc.h
    mallopt(m_mmap_threshold, MAP_THRESHOLD_BYTES)
    mallopt(m_trim_threshold, 2 * MAP_THRESHOLD_BYTES)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run ``cfg``'s mode into ``cfg.out_dir`` and return its main payload.
    The manifest is written before the run starts, so a run that fails
    still leaves it; the runner's files follow, all through :func:`_write`."""
    _map_large_arrays()
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    cfg_hash = cfg.hash()
    _write(os.path.join(out, "manifest.json"), _manifest(cfg), cfg_hash)
    files = _RUNNERS[cfg.mode](cfg)
    for name, content in files.items():
        _write(os.path.join(out, name), content, cfg_hash)
    return next(iter(files.values()))


# command-line flag: the config entry it overrides, "section.key" or a
# top-level key; a flag left unset keeps the config's value
_OVERRIDES = {
    "seed": "mc.seed", "paths": "mc.paths", "steps": "grid.steps", "out": "out",
    "mode": "adjoints", "y": "y", "grid_min": "primal.grid_min", "grid_max": "primal.grid_max",
    "grid_step": "primal.grid_step", "phi_grid": "robust.phi_grid", "mu_grid": "robust.mu_grid",
    "penalty_scale": "penalty.scale",
}


def _apply_overrides(raw: dict, args: argparse.Namespace, mode: str) -> dict:
    raw = {**raw, "mode": mode}
    for flag, entry in _OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if flag in ("phi_grid", "mu_grid"):
            try:
                lo, hi, count = value.split(":")
                value = {"min": float(lo), "max": float(hi), "count": int(count)}
            except ValueError:
                raise ConfigError(f"--{flag.replace('_', '-')} must be min:max:count with an "
                                  f"integer count, got {value!r}") from None
        section, _, key = entry.partition(".")
        if key:
            # a penalty scale given with no penalty section scales the quadratic
            start = raw.get(section, {"name": "quadratic"} if section == "penalty" else {})
            if not isinstance(start, dict):
                raise ConfigError(f"{section} must be a mapping")
            value = {**start, key: value}
        raw[section] = value
        # the adjoint mode also runs a bridge check's maps
        if flag == "mode" and isinstance(raw.get("bridge"), dict):
            raw["bridge"] = {**raw["bridge"], "adjoints": value}
    return raw


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duallab",
        description="Monte Carlo experiments for primal, dual and robust portfolio choice",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in _RUNNERS:
        p = sub.add_parser(mode, help=f"run the {mode} experiment")
        # a value such as the grid "-0.25:0:21" (the default mu grid is all
        # negative) is a value, not an option: argparse's own test for a
        # negative number takes only plain numbers
        p._negative_number_matcher = re.compile(r"^-\.?\d")
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
