"""Benchmark workloads: configs, one repetition each, and output checks.

A workload repetition runs one or more experiments through the public API
(``duallab.config`` then ``duallab.cli.run_experiment``) and then checks the
files they wrote.  At the canonical seed the written payloads must match the
goldens stored in ``perfbench/goldens``; at every seed they must satisfy
invariants that do not depend on the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from duallab import cli
from duallab.config import load_config, validate_config
from duallab.dual import ScenarioControl
from duallab.market import elmm_residual, price_paths, simulate_drivers

CANONICAL_SEED = 20240521
# Golden tolerance: |value - golden| <= RTOL*|golden| + ATOL.  It admits the
# reorderings of floating-point sums an optimisation may bring and nothing
# that moves an estimate; ATOL covers figures at rounding level (bridge
# identities, control-variate standard errors of about 1e-17).
RTOL = 1e-6
ATOL = 1e-12
# bridge identities and the product identity hold at rounding level
IDENTITY_TOL = 1e-12
# one in this many rows of paths.csv is re-derived from a fresh simulation
CSV_SAMPLE_STRIDE = 997


@dataclass(frozen=True)
class Experiment:
    label: str
    config: str              # relative to the checkout root
    overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    experiments: tuple[Experiment, ...]


# Each repetition runs the experiments of its workload in order, in one
# interpreter.  Two workloads of two or three experiments, rather than one
# workload per experiment, give repetitions of about 11 s and runs of 60 s:
# on a shared 2-core host whose CPU speed drifts by +-20% over tens of
# seconds, that is what keeps the run-to-run spread inside the bounds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search_sweep",
            (Experiment("robust_merton", "configs/robust_merton.yaml"),
             Experiment("jump_dual", "configs/jump_dual.yaml")),
        ),
        Workload(
            "paths_io",
            (Experiment("bridge_merton_log", "perfbench/configs/bridge_merton_log.yaml"),
             Experiment("bridge_robust_merton", "perfbench/configs/bridge_robust_merton.yaml"),
             Experiment("simulate", "configs/merton_log.yaml",
                        {"mode": "simulate", "mc": {"paths": 10000}})),
        ),
    )
}

# files each mode writes that are compared with the goldens
_PAYLOADS = {
    "robust": ("solution.json", "payoff_matrix.csv"),
    "dual": ("solution.json", "candidates.csv"),
    "bridge-check": ("report.json",),
    "simulate": ("summary.json", "paths.csv"),
}


class CheckError(Exception):
    """A written output failed a golden comparison or an invariant."""


def _merge(base: dict, over: dict) -> dict:
    out = dict(base)
    for key, value in over.items():
        out[key] = _merge(out.get(key, {}), value) if isinstance(value, dict) else value
    return out


def make_config(root: str, exp: Experiment, seed: int, out_dir: str):
    """Validated config of ``exp`` at ``seed``, writing into ``out_dir``."""
    raw = load_config(os.path.join(root, exp.config)).raw
    raw = _merge(raw, {**exp.overrides, "mc": {**exp.overrides.get("mc", {}), "seed": seed},
                       "out": out_dir})
    return validate_config(raw)


def out_dir(root: str, workload: Workload, exp: Experiment) -> str:
    return os.path.join(root, "perfbench", "out", workload.name, exp.label)


def clear_outputs(cfgs) -> None:
    for cfg in cfgs:
        shutil.rmtree(cfg.out_dir, ignore_errors=True)


def run_once(cfgs) -> None:
    """The timed unit: every experiment of one workload repetition."""
    for cfg in cfgs:
        cli.run_experiment(cfg)


# ---------------------------------------------------------------- reading outputs


def _read_json(path: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    payload.pop("config_hash", None)  # hashes the out path too
    return payload


def _read_csv_table(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# config_hash="):
            raise CheckError(f"{os.path.basename(path)}: missing config_hash comment line")
        return [row for row in csv.reader(fh)]


# Known defect: under numpy >= 2, ensemble_to_csv formats each value with
# repr() of a numpy scalar, so paths.csv holds "np.float64(1.0)" where "1.0"
# is meant.  The wrapped value is still exact.  The digest is taken over the
# unwrapped text, so the goldens describe the intended file and a fixed
# writer passes; each run reports whether the wrapping was seen.
_NP_WRAP = b"np.float64("


def _unwrap(body: bytes) -> bytes:
    return body.replace(_NP_WRAP, b"").replace(b")\r\n", b"\r\n").replace(b")\n", b"\n")


def _parse_value(text: str) -> float:
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _csv_digest(path: str) -> dict:
    """Line count and sha256 of paths.csv after its config_hash line, unwrapped."""
    digest = hashlib.sha256()
    rows = 0
    wrapped = False
    tail = b""
    with open(path, "rb") as fh:
        fh.readline()
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            rows += chunk.count(b"\n")
            chunk = tail + chunk
            cut = chunk.rfind(b"\n") + 1
            wrapped = wrapped or _NP_WRAP in chunk[:cut]
            digest.update(_unwrap(chunk[:cut]))
            tail = chunk[cut:]
    wrapped = wrapped or _NP_WRAP in tail
    digest.update(_unwrap(tail))
    return {"rows": rows, "sha256": digest.hexdigest(), "numpy_scalar_repr": wrapped}


def read_outputs(cfg) -> dict:
    """Everything the golden comparison looks at, for one experiment."""
    out = {}
    for name in _PAYLOADS[cfg.mode]:
        path = os.path.join(cfg.out_dir, name)
        if not os.path.exists(path):
            raise CheckError(f"{cfg.mode}: {name} was not written")
        if name == "paths.csv":
            out[name] = _csv_digest(path)
        elif name.endswith(".csv"):
            out[name] = _read_csv_table(path)
        else:
            out[name] = _read_json(path)
    return out


# ---------------------------------------------------------------- golden comparison


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def compare(value, golden, where: str = "") -> list[str]:
    """Differences between an output and its golden, within RTOL/ATOL."""
    if isinstance(golden, dict):
        if not isinstance(value, dict) or set(value) != set(golden):
            return [f"{where}: keys {sorted(value) if isinstance(value, dict) else value!r} "
                    f"!= {sorted(golden)}"]
        return [d for k in sorted(golden) for d in compare(value[k], golden[k], f"{where}.{k}")]
    if isinstance(golden, list):
        if not isinstance(value, list) or len(value) != len(golden):
            return [f"{where}: length differs from golden"]
        return [d for i, (v, g) in enumerate(zip(value, golden))
                for d in compare(v, g, f"{where}[{i}]")]
    if (isinstance(golden, str) and isinstance(value, str)
            and _is_number(golden) and _is_number(value)):
        value, golden = float(value), float(golden)
    if isinstance(golden, bool) or golden is None or isinstance(golden, str):
        return [] if value == golden else [f"{where}: {value!r} != golden {golden!r}"]
    if isinstance(golden, (int, float)) and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        if math.isfinite(golden) and abs(value - golden) <= RTOL * abs(golden) + ATOL:
            return []
        if value == golden:
            return []
    return [f"{where}: {value!r} != golden {golden!r}"]


# ---------------------------------------------------------------- invariants


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _check_saddle(cfg, out: dict) -> dict:
    sol = out["solution.json"]
    cf = sol["closed_form"]
    if not (_close(sol["pi"], 0.625, 1e-12) and _close(sol["mu"], -0.125, 1e-12)):
        raise CheckError(f"saddle at ({sol['pi']}, {sol['mu']}), expected (0.625, -0.125)")
    if not (_close(sol["pi"], cf["pi"], 1e-12) and _close(sol["mu"], cf["mu"], 1e-12)):
        raise CheckError("saddle differs from the closed form it reports")
    if sol["is_saddle"] is not True or sol["gap"] != 0.0:
        raise CheckError(f"not a pure saddle: is_saddle={sol['is_saddle']} gap={sol['gap']}")
    n_cells = len(out["payoff_matrix.csv"]) - 1
    if n_cells != 441:
        raise CheckError(f"payoff matrix has {n_cells} cells, expected 441")
    foc = sol["foc"]
    return {"foc_resid": max(foc["drift_mean_normalized"], foc["penalty_mean_normalized"])}


def _check_jump_dual(cfg, out: dict) -> dict:
    sol = out["solution.json"]
    model, grid = cfg.market_model(), cfg.time_grid()
    n = grid.n_steps
    # the control variates make candidate values seed-independent for log
    # utility, so the argmax of the shipped grid is the same on every seed
    if not (len(sol["theta1"]) == 1 and _close(sol["theta1"][0], -0.15, 1e-12)):
        raise CheckError(f"theta1 argmax {sol['theta1']}, expected [-0.15]")
    control = ScenarioControl(theta0=np.full(n, sol["theta0_initial"]),
                              theta1=np.tile(sol["theta1"], (n, 1)), y=sol["y"])
    resid = np.abs(elmm_residual(model, grid, control))
    # the constraint is eliminated exactly: what remains is the rounding of
    # b + sigma*theta0 + gamma*theta1*nu
    terms = (abs(float(model.drift)) + abs(float(model.vol) * sol["theta0_initial"])
             + sum(abs(g * sol["theta1"][0] * w)
                   for g, w in zip(model.jump_marks, model.jump_intensities)))
    if float(resid.max()) > 8 * np.finfo(float).eps * terms:
        raise CheckError(f"martingale-measure residual {resid.max():.3e} above rounding")
    rep = sol["replication"]
    if rep["n_nonpositive"] != 0:
        raise CheckError(f"replication lost positivity on {rep['n_nonpositive']} path-steps")
    if len(out["candidates.csv"]) - 1 != 19:
        raise CheckError("candidates.csv does not list the 19 candidates")
    return {
        "foc_resid": sol["foc_mean_normalized"],
        "p0_rel_err": abs(sol["p2_initial"] * sol["y"] - 1.0),
        "replication_rmse_rel": rep["rmse_rel"],
    }


def _check_bridge(cfg, out: dict) -> dict:
    rep = out["report.json"]
    worst = max(
        [v["max_abs"] for v in rep["identities_forward"].values()]
        + [v["max_abs"] for v in rep["identities_backward"].values()]
        + [rep["product_identity_max_dev"]]
    )
    if not worst <= IDENTITY_TOL:
        raise CheckError(f"{rep['case']}: identity residual {worst:.3e} > {IDENTITY_TOL:g}")
    if not _close(rep["pi_recovered"], rep["pi"], 1e-9):
        raise CheckError(f"{rep['case']}: pi {rep['pi']} recovered as {rep['pi_recovered']}")
    if not _close(rep["x_recovered"], cfg.x0, 1e-9):
        raise CheckError(f"{rep['case']}: x {cfg.x0} recovered as {rep['x_recovered']}")
    if "mu" in rep and not (_close(rep["mu_recovered"], rep["mu"], 1e-12)
                            and rep["mu_transferred"] == rep["mu"]):
        raise CheckError(f"{rep['case']}: mu {rep['mu']} not carried through the bridge")
    return {"bridge_resid_max": worst}


def _check_simulate(cfg, out: dict) -> dict:
    n_paths, n_steps = cfg.n_paths, cfg.n_steps
    expected_rows = n_paths * (n_steps + 1) + 1
    if out["paths.csv"]["rows"] != expected_rows:
        raise CheckError(f"paths.csv has {out['paths.csv']['rows']} lines, "
                         f"expected {expected_rows}")
    model, grid = cfg.market_model(), cfg.time_grid()
    ens = simulate_drivers(model, grid, n_paths, cfg.seed)
    spot = price_paths(model, ens)
    times = grid.times
    with open(os.path.join(cfg.out_dir, "paths.csv"), "rb") as fh:
        fh.readline()
        if fh.readline().rstrip(b"\r\n") != b"path,time,S":
            raise CheckError("paths.csv header is not path,time,S")
        for r, line in enumerate(fh):
            if r % CSV_SAMPLE_STRIDE:
                continue
            row = line.decode().rstrip("\r\n").split(",")
            p, j = divmod(r, n_steps + 1)
            if (len(row) != 3 or int(row[0]) != p or not _close(float(row[1]), times[j], 1e-9)
                    or _parse_value(row[2]) != spot[p, j]):
                raise CheckError(f"paths.csv row {r} {row} differs from a fresh simulation")
    summary = out["summary.json"]
    if (summary["n_paths"], summary["n_steps"], summary["seed"]) != (n_paths, n_steps, cfg.seed):
        raise CheckError("summary.json does not describe the simulated ensemble")
    if not _close(summary["channels"]["S"]["terminal_mean"], float(spot[:, -1].mean()), 1e-12):
        raise CheckError("summary.json terminal mean differs from a fresh simulation")
    # recorded as a known defect, not a failure; see _NP_WRAP
    wrapped = out["paths.csv"].pop("numpy_scalar_repr")
    return {"defect.paths_csv_numpy_repr": float(wrapped)}


_INVARIANTS = {
    "robust": _check_saddle,
    "dual": _check_jump_dual,
    "bridge-check": _check_bridge,
    "simulate": _check_simulate,
}


def golden_path(root: str, exp: Experiment) -> str:
    return os.path.join(root, "perfbench", "goldens", f"{exp.label}.json")


def check(root: str, workload: Workload, cfgs) -> dict:
    """Check one repetition's outputs; returns its accuracy figures by experiment.

    Figures named ``defect.*`` are 1.0 when a known defect showed (see
    perfbench/NOTES.md); they do not fail the check.

    Raises CheckError on the first failed comparison or invariant.
    """
    figures: dict[str, float] = {}
    for exp, cfg in zip(workload.experiments, cfgs):
        out = read_outputs(cfg)
        for key, value in _INVARIANTS[cfg.mode](cfg, out).items():
            figures[key if key.startswith("defect.") else f"{exp.label}.{key}"] = value
        if cfg.seed == CANONICAL_SEED:
            with open(golden_path(root, exp)) as fh:
                diffs = compare(out, json.load(fh), exp.label)
            if diffs:
                raise CheckError(f"{len(diffs)} golden mismatch(es), first: {diffs[0]}")
    return figures


def write_goldens(root: str, out_root: str) -> None:
    """Run every workload at the canonical seed and store its outputs as goldens."""
    for workload in WORKLOADS.values():
        cfgs = [make_config(root, exp, CANONICAL_SEED, os.path.join(out_root, exp.label))
                for exp in workload.experiments]
        clear_outputs(cfgs)
        run_once(cfgs)
        for exp, cfg in zip(workload.experiments, cfgs):
            out = read_outputs(cfg)
            _INVARIANTS[cfg.mode](cfg, out)
            with open(golden_path(root, exp), "w") as fh:
                json.dump(out, fh, indent=1, sort_keys=True)
                fh.write("\n")
