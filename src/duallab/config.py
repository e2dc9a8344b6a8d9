"""Experiment configuration: YAML loading, schema validation, hashing.

Unknown keys are rejected with the offending field named; the Monte Carlo
seed is mandatory so every run is reproducible by construction.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import yaml

from .market import MarketModel, TimeGrid
from .preferences import Penalty, UtilityPair, penalty_from_config, utility_from_config


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


MODES = ("simulate", "primal", "dual", "robust", "bridge-check", "convergence")

# largest driver storage a run may simulate: dB, paths * steps * 8 bytes, plus
# the jump events (see _check_driver_bytes); a run holds several path arrays
# of dB's size at once
MAX_DRIVER_BYTES = 2**29
# a mark's events are counted at a bound its Poisson total of jumps exceeds
# with probability below exp(-EVENT_TAIL_LOG), about 1e-12
EVENT_TAIL_LOG = 27.6
# the primal search grid where the config's primal section leaves it unset
PRIMAL_GRID = {"grid_min": 0.0, "grid_max": 2.5, "grid_step": 0.05}

_SCHEMA: dict[str, Any] = {
    "market": {"drift": float, "vol": float, "s0": float, "horizon": float, "jumps": list},
    "grid": {"steps": int},
    "mc": {"paths": int, "seed": int},
    "utility": {"name": str, "alpha": float},
    "penalty": {"name": str, "scale": float},
    "mode": str,
    "x0": float,
    "y": float,
    "primal": {"grid_min": float, "grid_max": float, "grid_step": float},
    "dual": {"theta1_grid": {"min": float, "max": float, "count": int}},
    "robust": {
        "phi_grid": {"min": float, "max": float, "count": int},
        "mu_grid": {"min": float, "max": float, "count": int},
    },
    "bridge": {"case": str, "adjoints": str},
    "convergence": {"benchmark": str, "paths": list, "steps": list},
    "adjoints": str,
    "out": str,
}


def _check_keys(data: dict, schema: dict, path: str) -> None:
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown configuration key: {where}")
        expected = schema[key]
        if isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be a mapping")
            _check_keys(value, expected, where)


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"missing required configuration field: {path + '.' if path else ''}{key}")
    return data[key]


def _integer(data: dict, key: str, path: str, low: int, bits: int | None = None) -> int:
    """A required integer field of at least ``low`` and, with ``bits`` given,
    below 2**bits."""
    value = _require(data, key, path)
    below = "" if bits is None else f" and below 2**{bits}"
    if (isinstance(value, bool) or not isinstance(value, int) or value < low
            or (bits is not None and value >= 2**bits)):
        raise ConfigError(f"{path}.{key} must be an integer of at least {low}{below}, got {value!r}")
    return value


def _number(data: dict, key: str, path: str, positive: bool = False,
            default: float | None = None) -> float:
    """A finite real field, positive when ``positive`` is set; ``default`` when
    one is given and the field is absent.  A string that reads as a number
    counts: YAML reads 1e-3, without a dot, as a string."""
    value = _require(data, key, path) if default is None else data.get(key, default)
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number) or (positive and number <= 0):
        where = f"{path}.{key}" if path else key
        kind = "a positive finite number" if positive else "a finite number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return number


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the raw mapping it came from."""

    raw: dict
    mode: str
    n_paths: int
    seed: int
    n_steps: int
    x0: float
    y: float
    adjoints: str
    out_dir: str

    def market_model(self) -> MarketModel:
        m = self.raw["market"]
        jumps = m.get("jumps", []) or []
        return MarketModel(
            drift=float(m["drift"]),
            vol=float(m["vol"]),
            jump_marks=tuple(float(j["mark"]) for j in jumps),
            jump_intensities=tuple(float(j["intensity"]) for j in jumps),
            horizon=float(m["horizon"]),
            s0=float(m.get("s0", 1.0)),
        )

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.n_steps, float(self.raw["market"]["horizon"]))

    def utility(self) -> UtilityPair:
        return utility_from_config(self.raw.get("utility", {"name": "log"}))

    def penalty(self) -> Penalty:
        return penalty_from_config(self.raw.get("penalty", {"name": "quadratic"}))

    def hash(self) -> str:
        return config_hash(self.raw)


def config_hash(raw: dict) -> str:
    """Identity of an experiment; the output directory is not part of it."""
    identity = {key: value for key, value in raw.items() if key != "out"}
    return hashlib.sha256(
        json.dumps(identity, sort_keys=True, default=str).encode()
    ).hexdigest()[:16]


def validate_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    _check_keys(raw, _SCHEMA, "")
    market = _require(raw, "market", "")
    for key in ("drift", "vol"):
        _number(market, key, "market")
    _number(market, "s0", "market", positive=True, default=1.0)
    _number(market, "horizon", "market", positive=True)
    for j, jump in enumerate(market.get("jumps", []) or []):
        if not isinstance(jump, dict):
            raise ConfigError(f"market.jumps[{j}] must be a mapping")
        for key in ("mark", "intensity"):
            _number(jump, key, f"market.jumps[{j}]")
        extra = set(jump) - {"mark", "intensity"}
        if extra:
            raise ConfigError(f"unknown configuration key: market.jumps[{j}].{extra.pop()}")
    grid = _require(raw, "grid", "")
    steps = _integer(grid, "steps", "grid", 1)
    mc = _require(raw, "mc", "")
    paths = _integer(mc, "paths", "mc", 1)
    seed = _integer(mc, "seed", "mc", 0, bits=128)  # a Philox key is 128 unsigned bits
    mode = raw.get("mode", "simulate")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    adjoints = raw.get("adjoints", "regression")
    if adjoints not in ("analytic", "regression"):
        raise ConfigError("adjoints must be 'analytic' or 'regression'")
    _check_grids(raw)
    cfg = ExperimentConfig(
        raw=raw,
        mode=mode,
        n_paths=paths,
        seed=seed,
        n_steps=steps,
        x0=_number(raw, "x0", "", positive=True, default=1.0),
        y=_number(raw, "y", "", positive=True, default=1.0),
        adjoints=adjoints,
        out_dir=str(raw.get("out", "runs")),
    )
    # fail early on bad market coefficients: a negative intensity, a jump of
    # -100% or below
    try:
        model = cfg.market_model()
        _check_driver_bytes(cfg, model)
        model.validate_on(cfg.time_grid())
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"market: {exc}") from exc
    return cfg


def _check_grids(raw: dict) -> None:
    """Refuse a search grid with no candidate or a non-finite one: the
    primal grid needs finite ends, grid_max >= grid_min and a positive
    finite grid_step; a min:max:count grid needs finite ends and an integer
    count of at least 1."""
    primal = {**PRIMAL_GRID, **raw.get("primal", {})}
    lo, hi = (_number(primal, key, "primal") for key in ("grid_min", "grid_max"))
    _number(primal, "grid_step", "primal", positive=True)
    if hi < lo:
        raise ConfigError(f"primal.grid_max must be at least primal.grid_min = {lo!r}, got {hi!r}")
    grids = {"dual.theta1_grid": raw.get("dual", {}).get("theta1_grid")}
    for key in ("phi_grid", "mu_grid"):
        grids[f"robust.{key}"] = raw.get("robust", {}).get(key)
    for where, grid in grids.items():
        if grid is not None:
            for key in ("min", "max"):
                _number(grid, key, where)
            _integer(grid, "count", where, 1)


def _event_bound(mean: float, cells: int) -> int:
    """A bound on one mark's events, at most ``cells``: its nonzero cells are
    at most its total of jumps N, Poisson(``mean``), and N exceeds mean + t
    with probability below exp(-EVENT_TAIL_LOG) for this t, by Bernstein's
    inequality P(N >= mean + t) <= exp(-t^2 / (2 (mean + t/3)))."""
    x = EVENT_TAIL_LOG
    t = x / 3 + math.sqrt(x * x / 9 + 2 * mean * x)
    return min(cells, math.ceil(mean + t))


def _check_driver_bytes(cfg: ExperimentConfig, model: MarketModel) -> None:
    """Refuse a run whose driver storage exceeds :data:`MAX_DRIVER_BYTES`,
    before anything of that size (the time grid included) is allocated.

    The storage is dB, 8 bytes per (path, step), plus each mark's jump
    events at :func:`_event_bound`, 20 + 8 * marks bytes each: an int32
    path and a float64 count in step order, and at most one cell of the
    path-ordered table (int32 path and step, one float64 count per mark).
    A convergence run is sized by the largest entry of its ladders."""
    ladder = cfg.raw.get("convergence", {}) if cfg.mode == "convergence" else {}
    try:
        ladder_paths = max(map(int, ladder.get("paths", [])), default=0)
        steps = max([cfg.n_steps, *map(int, ladder.get("steps", []))])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"convergence.paths and convergence.steps must list integers: {exc}") \
            from exc
    field, paths = ("convergence.paths", ladder_paths) if ladder_paths > cfg.n_paths \
        else ("mc.paths", cfg.n_paths)
    marks = model.n_marks
    need = paths * steps * 8 + (20 + 8 * marks) * sum(
        _event_bound(paths * lam * model.horizon, paths * steps) for lam in model.jump_intensities)
    if need > MAX_DRIVER_BYTES:
        raise ConfigError(
            f"{field} = {paths} with {steps} steps and {marks} jump mark(s) needs "
            f"{need / 2**20:.0f} MiB of driver arrays, above the "
            f"{MAX_DRIVER_BYTES // 2**20} MiB limit; reduce {field}"
        )


def read_config(path: str) -> dict:
    """The raw mapping of a YAML configuration file, not yet validated."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raise ConfigError(f"empty configuration file: {path}")
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    return raw


def load_config(path: str) -> ExperimentConfig:
    return validate_config(read_config(path))
