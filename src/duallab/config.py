"""Experiment configuration: YAML loading, schema validation, hashing.

Unknown keys are rejected with the offending field named; the Monte Carlo
seed is mandatory so every run is reproducible by construction.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

import yaml

from .market import MarketModel, TimeGrid
from .preferences import Penalty, UtilityPair, penalty_from_config, utility_from_config


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


MODES = ("simulate", "primal", "dual", "robust", "bridge-check", "convergence")

# largest driver arrays a run may simulate, paths * steps * (1 + marks) * 8
# bytes; a run holds several path arrays of that order at once
MAX_DRIVER_BYTES = 2**29

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
        raise ConfigError(f"missing required configuration field: {path}.{key}" if path else key)
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
    for key in ("drift", "vol", "horizon"):
        _require(market, key, "market")
    for j, jump in enumerate(market.get("jumps", []) or []):
        if not isinstance(jump, dict):
            raise ConfigError(f"market.jumps[{j}] must be a mapping")
        for key in ("mark", "intensity"):
            _require(jump, key, f"market.jumps[{j}]")
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
    cfg = ExperimentConfig(
        raw=raw,
        mode=mode,
        n_paths=paths,
        seed=seed,
        n_steps=steps,
        x0=float(raw.get("x0", 1.0)),
        y=float(raw.get("y", 1.0)),
        adjoints=adjoints,
        out_dir=str(raw.get("out", "runs")),
    )
    _check_driver_bytes(cfg)
    # fail early on bad market coefficients
    cfg.market_model().validate_on(cfg.time_grid())
    return cfg


def _check_driver_bytes(cfg: ExperimentConfig) -> None:
    """Refuse a run whose driver arrays exceed :data:`MAX_DRIVER_BYTES`,
    before anything of that size (the time grid included) is allocated.
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
    marks = len(cfg.raw["market"].get("jumps", []) or [])
    need = paths * steps * (1 + marks) * 8
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
