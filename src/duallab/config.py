"""Experiment configuration: YAML loading, schema validation, hashing.

Unknown keys are rejected with the offending field named; the Monte Carlo
seed is mandatory so every run is reproducible by construction.  Every
setting a runner reads is built here, from the one copy of its default.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np
import yaml

from .market import MarketModel, TimeGrid
from .preferences import (Penalty, UtilityPair, make_log_utility, make_power_utility,
                          make_quadratic_penalty)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


MODES = ("simulate", "primal", "dual", "robust", "bridge-check", "convergence")
ADJOINTS = ("analytic", "regression")

# largest driver storage a run may simulate: dB, paths * steps * 8 bytes, plus
# the jump events (see _check_driver_bytes); a run holds several path arrays
# of dB's size at once
MAX_DRIVER_BYTES = 2**29
# a mark's events are counted at a bound its Poisson total of jumps exceeds
# with probability below exp(-EVENT_TAIL_LOG), about 1e-12
EVENT_TAIL_LOG = 27.6
# the settings a runner reads where the config leaves them unset; none is
# written into the config, so a run's hash is that of the file as given
PRIMAL_GRID = {"grid_min": 0.0, "grid_max": 2.5, "grid_step": 0.05}
ROBUST_GRIDS = {"phi_grid": {"min": 0.125, "max": 1.125, "count": 21},
                "mu_grid": {"min": -0.25, "max": 0.0, "count": 21}}
CONVERGENCE = {"benchmark": "bsde", "paths": [10000, 25000, 50000], "steps": [25, 50, 100]}

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


def _choice(data: dict, key: str, path: str, choices: tuple, default: Any = None) -> Any:
    """A field that takes one of ``choices``; ``default`` where it is absent."""
    value = data.get(key, default)
    if value not in choices:
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"{where} must be one of {choices}, got {value!r}")
    return value


def _linspace(data: dict, key: str, path: str) -> np.ndarray | None:
    """The min:max:count grid ``data[key]``, None where it is unset; it needs
    finite ends and an integer count of at least 1."""
    grid = data.get(key)
    if grid is None:
        return None
    where = f"{path}.{key}"
    lo, hi = (_number(grid, end, where) for end in ("min", "max"))
    return np.linspace(lo, hi, _integer(grid, "count", where, 1))


def _ladder(data: dict, key: str) -> list[int]:
    """A convergence ladder: a non-empty list of integers of at least 1."""
    value = data[key]
    if not (isinstance(value, list) and value and all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in value)):
        raise ConfigError(f"convergence.{key} must list integers of at least 1, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the raw mapping it came from;
    its methods build the settings a runner reads."""

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
        """The utility pair, certified as it is built."""
        section = self.raw.get("utility", {"name": "log"})
        if section["name"] == "power":
            return make_power_utility(float(section["alpha"]))
        return make_log_utility()

    def penalty(self) -> Penalty:
        return make_quadratic_penalty(float(self.raw.get("penalty", {}).get("scale", 1.0)))

    def identity(self) -> dict:
        """The experiment's identity: the configuration less its output directory."""
        return {key: value for key, value in self.raw.items() if key != "out"}

    def hash(self) -> str:
        identity = json.dumps(self.identity(), sort_keys=True, default=str)
        return hashlib.sha256(identity.encode()).hexdigest()[:16]

    def primal_grid(self) -> np.ndarray:
        """The primal search's fractions: grid_min + k * grid_step, rounded to
        12 decimals, for k = 0 .. round((grid_max - grid_min) / grid_step)."""
        section = {**PRIMAL_GRID, **self.raw.get("primal", {})}
        lo, hi = (_number(section, key, "primal") for key in ("grid_min", "grid_max"))
        step = _number(section, "grid_step", "primal", positive=True)
        if hi < lo:
            raise ConfigError(
                f"primal.grid_max must be at least primal.grid_min = {lo!r}, got {hi!r}")
        return np.round(lo + step * np.arange(int(round((hi - lo) / step)) + 1), 12)

    def theta1_grid(self) -> np.ndarray | None:
        """The dual search's jump ratios, None where the config sets none."""
        return _linspace(self.raw.get("dual", {}), "theta1_grid", "dual")

    def robust_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """The robust search's fractions (phi_grid) and drift perturbations (mu_grid)."""
        section = {**ROBUST_GRIDS, **self.raw.get("robust", {})}
        return _linspace(section, "phi_grid", "robust"), _linspace(section, "mu_grid", "robust")

    def bridge(self) -> tuple[str, str]:
        """The bridge check's case and adjoint mode, by default the run's."""
        section = self.raw.get("bridge", {})
        return (_choice(section, "case", "bridge", ("merton_log", "robust_merton"), "merton_log"),
                _choice(section, "adjoints", "bridge", ADJOINTS, self.adjoints))

    def ladder(self) -> tuple[str, list[tuple[int, int]]]:
        """A convergence run's benchmark and the (paths, steps) of each rung:
        ``bsde`` takes convergence.paths at grid.steps, ``product-identity``
        convergence.steps at mc.paths."""
        section = {**CONVERGENCE, **self.raw.get("convergence", {})}
        benchmark = _choice(section, "benchmark", "convergence", ("bsde", "product-identity"))
        paths, steps = (_ladder(section, key) for key in ("paths", "steps"))
        if benchmark == "bsde":
            return benchmark, [(n, self.n_steps) for n in paths]
        return benchmark, [(self.n_paths, n) for n in steps]


def validate_config(raw: dict) -> ExperimentConfig:
    """The configuration as a run reads it.  Every setting a runner reads is
    checked here, its grids and ladders built, so a bad one is refused
    before anything is simulated or written."""
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
    cfg = ExperimentConfig(
        raw=raw,
        mode=_choice(raw, "mode", "", MODES, "simulate"),
        n_paths=paths,
        seed=seed,
        n_steps=steps,
        x0=_number(raw, "x0", "", positive=True, default=1.0),
        y=_number(raw, "y", "", positive=True, default=1.0),
        adjoints=_choice(raw, "adjoints", "", ADJOINTS, "regression"),
        out_dir=str(raw.get("out", "runs")),
    )
    for setting in (cfg.primal_grid, cfg.theta1_grid, cfg.robust_grids, cfg.bridge, cfg.ladder):
        setting()
    if cfg.mode == "dual" and market.get("jumps") and cfg.theta1_grid() is None:
        raise ConfigError("dual.theta1_grid required for a jump market")
    # the utility is checked, not built: a pair is certified as it is built
    utility = raw.get("utility", {"name": "log"})
    if _choice(utility, "name", "utility", ("log", "power")) == "power":
        alpha = _number(utility, "alpha", "utility")
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"utility.alpha must lie in (0, 1), got {alpha!r}")
    penalty = raw.get("penalty", {})
    _choice(penalty, "name", "penalty", ("quadratic",), "quadratic")
    _number(penalty, "scale", "penalty", positive=True, default=1.0)
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
    A convergence run is sized at each rung of the ladder it takes."""
    field, rungs = "mc.paths", [(cfg.n_paths, cfg.n_steps)]
    if cfg.mode == "convergence":
        benchmark, rungs = cfg.ladder()
        if benchmark == "bsde":
            field = "convergence.paths"
    marks = model.n_marks
    for paths, steps in rungs:
        need = paths * steps * 8 + (20 + 8 * marks) * sum(
            _event_bound(paths * lam * model.horizon, paths * steps)
            for lam in model.jump_intensities)
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
