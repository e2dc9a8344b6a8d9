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
from .preferences import (Penalty, UtilityPair, has_closed_form_adjoints, make_log_utility,
                          make_power_utility, make_quadratic_penalty)
from .primal import closed_form_refusal


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
# most candidates a search grid may hold, counted before the grid is built:
# a robust search counts its phi x mu product (441 in the shipped config)
MAX_GRID_CANDIDATES = 10**6
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


def _jumps(market: dict) -> list[tuple[float, float]]:
    """The (mark, intensity) of each entry of market.jumps, a list of
    mappings with those two keys; none where it is unset or null."""
    jumps = [] if market.get("jumps") is None else market["jumps"]
    if not isinstance(jumps, list):
        raise ConfigError(f"market.jumps must be a list, got {jumps!r}")
    out = []
    for j, jump in enumerate(jumps):
        where = f"market.jumps[{j}]"
        if not isinstance(jump, dict):
            raise ConfigError(f"{where} must be a mapping")
        _check_keys(jump, {"mark": float, "intensity": float}, where)
        out.append((_number(jump, "mark", where), _number(jump, "intensity", where)))
    return out


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


def _linspace_spec(data: dict, key: str, path: str) -> tuple[float, float, int] | None:
    """The (min, max, count) of the grid ``data[key]``, None where it is
    unset; it needs finite ends and an integer count of at least 1."""
    grid = data.get(key)
    if grid is None:
        return None
    where = f"{path}.{key}"
    lo, hi = (_number(grid, end, where) for end in ("min", "max"))
    return lo, hi, _integer(grid, "count", where, 1)


def _bounded(count: float, field: str) -> None:
    """Refuse a search of more than :data:`MAX_GRID_CANDIDATES` candidates,
    naming the field that sets their count."""
    if not count <= MAX_GRID_CANDIDATES:
        shown = count if count < 1e15 else f"{float(count):.3g}"
        raise ConfigError(f"{field} gives {shown} grid candidates, above the "
                          f"{MAX_GRID_CANDIDATES} limit")


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
        jumps = _jumps(m)
        return MarketModel(
            drift=float(m["drift"]),
            vol=float(m["vol"]),
            jump_marks=tuple(mark for mark, _ in jumps),
            jump_intensities=tuple(intensity for _, intensity in jumps),
            horizon=float(m["horizon"]),
            s0=_number(m, "s0", "market", positive=True, default=1.0),
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
        section = self.raw.get("penalty", {})
        _choice(section, "name", "penalty", ("quadratic",), "quadratic")
        return make_quadratic_penalty(_number(section, "scale", "penalty", positive=True,
                                              default=1.0))

    def identity(self) -> dict:
        """The experiment's identity: the configuration less its output directory."""
        return {key: value for key, value in self.raw.items() if key != "out"}

    def hash(self) -> str:
        identity = json.dumps(self.identity(), sort_keys=True, default=str)
        return hashlib.sha256(identity.encode()).hexdigest()[:16]

    def primal_grid(self) -> np.ndarray:
        """The primal search's fractions grid_min + k * grid_step <= grid_max
        (within 1e-9 of a step), k = 0, 1, ..., rounded to 12 decimals."""
        section = {**PRIMAL_GRID, **self.raw.get("primal", {})}
        lo, hi = (_number(section, key, "primal") for key in ("grid_min", "grid_max"))
        step = _number(section, "grid_step", "primal", positive=True)
        if hi < lo:
            raise ConfigError(
                f"primal.grid_max must be at least primal.grid_min = {lo!r}, got {hi!r}")
        # (hi - lo) / step overflows to inf for a subnormal step
        last = (hi - lo) / step
        count = math.floor(last + 1e-9) + 1 if math.isfinite(last) else math.inf
        _bounded(count, "primal.grid_step")
        return np.round(lo + step * np.arange(count), 12)

    def theta1_grid(self) -> np.ndarray | None:
        """The dual search's jump ratios, None where the config sets none."""
        spec = _linspace_spec(self.raw.get("dual", {}), "theta1_grid", "dual")
        if spec is None:
            return None
        _bounded(spec[2], "dual.theta1_grid.count")
        return np.linspace(*spec)

    def robust_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """The robust search's fractions (phi_grid) and drift perturbations
        (mu_grid), bounded as one grid of phi x mu candidates."""
        section = {**ROBUST_GRIDS, **self.raw.get("robust", {})}
        # both set: each has a default, and a section given as null is refused
        phi, mu = (_linspace_spec(section, key, "robust") for key in ("phi_grid", "mu_grid"))
        _bounded(phi[2] * mu[2], "robust.phi_grid.count x robust.mu_grid.count")
        return np.linspace(*phi), np.linspace(*mu)

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
    _number(market, "horizon", "market", positive=True)
    _jumps(market)
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
    # a search's first-order residuals are summarized over the interior steps
    # (mc.interior_window), which fewer than 3 steps leave empty
    if cfg.mode in ("primal", "dual", "robust") and steps < 3:
        raise ConfigError(f"grid.steps must be at least 3 for a {cfg.mode} run, whose first-order "
                          f"residuals are summarized over the interior steps; got {steps}")
    for setting in (cfg.primal_grid, cfg.theta1_grid, cfg.robust_grids, cfg.bridge, cfg.ladder,
                    cfg.penalty):
        setting()
    if cfg.mode == "dual" and market.get("jumps") and cfg.theta1_grid() is None:
        raise ConfigError("dual.theta1_grid required for a jump market")
    # the utility is checked, not built: a pair is certified as it is built
    utility = raw.get("utility", {"name": "log"})
    if _choice(utility, "name", "utility", ("log", "power")) == "power":
        alpha = _number(utility, "alpha", "utility")
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"utility.alpha must lie in (0, 1), got {alpha!r}")
    # the adjoint mode a run reads: a bridge check's own, a search's the run's
    field, adjoints = (("bridge.adjoints", cfg.bridge()[1]) if cfg.mode == "bridge-check"
                       else ("adjoints", cfg.adjoints))
    if (cfg.mode in ("primal", "dual", "robust", "bridge-check") and adjoints == "analytic"
            and not has_closed_form_adjoints(utility["name"])):
        raise ConfigError(f"{field} = 'analytic' needs closed-form adjoints, which "
                          f"utility.name = {utility['name']!r} does not have; use regression")
    # fail early on bad market coefficients: a negative intensity, a jump of
    # -100% or below
    try:
        model = cfg.market_model()
        # a bridge check starts from the log closed form of its case
        if cfg.mode == "bridge-check" and (refusal := closed_form_refusal(model)):
            raise ConfigError(f"mode bridge-check: {refusal}")
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
    """The raw mapping of a YAML configuration file, not yet validated; a
    file that is not UTF-8 text or not YAML is refused, naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path} is not valid YAML: {exc}") from None
    if raw is None:
        raise ConfigError(f"empty configuration file: {path}")
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    return raw


def load_config(path: str) -> ExperimentConfig:
    return validate_config(read_config(path))
