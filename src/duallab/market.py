"""Ito-Levy market: driving noise, price, wealth and scenario-density paths.

The risky asset follows ``dS = S(t-) [b dt + sigma dB + sum_k gamma_k dNtilde_k]``
with a compound-Poisson jump part (finitely many marks).  All forward processes
default to exact log-Euler (stochastic-exponential) updates, so positivity of
price, fraction-parameterized wealth and density paths is structural rather
than statistical.  A plain Euler scheme is kept for unit-count wealth and for
scheme-order studies.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

TimeFn = Callable[[float], float]

# |sigma| below this is treated as a vanishing diffusion coefficient
DEGENERATE_VOL = 1e-14
# jump ratios theta1 must stay above -1 by this margin
THETA1_FLOOR = -1.0 + 1e-6
# why a constant fraction with 1 + pi*gamma <= 0 is excluded from a search
INADMISSIBLE_FRACTION = "1 + pi*gamma <= 0; candidate inadmissible"


class AdmissibilityError(ValueError):
    """A wealth path lost positivity (or a fraction made 1 + pi*gamma <= 0)."""


def as_time_fn(value: float | TimeFn) -> TimeFn:
    if callable(value):
        return value
    return lambda t, _v=float(value): _v


def eval_on_grid(value: float | TimeFn | np.ndarray, times: np.ndarray) -> np.ndarray:
    """Evaluate a scalar / callable / per-step array on the given times."""
    if callable(value):
        out = np.asarray([float(value(t)) for t in times], dtype=float)
    else:
        out = np.broadcast_to(np.asarray(value, dtype=float), times.shape).copy()
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = horizon."""

    n_steps: int
    horizon: float

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    @property
    def left_times(self) -> np.ndarray:
        """Left endpoints t_0 .. t_{n-1}; coefficients are sampled here."""
        return self.times[:-1]


@dataclass(frozen=True)
class MarketModel:
    """Coefficients of the risky asset and the jump measure.

    ``drift`` and ``vol`` may be scalars or deterministic functions of time.
    ``jump_size`` maps (t, mark) to the relative price jump; by default the
    mark itself is the jump size.  The jump measure is a finite list of
    (mark, intensity) pairs, so jump integrals are finite sums.
    """

    drift: float | TimeFn = 0.0
    vol: float | TimeFn = 0.0
    jump_marks: tuple[float, ...] = ()
    jump_intensities: tuple[float, ...] = ()
    jump_size: Callable[[float, float], float] | None = None
    horizon: float = 1.0
    s0: float = 1.0

    def __post_init__(self) -> None:
        if len(self.jump_marks) != len(self.jump_intensities):
            raise ValueError("jump_marks and jump_intensities must have equal length")
        if any(w < 0 for w in self.jump_intensities):
            raise ValueError("jump intensities must be nonnegative")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if not self.s0 > 0:
            raise ValueError("s0 must be positive")

    @property
    def n_marks(self) -> int:
        return len(self.jump_marks)

    @property
    def intensities(self) -> np.ndarray:
        return np.asarray(self.jump_intensities, dtype=float)

    def drift_on(self, grid: TimeGrid) -> np.ndarray:
        return eval_on_grid(self.drift, grid.left_times)

    def vol_on(self, grid: TimeGrid) -> np.ndarray:
        return eval_on_grid(self.vol, grid.left_times)

    def jump_sizes_on(self, grid: TimeGrid) -> np.ndarray:
        """gamma(t_i, mark_k) as an (n_steps, n_marks) array."""
        if self.n_marks == 0:
            return np.zeros((grid.n_steps, 0))
        size = self.jump_size or (lambda t, mark: mark)
        out = np.empty((grid.n_steps, self.n_marks))
        for k, mark in enumerate(self.jump_marks):
            out[:, k] = [float(size(t, mark)) for t in grid.left_times]
        return out

    def validate_on(self, grid: TimeGrid) -> None:
        b, s, g = self.drift_on(grid), self.vol_on(grid), self.jump_sizes_on(grid)
        for name, arr in (("drift", b), ("vol", s), ("jump size", g)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} is not finite on the grid")
        if g.size and np.any(g <= -1.0):
            raise ValueError("jump sizes must satisfy gamma > -1 (price positivity)")


@dataclass(frozen=True)
class Perturbation:
    """Drift perturbation mu(t); mu*sigma is added to the price drift."""

    value: float | TimeFn = 0.0

    def on_grid(self, grid: TimeGrid) -> np.ndarray:
        return eval_on_grid(self.value, grid.left_times)


def _mu_on_grid(mu, grid: TimeGrid) -> np.ndarray:
    if mu is None:
        return np.zeros(grid.n_steps)
    if isinstance(mu, Perturbation):
        return mu.on_grid(grid)
    return eval_on_grid(mu, grid.left_times)


def perturbed_model(model: MarketModel, mu) -> MarketModel:
    """Market with drift b + mu*sigma; all other coefficients unchanged."""
    mu_fn = as_time_fn(mu.value if isinstance(mu, Perturbation) else mu)
    b_fn, s_fn = as_time_fn(model.drift), as_time_fn(model.vol)
    return MarketModel(
        drift=lambda t: b_fn(t) + mu_fn(t) * s_fn(t),
        vol=model.vol,
        jump_marks=model.jump_marks,
        jump_intensities=model.jump_intensities,
        jump_size=model.jump_size,
        horizon=model.horizon,
        s0=model.s0,
    )


@dataclass
class PathEnsemble:
    """Simulated driving noise plus derived path channels.

    The driver arrays are frozen after generation; derived channels (price,
    wealth, density, adjoints) are attached by the operations that compute
    them.  Per-path computations are pure functions of the drivers.
    """

    model: MarketModel
    grid: TimeGrid
    n_paths: int
    seed: int
    brownian_increments: np.ndarray  # (n_paths, n_steps)
    jump_counts: np.ndarray          # (n_paths, n_steps, n_marks)
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def compensated_jumps(self) -> np.ndarray:
        """Ntilde increments: count - intensity*dt, per (path, step, mark)."""
        lam = self.model.intensities * self.grid.dt
        return self.jump_counts - lam[None, None, :]

    def compensated_step(self, i: int) -> np.ndarray:
        """Ntilde increments of step ``i`` only, (n_paths, n_marks): the slice of
        :attr:`compensated_jumps` without building the whole array."""
        return self.jump_counts[:, i] - self.model.intensities * self.grid.dt

    def attach(self, name: str, values: np.ndarray) -> np.ndarray:
        self.channels[name] = values
        return values

    def channel(self, name: str) -> np.ndarray:
        if name not in self.channels:
            raise KeyError(
                f"channel {name!r} not attached; available: {sorted(self.channels)}"
            )
        return self.channels[name]

    def terminal_controls(self) -> np.ndarray:
        """Zero-mean terminal statistics (B_T, compensated jump totals).

        Used as control variates for candidate-value estimation.
        """
        cols = [self.brownian_increments.sum(axis=1)]
        if self.model.n_marks:
            cols.extend(self.compensated_jumps.sum(axis=1).T)
        return np.column_stack(cols)

    def split_indices(self, split_seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic 50/50 train/test split of path indices."""
        rng = np.random.Generator(np.random.Philox(key=split_seed))
        perm = rng.permutation(self.n_paths)
        half = self.n_paths // 2
        return perm[:half], perm[half:]


def simulate_drivers(
    model: MarketModel, grid: TimeGrid, n_paths: int, seed: int
) -> PathEnsemble:
    """Draw Brownian increments and per-mark Poisson jump counts.

    The generator is counter-based (Philox keyed by the seed), so identical
    inputs give bit-identical ensembles and block generation is order
    independent.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    model.validate_on(grid)
    rng = np.random.Generator(np.random.Philox(key=seed))
    dt = grid.dt
    db = rng.normal(0.0, math.sqrt(dt), size=(n_paths, grid.n_steps))
    k = model.n_marks
    if k:
        lam = model.intensities * dt
        counts = rng.poisson(lam=lam, size=(n_paths, grid.n_steps, k)).astype(float)
    else:
        counts = np.zeros((n_paths, grid.n_steps, 0))
    return PathEnsemble(model, grid, n_paths, seed, db, counts)


def _log_factors(
    drift_arr: np.ndarray,      # (n_steps,) dt-coefficient before compensation
    diff_arr: np.ndarray,       # (n_steps,) Brownian coefficient
    jump_ratio: np.ndarray,     # (n_steps, K) relative jump of the process
    intensities: np.ndarray,
    ensemble: PathEnsemble,
) -> np.ndarray:
    """Per-step log increments of a stochastic exponential.

    The jump compensator -sum_k ratio_k*nu_k dt is folded into the drift so
    compensated jump integrals are exact per step.
    """
    dt = ensemble.grid.dt
    comp = jump_ratio @ intensities if jump_ratio.size else np.zeros_like(drift_arr)
    ln = (drift_arr - 0.5 * diff_arr**2 - comp)[None, :] * dt
    ln = ln + diff_arr[None, :] * ensemble.brownian_increments
    if jump_ratio.size:
        if np.any(jump_ratio <= -1.0):
            raise ValueError("jump ratio <= -1 would break positivity")
        ln = ln + np.einsum("pik,ik->pi", ensemble.jump_counts, np.log1p(jump_ratio))
    return ln


def price_paths(model: MarketModel, ensemble: PathEnsemble) -> np.ndarray:
    """Price channel S via the exact exponential update; attaches "S"."""
    grid = ensemble.grid
    b, s = model.drift_on(grid), model.vol_on(grid)
    gam = model.jump_sizes_on(grid)
    ln = _log_factors(b, s, gam, model.intensities, ensemble)
    out = np.empty((ensemble.n_paths, grid.n_steps + 1))
    out[:, 0] = model.s0
    out[:, 1:] = model.s0 * np.exp(np.cumsum(ln, axis=1))
    return ensemble.attach("S", out)


@dataclass(frozen=True)
class Strategy:
    """Portfolio parameterization: fraction-of-wealth pi or unit counts phi.

    Values may be a scalar, a per-step array (n_steps,), a per-path array
    (n_paths, n_steps), or a feedback callable (t, X, S) -> per-path values.
    """

    kind: str  # "fraction" | "units"
    values: object

    def __post_init__(self) -> None:
        if self.kind not in ("fraction", "units"):
            raise ValueError("kind must be 'fraction' or 'units'")

    @classmethod
    def fraction(cls, values) -> "Strategy":
        return cls("fraction", values)

    @classmethod
    def units(cls, values) -> "Strategy":
        return cls("units", values)

    def at_step(self, i: int, t: float, x: np.ndarray, s: np.ndarray) -> np.ndarray:
        v = self.values
        if callable(v):
            return np.broadcast_to(np.asarray(v(t, x, s), dtype=float), x.shape)
        arr = np.asarray(v, dtype=float)
        if arr.ndim == 0:
            return np.full_like(x, float(arr))
        if arr.ndim == 1:
            return np.full_like(x, arr[i])
        return arr[:, i]


def wealth_paths(
    model: MarketModel,
    ensemble: PathEnsemble,
    strategy: Strategy,
    x0: float,
    mu=None,
    scheme: str = "exact",
) -> np.ndarray:
    """Self-financing wealth under ``strategy`` in the (perturbed) market.

    Fraction strategies use the exact exponential update (positive by
    construction whenever 1 + pi*gamma > 0); unit-count strategies use plain
    Euler and raise :class:`AdmissibilityError` if any path loses positivity.
    """
    if not x0 > 0:
        raise ValueError("initial wealth must be positive")
    grid = ensemble.grid
    dt = grid.dt
    b = model.drift_on(grid) + _mu_on_grid(mu, grid) * model.vol_on(grid)
    s = model.vol_on(grid)
    gam = model.jump_sizes_on(grid)
    nu = model.intensities
    spot = ensemble.channels.get("S")
    if spot is None:
        spot = price_paths(model, ensemble)
    x = np.empty((ensemble.n_paths, grid.n_steps + 1))
    x[:, 0] = x0
    for i, t in enumerate(grid.left_times):
        vals = strategy.at_step(i, t, x[:, i], spot[:, i])
        if strategy.kind == "fraction":
            pi = vals
            if gam.size:
                ratio = pi[:, None] * gam[i][None, :]
                if np.any(ratio <= -1.0):
                    raise AdmissibilityError(
                        f"1 + pi*gamma <= 0 at step {i}; fraction strategy inadmissible"
                    )
            if scheme == "exact":
                ln = (pi * b[i] - 0.5 * pi**2 * s[i] ** 2) * dt + pi * s[i] * ensemble.brownian_increments[:, i]
                if gam.size:
                    ln = ln - pi * (gam[i] @ nu) * dt
                    ln = ln + np.einsum("pk,pk->p", ensemble.jump_counts[:, i], np.log1p(ratio))
                x[:, i + 1] = x[:, i] * np.exp(ln)
            else:
                inc = pi * (b[i] * dt + s[i] * ensemble.brownian_increments[:, i])
                if gam.size:
                    inc = inc + pi * (ensemble.compensated_step(i) @ gam[i])
                x[:, i + 1] = x[:, i] * (1.0 + inc)
                _check_positive(x[:, i + 1], i)
        else:
            phi = vals
            inc = b[i] * dt + s[i] * ensemble.brownian_increments[:, i]
            if gam.size:
                inc = inc + ensemble.compensated_step(i) @ gam[i]
            x[:, i + 1] = x[:, i] + phi * spot[:, i] * inc
            _check_positive(x[:, i + 1], i)
    return x


def _check_positive(col: np.ndarray, step: int) -> None:
    bad = int(np.sum(col <= 0.0))
    if bad:
        raise AdmissibilityError(
            f"wealth non-positive on {bad} path(s) at step {step + 1}"
        )


def density_paths(ensemble: PathEnsemble, control, y: float | None = None,
                  scheme: str = "exact") -> np.ndarray:
    """Scenario density G driven by (theta0, theta1): dG = G(t-)[theta0 dB + theta1 dNtilde].

    ``control`` provides per-step arrays ``theta0`` (n_steps,) and ``theta1``
    (n_steps, n_marks); ``y`` overrides the control's initial value.
    """
    grid = ensemble.grid
    y0 = float(control.y if y is None else y)
    if not y0 > 0:
        raise ValueError("initial density must be positive")
    theta0 = np.broadcast_to(np.asarray(control.theta0, dtype=float), (grid.n_steps,))
    k = ensemble.model.n_marks
    theta1 = np.asarray(control.theta1, dtype=float).reshape(grid.n_steps, k) if k else np.zeros((grid.n_steps, 0))
    if theta1.size and np.any(theta1 < THETA1_FLOOR):
        raise ValueError("theta1 below -1 + eps; density would lose positivity")
    nu = ensemble.model.intensities
    g = np.empty((ensemble.n_paths, grid.n_steps + 1))
    g[:, 0] = y0
    if scheme == "exact":
        ln = _log_factors(np.zeros(grid.n_steps), theta0, theta1, nu, ensemble)
        g[:, 1:] = y0 * np.exp(np.cumsum(ln, axis=1))
    else:
        for i in range(grid.n_steps):
            inc = theta0[i] * ensemble.brownian_increments[:, i]
            if k:
                inc = inc + ensemble.compensated_step(i) @ theta1[i]
            g[:, i + 1] = g[:, i] * (1.0 + inc)
            if np.any(g[:, i + 1] <= 0):
                raise ValueError(f"Euler density lost positivity at step {i + 1}")
    return g


def elmm_residual(model: MarketModel, grid: TimeGrid, control, mu=None) -> np.ndarray:
    """Martingale-measure constraint b + mu*sigma + sigma*theta0 + sum gamma*theta1*nu, per step."""
    b, s = model.drift_on(grid), model.vol_on(grid)
    mu_arr = _mu_on_grid(mu if mu is not None else getattr(control, "mu", None), grid)
    theta0 = np.broadcast_to(np.asarray(control.theta0, dtype=float), (grid.n_steps,))
    res = b + mu_arr * s + s * theta0
    if model.n_marks:
        gam = model.jump_sizes_on(grid)
        theta1 = np.asarray(control.theta1, dtype=float).reshape(grid.n_steps, model.n_marks)
        res = res + (gam * theta1) @ model.intensities
    return res


def fraction_admissible(model: MarketModel, grid: TimeGrid, pi_values: np.ndarray) -> np.ndarray:
    """Per constant-fraction candidate, whether 1 + pi*gamma > 0 on every step and mark."""
    ratio = np.asarray(pi_values, dtype=float)[:, None, None] * model.jump_sizes_on(grid)[None]
    return np.all(ratio > -1.0, axis=(1, 2))


def _jump_log_sum(counts: np.ndarray, log_ratio: np.ndarray) -> np.ndarray:
    """sum_{i,k} N_ik * log_ratio_ik per path.

    ``log_ratio`` is (n_steps, K) for one candidate, giving (n_paths,), or
    (n_steps, C, K) for C candidates, giving (n_paths, C) from one GEMM.
    """
    if log_ratio.ndim == 2:
        return np.einsum("pik,ik->p", counts, log_ratio)
    n_steps, n_cand, k = log_ratio.shape
    flat = log_ratio.transpose(0, 2, 1).reshape(n_steps * k, n_cand)
    return counts.reshape(counts.shape[0], n_steps * k) @ flat


def terminal_log_wealth(
    model: MarketModel,
    ensemble: PathEnsemble,
    pi,
    x0: float,
    mu=None,
) -> np.ndarray:
    """ln X(T) for a fraction strategy, via terminal sufficient statistics.

    Matches the exact exponential update; used by grid searches so that
    candidate evaluation shares one ensemble (common random numbers).
    ``pi`` and ``mu`` may carry a trailing candidate axis, shape
    (n_steps, C); the result is then (n_paths, C), one column per candidate.
    """
    grid = ensemble.grid
    dt = grid.dt
    s = model.vol_on(grid)
    pi_arr = np.asarray(pi, dtype=float)
    batched = pi_arr.ndim == 2 or np.ndim(mu) == 2
    if batched:
        mu_arr = np.asarray(mu, dtype=float) if np.ndim(mu) == 2 else _mu_on_grid(mu, grid)[:, None]
        s = s[:, None]
        b = model.drift_on(grid)[:, None] + mu_arr * s
        if pi_arr.ndim < 2:
            pi_arr = np.broadcast_to(pi_arr, (grid.n_steps,))[:, None]
        pi_arr, b = np.broadcast_arrays(pi_arr, b)
    else:
        b = model.drift_on(grid) + _mu_on_grid(mu, grid) * s
        pi_arr = np.broadcast_to(pi_arr, (grid.n_steps,))
    drift_sum = np.sum((pi_arr * b - 0.5 * pi_arr**2 * s**2) * dt, axis=0)
    ln = drift_sum + ensemble.brownian_increments @ (pi_arr * s)
    if model.n_marks:
        gam = model.jump_sizes_on(grid)
        ratio = pi_arr[..., None] * (gam[:, None, :] if batched else gam)
        if np.any(ratio <= -1.0):
            raise AdmissibilityError(INADMISSIBLE_FRACTION)
        ln = ln - np.sum(ratio @ model.intensities, axis=0) * dt
        ln = ln + _jump_log_sum(ensemble.jump_counts, np.log1p(ratio))
    return math.log(x0) + ln


def terminal_log_density(ensemble: PathEnsemble, control, y: float | None = None) -> np.ndarray:
    """ln G(T) via terminal sufficient statistics (exact-update arithmetic).

    A control whose ``theta0`` is (n_steps, C) and ``theta1`` (n_steps, C,
    n_marks) describes C candidates; the result is then (n_paths, C).
    """
    grid = ensemble.grid
    dt = grid.dt
    y0 = float(control.y if y is None else y)
    theta0 = np.asarray(control.theta0, dtype=float)
    if theta0.ndim < 2:
        theta0 = np.broadcast_to(theta0, (grid.n_steps,))
    ln = np.sum(-0.5 * theta0**2 * dt, axis=0) + ensemble.brownian_increments @ theta0
    k = ensemble.model.n_marks
    if k:
        theta1 = np.asarray(control.theta1, dtype=float).reshape(theta0.shape + (k,))
        if np.any(theta1 < THETA1_FLOOR):
            raise ValueError("theta1 below -1 + eps")
        ln = ln - np.sum(theta1 @ ensemble.model.intensities, axis=0) * dt
        ln = ln + _jump_log_sum(ensemble.jump_counts, np.log1p(theta1))
    return math.log(y0) + ln


def ensemble_to_csv(ensemble: PathEnsemble, path, channels: Sequence[str] | None = None,
                    header_comment: str | None = None) -> None:
    """One row per (path, time) with the selected attached channels."""
    names = list(channels) if channels is not None else sorted(ensemble.channels)
    stamps = [f"{t:.10g}" for t in ensemble.grid.times]
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["path", "time", *names])
        for p in range(ensemble.n_paths):
            # Python floats, so each value is written as its shortest repr
            columns = (ensemble.channels[c][p].tolist() for c in names)
            for stamp, values in zip(stamps, zip(*columns)):
                writer.writerow([p, stamp, *map(repr, values)])


def ensemble_summary(ensemble: PathEnsemble) -> dict:
    """JSON-ready summary: per-channel terminal mean/std plus run metadata."""
    out = {
        "n_paths": ensemble.n_paths,
        "n_steps": ensemble.grid.n_steps,
        "horizon": ensemble.grid.horizon,
        "seed": ensemble.seed,
        "n_marks": ensemble.model.n_marks,
        "channels": {},
    }
    for name, arr in sorted(ensemble.channels.items()):
        out["channels"][name] = {
            "terminal_mean": float(arr[:, -1].mean()),
            "terminal_std": float(arr[:, -1].std()),
            "min": float(arr.min()),
        }
    return out
