"""Ito-Levy market: driving noise, price, wealth and scenario-density paths.

The risky asset follows ``dS = S(t-) [b dt + sigma dB + sum_k gamma_k dNtilde_k]``
with a compound-Poisson jump part (finitely many marks).  All forward processes
default to exact log-Euler (stochastic-exponential) updates, so positivity of
price, fraction-parameterized wealth and density paths is structural rather
than statistical.  Price, wealth and density are one stochastic exponential
with different coefficients, built by one kernel (and summed to the horizon by
one terminal kernel).  With coefficients constant over the steps, a terminal
log value is affine in the terminal design [1, B_T, Ntilde_T], which a
candidate search builds once.  A plain Euler scheme is kept for unit-count
wealth, replication and scheme-order studies.
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
# size of one (paths, steps, marks) coefficient block of a per-path fill
FILL_BLOCK_BYTES = 2**17
# paths formatted per write of ensemble_to_csv
CSV_BLOCK_PATHS = 256


class AdmissibilityError(ValueError):
    """A forward path lost positivity: an Euler value <= 0, or a jump ratio
    <= -1 (for a fraction, 1 + pi*gamma <= 0)."""


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

    def drift_on(self, grid: TimeGrid, mu=None) -> np.ndarray:
        """Drift b on the grid, or the perturbed drift b + mu*sigma when ``mu``
        is given; a (n_steps, C) ``mu`` gives one column per candidate."""
        b = eval_on_grid(self.drift, grid.left_times)
        if mu is None:
            return b
        s = self.vol_on(grid)
        if np.ndim(mu) == 2:
            return b[:, None] + mu * s[:, None]
        return b + _mu_on_grid(mu, grid) * s

    def vol_on(self, grid: TimeGrid) -> np.ndarray:
        return eval_on_grid(self.vol, grid.left_times)

    def jump_sizes_on(self, grid: TimeGrid) -> np.ndarray:
        """gamma(t_i, mark_k) as an (n_steps, n_marks) array."""
        if self.jump_size is None:
            # the mark itself is the jump size
            return np.tile(np.asarray(self.jump_marks, dtype=float), (grid.n_steps, 1))
        out = np.empty((grid.n_steps, self.n_marks))
        for k, mark in enumerate(self.jump_marks):
            out[:, k] = [float(self.jump_size(t, mark)) for t in grid.left_times]
        return out

    def validate_on(self, grid: TimeGrid) -> None:
        b, s, g = self.drift_on(grid), self.vol_on(grid), self.jump_sizes_on(grid)
        for name, arr in (("drift", b), ("vol", s), ("jump size", g)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} is not finite on the grid")
        if g.size and np.any(g <= -1.0):
            raise ValueError("jump sizes must satisfy gamma > -1 (price positivity)")


def _mu_on_grid(mu, grid: TimeGrid) -> np.ndarray:
    if mu is None:
        return np.zeros(grid.n_steps)
    return eval_on_grid(mu, grid.left_times)


def perturbed_model(model: MarketModel, mu) -> MarketModel:
    """Market with drift b + mu*sigma; all other coefficients unchanged."""
    mu_fn = as_time_fn(mu)
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
    them, the price S on its first read through :meth:`channel`.  Per-path
    computations are pure functions of the drivers.
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
        """An attached channel; the price "S" is built and attached when first read."""
        if name == "S" and name not in self.channels:
            return price_paths(self.model, self)
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

    def terminal_design(self) -> np.ndarray:
        """[1, B_T, Ntilde_T]: the constant and the terminal statistics, the
        design of the control-variate regression and of the constant-control
        terminal values (:func:`terminal_log_wealth`)."""
        return np.column_stack([np.ones(self.n_paths), self.terminal_controls()])

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


def _log_increments(dest, ensemble: PathEnsemble, rows, drift, diff, ratio) -> None:
    """Write the exact log increments of the path rows ``rows`` (a slice) into
    ``dest``: (drift - diff**2/2 - ratio @ nu) dt + diff dB + sum_k N_k ln(1 + ratio_k).

    The coefficients are per step, ``drift`` and ``diff`` (n_steps,) and
    ``ratio`` (n_steps, n_marks), or per path and step, with a leading axis
    over the rows.  The jump compensator is folded into the dt-term, so
    compensated jump integrals are exact per step.
    """
    np.multiply(diff, ensemble.brownian_increments[rows], out=dest)
    dt_term = drift - 0.5 * diff**2
    if ratio.size:
        if np.any(ratio <= -1.0):
            raise AdmissibilityError("jump ratio <= -1 (1 + pi*gamma <= 0 for a fraction); "
                                     "the exponential would lose positivity")
        # one 2-D product over every (path, step): a stacked matmul rounds differently
        k = ratio.shape[-1]
        dt_term -= (ratio.reshape(-1, k) @ ensemble.model.intensities).reshape(dt_term.shape)
    dest += dt_term * ensemble.grid.dt
    if ratio.size:
        dest += np.einsum("...k,...k->...", ensemble.jump_counts[rows], np.log1p(ratio))


def _accumulate(ln: np.ndarray, x0: float) -> None:
    """Turn log increments into x0 * exp(cumulative sum) along each row, in place."""
    np.cumsum(ln, axis=1, out=ln)
    np.exp(ln, out=ln)
    ln *= x0


def _exp_paths(ensemble: PathEnsemble, x0: float, drift, diff, ratio, frac=None) -> np.ndarray:
    """x0 * exp(cumulative log increments): the stochastic exponential of
    drift dt + diff dB + ratio . dNtilde on every path, (n_paths, n_steps + 1).

    ``drift``, ``diff`` (n_steps,) and ``ratio`` (n_steps, n_marks) are per
    step.  A fraction ``frac`` multiplies all three: a scalar or per-step one
    up front, a per-path (n_paths, n_steps) one over contiguous blocks of
    paths, so the per-path coefficients exist one block at a time
    (:data:`FILL_BLOCK_BYTES`).  The increments are written into the output,
    then summed, exponentiated and scaled there in place.
    """
    n_steps = ensemble.grid.n_steps
    out = np.empty((ensemble.n_paths, n_steps + 1))
    out[:, 0] = x0
    ln = out[:, 1:]
    if np.ndim(frac) == 2:
        block = max(1, FILL_BLOCK_BYTES // (8 * n_steps * max(1, ratio.shape[1])))
        for start in range(0, ensemble.n_paths, block):
            rows = slice(start, start + block)
            f = frac[rows]
            _log_increments(ln[rows], ensemble, rows, f * drift, f * diff, f[..., None] * ratio)
            _accumulate(ln[rows], x0)
        return out
    if frac is not None:
        f = np.broadcast_to(np.asarray(frac, dtype=float), (n_steps,))
        drift, diff, ratio = f * drift, f * diff, f[:, None] * ratio
    _log_increments(ln, ensemble, slice(None), drift, diff, ratio)
    _accumulate(ln, x0)
    return out


def _euler_paths(ensemble: PathEnsemble, x0: float, drift, diff, ratio, exposure) -> np.ndarray:
    """Plain Euler paths of dX = exposure * (drift dt + diff dB + ratio . dNtilde),
    (n_paths, n_steps + 1), for per-step coefficients as in :func:`_exp_paths`.

    ``exposure(i, x)`` is the amount exposed over step ``i`` given X(t_i).
    Positivity is not checked here.  The steps are filled as contiguous rows
    of a (n_steps + 1, n_paths) buffer, returned transposed.
    """
    grid = ensemble.grid
    rows = np.empty((grid.n_steps + 1, ensemble.n_paths))
    rows[0] = x0
    for i in range(grid.n_steps):
        ret = drift[i] * grid.dt + diff[i] * ensemble.brownian_increments[:, i]
        if ratio.size:
            ret = ret + ensemble.compensated_step(i) @ ratio[i]
        rows[i + 1] = rows[i] + exposure(i, rows[i]) * ret
    return rows.T


def _check_positive(paths: np.ndarray, what: str) -> None:
    bad = paths[:, 1:] <= 0.0
    if np.any(bad):
        step = int(np.argmax(np.any(bad, axis=0)))
        raise AdmissibilityError(
            f"{what} non-positive on {int(bad[:, step].sum())} path(s) at step {step + 1}"
        )


def price_paths(model: MarketModel, ensemble: PathEnsemble) -> np.ndarray:
    """Price channel S via the exact exponential update; attaches "S"."""
    grid = ensemble.grid
    out = _exp_paths(ensemble, model.s0, model.drift_on(grid), model.vol_on(grid),
                     model.jump_sizes_on(grid))
    return ensemble.attach("S", out)


@dataclass(frozen=True)
class Strategy:
    """Portfolio parameterization: fraction-of-wealth pi or unit counts phi.

    Values may be a scalar, a per-step array (n_steps,), a per-path array
    (n_paths, n_steps), or a function of time t.
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

    def on_grid(self, grid: TimeGrid) -> np.ndarray:
        """Values per step (n_steps,) or per path (n_paths, n_steps)."""
        if np.ndim(self.values) == 2:
            return np.asarray(self.values, dtype=float)
        return eval_on_grid(self.values, grid.left_times)


def _euler_wealth(model: MarketModel, ensemble: PathEnsemble, strategy: Strategy,
                  x0: float, mu=None) -> np.ndarray:
    """Euler wealth paths of a fraction or unit-count strategy, unchecked."""
    grid = ensemble.grid
    values = strategy.on_grid(grid)
    fraction = strategy.kind == "fraction"
    spot = None if fraction else ensemble.channel("S")

    def exposure(i, x):
        # pi*X for a fraction of wealth, phi*S for unit counts
        return values[..., i] * (x if fraction else spot[:, i])

    return _euler_paths(ensemble, x0, model.drift_on(grid, mu), model.vol_on(grid),
                        model.jump_sizes_on(grid), exposure)


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
    construction whenever 1 + pi*gamma > 0); unit-count strategies, and
    fractions with ``scheme="euler"``, use plain Euler and raise
    :class:`AdmissibilityError` if any path loses positivity.
    """
    if not x0 > 0:
        raise ValueError("initial wealth must be positive")
    grid = ensemble.grid
    if strategy.kind == "fraction" and scheme == "exact":
        return _exp_paths(ensemble, x0, model.drift_on(grid, mu), model.vol_on(grid),
                          model.jump_sizes_on(grid), frac=strategy.on_grid(grid))
    x = _euler_wealth(model, ensemble, strategy, x0, mu=mu)
    _check_positive(x, "wealth")
    return x


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
    no_drift = np.zeros(grid.n_steps)
    if scheme == "exact":
        return _exp_paths(ensemble, y0, no_drift, theta0, theta1)
    g = _euler_paths(ensemble, y0, no_drift, theta0, theta1, lambda i, g: g)
    _check_positive(g, "Euler density")
    return g


def elmm_residual(model: MarketModel, grid: TimeGrid, control, mu=None) -> np.ndarray:
    """Martingale-measure constraint b + mu*sigma + sigma*theta0 + sum gamma*theta1*nu, per step."""
    b = model.drift_on(grid, mu if mu is not None else getattr(control, "mu", None))
    theta0 = np.broadcast_to(np.asarray(control.theta0, dtype=float), (grid.n_steps,))
    res = b + model.vol_on(grid) * theta0
    if model.n_marks:
        gam = model.jump_sizes_on(grid)
        theta1 = np.asarray(control.theta1, dtype=float).reshape(grid.n_steps, model.n_marks)
        res = res + (gam * theta1) @ model.intensities
    return res


def fraction_admissible(model: MarketModel, grid: TimeGrid, pi_values: np.ndarray) -> np.ndarray:
    """Per constant-fraction candidate, whether 1 + pi*gamma > 0 on every step and mark."""
    ratio = np.asarray(pi_values, dtype=float)[:, None, None] * model.jump_sizes_on(grid)[None]
    return np.all(ratio > -1.0, axis=(1, 2))


def _candidate_axis(values, n_steps: int) -> np.ndarray:
    """(n_steps, C) values; a scalar or per-step input becomes the column of C = 1."""
    arr = np.asarray(values, dtype=float)
    return arr if arr.ndim == 2 else np.broadcast_to(arr, (n_steps,))[:, None]


def _constant_over_steps(*coefficients) -> bool:
    return all(np.ndim(c) == 0 or np.all(c == c[:1]) for c in coefficients)


def _terminal_log(ensemble: PathEnsemble, x0: float, drift, diff, ratio,
                  design=None, out=None) -> np.ndarray:
    """ln of the stochastic exponential of :func:`_exp_paths` at the horizon,
    for C candidates at once: ``drift`` and ``diff`` (n_steps, C), ``ratio``
    (n_steps, C, n_marks), result (n_paths, C), written into ``out`` if given.

    The log increments are summed over steps before paths.  When no
    coefficient varies over the steps and ``design`` is the ensemble's
    :meth:`~PathEnsemble.terminal_design`, ln X(T) is exactly affine in its
    columns: ``design @ W``, with W's first row the sum of the dt-terms plus
    the jump compensator sum_k lambda_k T ln(1 + ratio_k) (N_T = Ntilde_T +
    lambda T), then diff and ln(1 + ratio).  Otherwise the path dependence
    is one GEMM over dB and one over the jump counts.
    """
    dt = ensemble.grid.dt
    intensities = ensemble.model.intensities
    dt_term = np.sum((drift - 0.5 * diff**2) * dt, axis=0)
    if ratio.size:
        dt_term -= np.sum(ratio @ intensities, axis=0) * dt
    dt_term += math.log(x0)
    if design is not None and _constant_over_steps(drift, diff, ratio):
        log_ratio = np.log1p(ratio)
        intercept = dt_term + np.sum(log_ratio @ intensities, axis=0) * dt
        weights = np.concatenate([intercept[None], diff[:1], log_ratio[0].T])
        return np.matmul(design, weights, out=out)
    return _per_step_terminal_log(ensemble, dt_term, diff, ratio, out)


def _per_step_terminal_log(ensemble: PathEnsemble, dt_term, diff, ratio, out) -> np.ndarray:
    """The fallback of :func:`_terminal_log`: ``dt_term`` (C,) plus one GEMM
    over the per-step dB and one over the per-step jump counts."""
    ln = np.matmul(ensemble.brownian_increments, diff, out=out)
    ln += dt_term
    if ratio.size:
        n_steps, n_cand, k = ratio.shape
        counts = ensemble.jump_counts.reshape(ensemble.n_paths, n_steps * k)
        ln += counts @ np.log1p(ratio).transpose(0, 2, 1).reshape(n_steps * k, n_cand)
    return ln


def terminal_log_wealth(
    model: MarketModel,
    ensemble: PathEnsemble,
    pi,
    x0: float,
    mu=None,
    design: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """ln X(T) for a fraction strategy, via terminal sufficient statistics.

    Matches the exact exponential update; used by grid searches so that
    candidate evaluation shares one ensemble (common random numbers).
    ``pi`` and ``mu`` may carry a trailing candidate axis, shape
    (n_steps, C); the result is then (n_paths, C), one column per candidate,
    written into ``out`` when given.  A search passes the ensemble's
    :meth:`~PathEnsemble.terminal_design` as ``design``, which serves every
    candidate whose coefficients are constant over the steps.
    """
    grid = ensemble.grid
    b = model.drift_on(grid, mu)
    single = np.ndim(pi) < 2 and b.ndim < 2
    pi_arr, b = np.broadcast_arrays(_candidate_axis(pi, grid.n_steps), _candidate_axis(b, grid.n_steps))
    ratio = pi_arr[..., None] * model.jump_sizes_on(grid)[:, None, :]
    if np.any(ratio <= -1.0):
        raise AdmissibilityError(INADMISSIBLE_FRACTION)
    ln = _terminal_log(ensemble, x0, pi_arr * b, pi_arr * model.vol_on(grid)[:, None], ratio,
                       design, out)
    return ln[:, 0] if single else ln


def terminal_log_density(ensemble: PathEnsemble, control, y: float | None = None,
                         design: np.ndarray | None = None,
                         out: np.ndarray | None = None) -> np.ndarray:
    """ln G(T) via terminal sufficient statistics (exact-update arithmetic).

    A control whose ``theta0`` is (n_steps, C) and ``theta1`` (n_steps, C,
    n_marks) describes C candidates; the result is then (n_paths, C).
    ``design`` and ``out`` are as in :func:`terminal_log_wealth`.
    """
    grid = ensemble.grid
    single = np.ndim(control.theta0) < 2
    theta0 = _candidate_axis(control.theta0, grid.n_steps)
    k = ensemble.model.n_marks
    theta1 = np.asarray(control.theta1, dtype=float).reshape(theta0.shape + (k,)) if k else np.zeros(theta0.shape + (0,))
    if np.any(theta1 < THETA1_FLOOR):
        raise ValueError("theta1 below -1 + eps")
    ln = _terminal_log(ensemble, float(control.y if y is None else y), 0.0, theta0, theta1,
                       design, out)
    return ln[:, 0] if single else ln


def ensemble_to_csv(ensemble: PathEnsemble, path, channels: Sequence[str] | None = None,
                    header_comment: str | None = None) -> None:
    """One row per (path, time) with the selected attached channels.

    The header goes through :mod:`csv`.  The rows of one path are one call
    of a row template, ``{0},<time>,{1!r},...`` per time stamp: the bytes
    ``csv.writer`` writes, with each value as its shortest repr.  Each block
    of :data:`CSV_BLOCK_PATHS` paths is written with one call.
    """
    names = list(channels) if channels is not None else sorted(ensemble.channels)
    arrays = [ensemble.channels[c] for c in names]
    width = len(arrays)
    template = "".join(
        f"{{0}},{t:.10g}," + ",".join(f"{{{1 + j * width + c}!r}}" for c in range(width)) + "\r\n"
        for j, t in enumerate(ensemble.grid.times)
    ).format
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        csv.writer(fh).writerow(["path", "time", *names])
        if not arrays:
            return
        for start in range(0, ensemble.n_paths, CSV_BLOCK_PATHS):
            rows = slice(start, start + CSV_BLOCK_PATHS)
            # per path: Python scalars, time-major with the channels interleaved
            values = np.stack([a[rows] for a in arrays], axis=2, dtype=object)
            values = values.reshape(values.shape[0], -1).tolist()
            fh.write("".join([template(p, *v) for p, v in enumerate(values, start)]))


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
