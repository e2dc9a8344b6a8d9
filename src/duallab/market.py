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

import contextlib
import csv
import math
import os
import threading
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
# paths per Poisson draw of simulate_drivers: only the nonzero counts of a
# chunk are kept (4096 x 100 steps is 3.3 MB of int64 per mark)
POISSON_CHUNK_PATHS = 4096
# fewest paths per thread for which a per-path kernel is split over threads:
# at 100 steps on a 2-core Xeon, the Euler loop on two ranges of 2,048 paths
# took 1.2x its time on one CPU, and every kernel split ran faster from
# 4,096 paths per range on (BENCH_threads.json, "crossover")
THREAD_MIN_PATHS = 4096
# paths per block of the exact forward fill: small enough that a block stays
# in cache from one pass to the next (at 50k paths, 1,024 beat 256 by 7% on
# one CPU and 30% on two)
BLOCK_PATHS = 1024


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


@dataclass(frozen=True, eq=False)
class JumpEvents:
    """The Poisson jump counts of an ensemble as events: the nonzero cells of
    a (n_paths, n_steps, n_marks) count array, 99% zeros at lambda dt = 0.01.

    Each mark's events are sorted by step, then by path: those of mark k at
    step i are ``offsets[k * n_steps + i]`` to ``offsets[k * n_steps + i + 1]``
    of ``paths`` (int32) and ``counts`` (float64, nonzero).  ``cells``
    holds the same counts path by path for the exact forward fill:
    (path, step) pairs that hold a jump of any mark, sorted by path and then
    by step, as (paths int32, steps int32, counts (n_cells, n_marks)).
    """

    n_paths: int
    n_steps: int
    n_marks: int
    offsets: np.ndarray
    paths: np.ndarray
    counts: np.ndarray
    cells: tuple[np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def from_chunks(cls, n_paths: int, n_steps: int, n_marks: int, chunks) -> "JumpEvents":
        """The events of ``chunks``, pairs of (first path, a C-ordered
        (paths, n_steps, n_marks) count array), in path order; each array is
        dropped once its nonzero cells are read."""
        found = []
        for start, chunk in chunks:
            if not chunk.size:
                continue
            flat = chunk.ravel()
            nonzero = np.flatnonzero(flat)
            path, cell = np.divmod(nonzero, n_steps * n_marks)
            found.append((path + start, *np.divmod(cell, n_marks), flat[nonzero]))
            del chunk, flat  # before the next chunk is drawn
        path, step, mark, count = (np.concatenate(a) for a in zip(*found)) if found \
            else (np.zeros(0, dtype=np.intp),) * 4
        path, step, count = path.astype(np.int32), step.astype(np.int32), count.astype(float)
        # path order already: one cell per run of equal (path, step)
        first = np.ones(path.size, dtype=bool)
        first[1:] = (path[1:] != path[:-1]) | (step[1:] != step[:-1])
        cell_counts = np.zeros((int(first.sum()), n_marks))
        cell_counts[np.cumsum(first) - 1, mark] = count
        # mark and step order, paths ascending within a step
        key = mark * n_steps + step
        order = np.argsort(key, kind="stable")
        offsets = np.zeros(n_marks * n_steps + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=n_marks * n_steps), out=offsets[1:])
        return cls(n_paths, n_steps, n_marks, offsets, path[order], count[order],
                   (path[first], step[first], cell_counts))

    def step(self, mark: int, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The paths (ascending) and counts of the events of ``mark`` at step ``i``."""
        events = slice(*self.offsets[mark * self.n_steps + i:][:2])
        return self.paths[events], self.counts[events]

    def dense(self) -> np.ndarray:
        """The (n_paths, n_steps, n_marks) count array: for tests and
        references, read by no solver."""
        out = np.zeros((self.n_paths, self.n_steps, self.n_marks))
        paths, steps, counts = self.cells
        out[paths, steps] = counts
        return out


@dataclass
class PathEnsemble:
    """Simulated driving noise plus derived path channels.

    The drivers are dB, a (n_paths, n_steps) array, and the Poisson jump
    counts, stored as :class:`JumpEvents`; a dense (n_paths, n_steps,
    n_marks) count array given to the constructor is converted to events
    once.  The drivers are frozen after generation; derived channels (price,
    wealth, density, adjoints) are attached by the operations that compute
    them, the price S on its first read through :meth:`channel`.  Per-path
    computations are pure functions of the drivers.
    """

    model: MarketModel
    grid: TimeGrid
    n_paths: int
    seed: int
    brownian_increments: np.ndarray  # (n_paths, n_steps)
    jumps: JumpEvents                # or a dense (n_paths, n_steps, n_marks) array
    channels: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.jumps, JumpEvents):
            counts = np.ascontiguousarray(self.jumps, dtype=float)
            if counts.ndim != 3:
                raise ValueError("jump counts must be a (n_paths, n_steps, n_marks) array")
            self.jumps = JumpEvents.from_chunks(*counts.shape, [(0, counts)])
        shape = (self.jumps.n_paths, self.jumps.n_steps, self.jumps.n_marks)
        if shape != (self.n_paths, self.grid.n_steps, self.model.n_marks):
            raise ValueError(f"jump counts of shape {shape} do not match "
                             f"(n_paths, n_steps, n_marks) = "
                             f"{(self.n_paths, self.grid.n_steps, self.model.n_marks)}")

    @property
    def jump_counts(self) -> np.ndarray:
        """Dense jump counts per (path, step, mark), built on every access:
        for tests and references, read by no solver."""
        return self.jumps.dense()

    @property
    def compensated_jumps(self) -> np.ndarray:
        """Dense Ntilde increments, count - intensity*dt, per (path, step,
        mark), built on every access: for tests and references, read by no
        solver (see :meth:`compensated_step`)."""
        lam = self.model.intensities * self.grid.dt
        return self.jump_counts - lam[None, None, :]

    def compensated_step(self, i: int, out: np.ndarray, paths: slice | None = None) -> np.ndarray:
        """Ntilde increments of step ``i``, count - intensity*dt, on the paths
        of the range ``paths`` (every path by default), written into the
        (n_marks, paths) array ``out`` and returned."""
        lam = self.model.intensities * self.grid.dt
        start, stop = (0, self.n_paths) if paths is None else (paths.start, paths.stop)
        for mark, row in enumerate(out):
            row.fill(0.0 - lam[mark])
            where, counts = self.jumps.step(mark, i)
            if paths is not None:
                lo, hi = np.searchsorted(where, (start, stop))
                where, counts = where[lo:hi], counts[lo:hi]
            row[where - start] = counts - lam[mark]
        return out

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
        """Zero-mean terminal statistics (B_T, Ntilde_T), the control variates
        of candidate-value estimation: a view of :meth:`terminal_design`."""
        return self.terminal_design()[:, 1:]

    def terminal_design(self) -> np.ndarray:
        """[1, B_T, Ntilde_T]: the constant and the terminal statistics, the
        design of the control-variate regression and of the constant-control
        terminal values (:func:`terminal_log_wealth`).

        B_T is summed into its column; the compensated jump totals are
        N_T - lambda T, with N_T a per-path count of the events (a sum of
        integers, so exact).
        """
        design = np.empty((self.n_paths, 2 + self.model.n_marks))
        design[:, 0] = 1.0
        self.brownian_increments.sum(axis=1, out=design[:, 1])
        jumps = design[:, 2:]
        paths, _, counts = self.jumps.cells
        for mark in range(self.model.n_marks):
            jumps[:, mark] = np.bincount(paths, weights=counts[:, mark], minlength=self.n_paths)
        jumps -= self.model.intensities * self.grid.horizon
        return design

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
    independent.  dB is drawn whole, then the counts one chunk of
    :data:`POISSON_CHUNK_PATHS` paths at a time, of which only the nonzero
    cells are kept (:class:`JumpEvents`).  The draws consume the stream in
    the order of one (n_paths, n_steps, n_marks) draw, so the counts are
    bit-identical to it.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    model.validate_on(grid)
    rng = np.random.Generator(np.random.Philox(key=seed))
    dt = grid.dt
    db = rng.normal(0.0, math.sqrt(dt), size=(n_paths, grid.n_steps))
    lam = model.intensities * dt
    chunks = ((start, rng.poisson(lam=lam, size=(min(POISSON_CHUNK_PATHS, n_paths - start),
                                                 grid.n_steps, lam.size)))
              for start in range(0, n_paths if lam.size else 0, POISSON_CHUNK_PATHS))
    jumps = JumpEvents.from_chunks(n_paths, grid.n_steps, lam.size, chunks)
    return PathEnsemble(model, grid, n_paths, seed, db, jumps)


def usable_cpus() -> int:
    """The CPUs this process may run on (``os.sched_getaffinity``); 1 where unknown."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def path_ranges(n_paths: int, min_paths: int | None = None) -> list[slice]:
    """Contiguous ranges of paths, one per usable CPU, each of at least
    ``min_paths`` (default :data:`THREAD_MIN_PATHS`) paths; one range of
    every path otherwise."""
    n = max(1, min(usable_cpus(), n_paths // (min_paths or THREAD_MIN_PATHS)))
    bounds = [n_paths * j // n for j in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _over_paths(fn: Callable[..., None], n_paths: int,
                work: Callable[[slice], tuple] = lambda paths: ()) -> None:
    """Call ``fn(paths, *work(paths))`` once per range of :func:`path_ranges`:
    the first in this thread, every other one in a thread started and joined
    here (numpy releases the GIL in its loops).  ``work`` allocates a range's
    work arrays, in this thread, so that no started thread allocates anything
    large: glibc gives a thread its own arena, whose pages would stay resident.
    A range whose thread cannot be started runs in this thread.  The first
    exception, in range order, is raised here once every thread has ended."""
    ranges = path_ranges(n_paths)
    if len(ranges) == 1:
        fn(ranges[0], *work(ranges[0]))
        return
    args = [(paths, *work(paths)) for paths in ranges]
    errors: list[BaseException | None] = [None] * len(ranges)

    def run(j: int) -> None:
        try:
            fn(*args[j])
        except BaseException as exc:
            errors[j] = exc

    threads = []
    for j in range(1, len(ranges)):
        thread = threading.Thread(target=run, args=(j,))
        try:
            thread.start()
        except RuntimeError:
            run(j)
        else:
            threads.append(thread)
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _blocks(paths: slice, size: int):
    """The ranges of ``size`` paths that tile ``paths``, the last one partial."""
    for start in range(paths.start, paths.stop, size):
        yield slice(start, min(start + size, paths.stop))


def _log_increments(dest, ensemble: PathEnsemble, rows, drift, diff, ratio) -> None:
    """Write the exact log increments of the path rows ``rows`` (a slice) into
    ``dest``: (drift - diff**2/2 - ratio @ nu) dt + diff dB + sum_k N_k ln(1 + ratio_k).

    The coefficients are per step, ``drift`` and ``diff`` (n_steps,) and
    ``ratio`` (n_steps, n_marks), or per path and step, with a leading axis
    over the rows; per-path ones are overwritten.  The jump compensator is
    folded into the dt-term, so compensated jump integrals are exact per step.
    """
    np.multiply(diff, ensemble.brownian_increments[rows], out=dest)
    if diff.ndim == 2:
        # per-path blocks: the dt-term formed in place, so that a thread
        # allocates no block-sized temporary
        dt_term = np.square(diff, out=diff)
        dt_term *= 0.5
        dt_term = np.subtract(drift, dt_term, out=drift)
    else:
        dt_term = drift - 0.5 * diff**2
    if ratio.size:
        # one 2-D product over every (path, step): a stacked matmul rounds differently
        k = ratio.shape[-1]
        dt_term -= (ratio.reshape(-1, k) @ ensemble.model.intensities).reshape(dt_term.shape)
    dest += dt_term * ensemble.grid.dt
    if ratio.size:
        _add_jumps(dest, ensemble, rows, ratio)


def _add_jumps(dest, ensemble: PathEnsemble, rows, ratio) -> None:
    """Add sum_k N_k ln(1 + ratio_k) to the log increments ``dest`` of the
    path rows ``rows``, at the cells that hold a jump only (elsewhere the sum
    is zero); ``ratio`` as in :func:`_log_increments`.  Each cell's sum is
    the einsum of a dense count array's, so it rounds the same."""
    paths, steps, counts = ensemble.jumps.cells
    cells = slice(*np.searchsorted(paths, (rows.start, rows.stop)))
    p, i = paths[cells] - rows.start, steps[cells]
    log_ratio = np.log1p(ratio[p, i] if ratio.ndim == 3 else ratio[i])
    dest[p, i] += np.einsum("...k,...k->...", counts[cells], log_ratio)


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
    up front, a per-path (n_paths, n_steps) one block by block.  A ratio
    <= -1 (on any path, for a per-path fraction) is refused before any path
    is filled.  The paths are filled over the ranges of :func:`_over_paths`,
    one thread per range, each range in blocks of :data:`BLOCK_PATHS` paths
    (per-path coefficients: :data:`FILL_BLOCK_BYTES` per block), so the
    temporaries of a thread stay small.  A block's increments are written
    into the output, then summed, exponentiated and scaled there in place.
    Each value goes through the same operations whatever block or range it
    falls in, so the paths are bit-identical for any number of threads.
    """
    n_steps = ensemble.grid.n_steps
    per_path = np.ndim(frac) == 2
    if frac is not None and not per_path:
        f = np.broadcast_to(np.asarray(frac, dtype=float), (n_steps,))
        drift, diff, ratio = f * drift, f * diff, f[:, None] * ratio
    if ratio.size:
        # per step and mark, the least f * ratio over the paths: rounding is
        # monotone, so it is the product with the extreme fraction
        lowest = ratio if not per_path else np.minimum(
            np.fmin.reduce(frac, axis=0)[:, None] * ratio,
            np.fmax.reduce(frac, axis=0)[:, None] * ratio)
        if np.any(lowest <= -1.0):
            raise AdmissibilityError("jump ratio <= -1 (1 + pi*gamma <= 0 for a fraction); "
                                     "the exponential would lose positivity")
    out = np.empty((ensemble.n_paths, n_steps + 1))
    block = (max(1, FILL_BLOCK_BYTES // (8 * n_steps * max(1, ratio.shape[1])))
             if per_path else BLOCK_PATHS)

    def fill(paths: slice, *coeffs: np.ndarray) -> None:
        for rows in _blocks(paths, block):
            n = rows.stop - rows.start
            out[rows, 0] = x0
            ln = out[rows, 1:]
            if per_path:
                f = frac[rows]
                f_drift, f_diff, f_ratio = (a[:n] for a in coeffs)
                block_coeffs = (np.multiply(f, drift, out=f_drift), np.multiply(f, diff, out=f_diff),
                                np.multiply(f[..., None], ratio, out=f_ratio))
            else:
                block_coeffs = (drift, diff, ratio)
            _log_increments(ln, ensemble, rows, *block_coeffs)
            _accumulate(ln, x0)

    def work(paths: slice) -> tuple:
        n = min(block, paths.stop - paths.start)
        return ((np.empty((n, n_steps)), np.empty((n, n_steps)), np.empty((n,) + ratio.shape))
                if per_path else ())

    _over_paths(fill, ensemble.n_paths, work)
    return out


def _euler_paths(ensemble: PathEnsemble, x0: float, drift, diff, ratio, exposure,
                 terminal: bool = False):
    """Plain Euler paths of dX = exposure * (drift dt + diff dB + ratio . dNtilde),
    (n_paths, n_steps + 1), for per-step coefficients as in :func:`_exp_paths`.

    ``exposure(i, x, paths, out)`` is the amount exposed over step ``i`` given
    X(t_i) = ``x`` on the paths of the slice ``paths``, written into the row
    ``out`` or returned.  Positivity is not checked here.  The steps are
    filled as contiguous rows of a (n_steps + 1, n_paths) buffer, returned
    transposed; the step loop runs once per range of :func:`_over_paths`, on
    the columns of that range only, so the paths are bit-identical for any
    number of threads.

    With ``terminal``, the buffer holds two rows, X(t_i) in row i % 2 and
    X(t_{i+1}) in row (i + 1) % 2, and the loop counts the non-positive
    X(t_{i+1}) as it goes: returns X(T), (n_paths,), and the number of
    non-positive X(t_i), i >= 1, over every path.  The values are those of
    the full paths, bit for bit.
    """
    grid = ensemble.grid
    rows = np.empty((2 if terminal else grid.n_steps + 1, ensemble.n_paths))
    depth = rows.shape[0]
    nonpositive = []  # one count per range

    def fill(paths: slice, jumps: np.ndarray, aux: np.ndarray, mask: np.ndarray) -> None:
        x = rows[:, paths]
        x[0] = x0
        count = 0
        for i in range(grid.n_steps):
            now = x[i % depth]
            # the return over step i, formed in the row of X(t_{i+1})
            ret = np.multiply(diff[i], ensemble.brownian_increments[paths, i],
                              out=x[(i + 1) % depth])
            ret += drift[i] * grid.dt
            if ratio.size:
                ensemble.compensated_step(i, jumps.T, paths)
                ret += np.matmul(jumps, ratio[i], out=aux)
            ret *= exposure(i, now, paths, aux)
            ret += now
            if terminal:
                count += int(np.count_nonzero(np.less_equal(ret, 0.0, out=mask)))
        nonpositive.append(count)

    def work(paths: slice) -> tuple:
        n = paths.stop - paths.start
        return (np.empty((n, ensemble.model.n_marks)), np.empty(n),
                np.empty(n if terminal else 0, dtype=bool))

    _over_paths(fill, ensemble.n_paths, work)
    if terminal:
        return rows[grid.n_steps % 2], sum(nonpositive)
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

    def exposure(i, x, paths, out):
        # pi*X for a fraction of wealth, phi*S for unit counts
        pi = values[paths, i] if values.ndim == 2 else values[i]
        return np.multiply(pi, x if fraction else spot[paths, i], out=out)

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
    g = _euler_paths(ensemble, y0, no_drift, theta0, theta1, lambda i, g, paths, out: g)
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
    is one GEMM over dB plus the jump sums at the events.
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
    over the per-step dB, then the jump sum of each step and mark added at
    its events."""
    ln = np.matmul(ensemble.brownian_increments, diff, out=out)
    ln += dt_term
    n_steps, _, n_marks = ratio.shape
    log_ratio = np.log1p(ratio)
    for mark in range(n_marks):
        for i in range(n_steps):
            where, counts = ensemble.jumps.step(mark, i)
            ln[where] += np.multiply.outer(counts, log_ratio[i, :, mark])
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


# the row template and channel arrays that _csv_block formats
_csv_job: tuple = (None, None)


def _csv_init(template, arrays) -> None:
    """Set the job of :func:`_csv_block`: the pool initializer, and the
    set-up of the in-process run."""
    global _csv_job
    _csv_job = (template, arrays)


def _csv_block(start: int) -> str:
    """The rows of the :data:`CSV_BLOCK_PATHS` paths from ``start`` on, as one string."""
    template, arrays = _csv_job
    rows = slice(start, start + CSV_BLOCK_PATHS)
    # per path: Python scalars, time-major with the channels interleaved
    values = np.stack([a[rows] for a in arrays], axis=2, dtype=object)
    values = values.reshape(values.shape[0], -1).tolist()
    return "".join([template(p, *v) for p, v in enumerate(values, start)])


@contextlib.contextmanager
def _formatted_blocks(template, arrays, starts: range):
    """An iterator over the texts of :func:`_csv_block` for ``starts``, in
    order, from forked workers or from this process (see :func:`ensemble_to_csv`)."""
    import multiprocessing

    workers = min(usable_cpus(), len(starts))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        try:
            pool = multiprocessing.get_context("fork").Pool(workers, _csv_init, (template, arrays))
        except OSError:
            pass
        else:
            with pool:
                yield pool.imap(_csv_block, starts)
            return
    _csv_init(template, arrays)
    try:
        yield map(_csv_block, starts)
    finally:
        _csv_init(None, None)


def ensemble_to_csv(ensemble: PathEnsemble, path, channels: Sequence[str] | None = None,
                    header_comment: str | None = None) -> None:
    """One row per (path, time) with the selected attached channels, each of
    shape (n_paths, n_steps + 1).

    The header goes through :mod:`csv`.  The rows of one path are one call
    of a row template, ``{0},<time>,{1!r},...`` per time stamp: the bytes
    ``csv.writer`` writes, with each value as its shortest repr.  Blocks of
    :data:`CSV_BLOCK_PATHS` paths are formatted by forked workers, one per
    usable CPU (:func:`usable_cpus`) and at most one per block, and
    written here in path order, one write per block.  A single block, a
    single usable CPU, a platform without fork, or an ``OSError`` from
    starting the workers formats every block in this process instead.

    Fork hands the template and the arrays to the workers without pickling
    them, and a forked worker imports nothing (spawn would import numpy in
    each).  The workers call no BLAS routine, and OpenBLAS resets its thread
    pool around a fork.  No thread of :func:`_over_paths` outlives its
    call, so the fork sees none.
    """
    names = list(channels) if channels is not None else sorted(ensemble.channels)
    arrays = [ensemble.channels[c] for c in names]
    shape = (ensemble.n_paths, ensemble.grid.n_steps + 1)
    for name, values in zip(names, arrays):
        if np.shape(values) != shape:
            raise ValueError(f"channel {name!r} has shape {np.shape(values)}, "
                             f"not (n_paths, n_steps + 1) = {shape}")
    width = len(arrays)
    template = "".join(
        f"{{0}},{t:.10g}," + ",".join(f"{{{1 + j * width + c}!r}}" for c in range(width)) + "\r\n"
        for j, t in enumerate(ensemble.grid.times)
    ).format
    starts = range(0, ensemble.n_paths if arrays else 0, CSV_BLOCK_PATHS)
    # the workers start before the file is opened, so none inherits its buffer
    with _formatted_blocks(template, arrays, starts) as texts, \
            open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        csv.writer(fh).writerow(["path", "time", *names])
        for text in texts:
            fh.write(text)


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
