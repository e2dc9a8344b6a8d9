"""Constructive maps between primal and dual solutions, with identity checks.

From a primal solution the scenario ratios are theta0 = q1/p1(t-) and
theta1 = r1/p1(t-) with y = p1(0); the density they drive must reproduce
p1 pathwise and hit U'(X(T)) at the horizon.  From a dual solution the
portfolio is q2/(sigma*S(t-)) with x = p2(0); the wealth it generates must
reproduce p2 pathwise and deliver -V'(G(T)).  The robust maps carry the
drift perturbation through unchanged.  Emitted scenario controls are
projected onto the martingale-measure constraint (the theta0 elimination is
exact), and the raw ratio enters the report as a residual.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dual import DualSolution, ScenarioControl, scenario_from_theta1
from .market import (
    PathBlocks,
    PathEnsemble,
    Strategy,
    density_paths,
    elmm_residual,
    vanishing_vol,
    wealth_paths,
)
from .primal import PrimalSolution


# bridged_fraction reads a fraction as constant within CONSTANT_TOL * max(1, |mean|)
CONSTANT_TOL = 1e-9


class BridgeViolationError(ValueError):
    """The constructed object violates a hypothesis of the transfer map."""


@dataclass
class BridgeReport:
    """Identity residuals of one bridge map.

    Every entry states the identity it checks alongside the measured
    deviation; tolerances differ by orders of magnitude between analytic and
    regression adjoints, so the adjoint mode is always disclosed.  A
    primal-to-dual report keeps the ``density`` paths of the emitted
    scenario, which its links were measured on, until
    :meth:`take_density` hands them on.
    """

    adjoint_mode: str
    identities: dict[str, dict] = field(default_factory=dict)
    density: np.ndarray | None = None

    def add(self, name: str, statement: str, max_abs: float, max_rel: float | None = None) -> None:
        entry = {"statement": statement, "max_abs": float(max_abs)}
        if max_rel is not None:
            entry["max_rel"] = float(max_rel)
        self.identities[name] = entry

    def __getitem__(self, name: str) -> dict:
        return self.identities[name]

    def take_density(self) -> np.ndarray | None:
        """The density paths, handed on: the report keeps no reference to
        them, so they live only as long as their new holder."""
        density, self.density = self.density, None
        return density


def _row_reader(target):
    """``i -> row i`` of a path array, (n_paths,) or (n_paths, n_times), read
    as time-major rows (one row for a vector); a function of the step that
    forms the row, such as ``AdjointTriple.rows`` of a channel, as it is."""
    if callable(target):
        return target
    rows = np.atleast_2d(np.transpose(target))
    return rows.__getitem__


def _max_abs_deviation(rows: np.ndarray, deviation) -> np.ndarray:
    """[max |d|] over the deviation d of each step row of ``rows``, which
    ``deviation(i, row, out)`` writes into one reused row ``out``; with
    [max |d| / |goal|] after it where that returns a goal (as ||d| / goal|,
    which is |d| / |goal| bit for bit), not None."""
    out = np.empty(rows.shape[1])
    maxima = []
    for i, row in enumerate(rows):
        goal = deviation(i, row, out)
        dev = np.abs(out, out=out)
        maxima.append([np.max(dev)])
        if goal is not None:
            np.divide(dev, goal, out=dev)
            maxima[-1].append(np.max(np.abs(dev, out=dev)))
    # np.max, not max(): a NaN deviation in any row must reach the result
    return np.max(maxima, axis=0)


def _abs_and_rel(values: np.ndarray, target) -> tuple[float, float]:
    """max |values - target| and max |values - target| / |target|, one step
    row at a time (:func:`_max_abs_deviation`).  ``target`` is an array
    shaped like ``values``, or the function of the step that forms its row
    (:func:`_row_reader`)."""
    target_row = _row_reader(target)

    def deviation(i, row, out):
        goal = target_row(i)
        np.subtract(row, goal, out=out)
        return goal

    max_abs, max_rel = _max_abs_deviation(np.atleast_2d(np.transpose(values)), deviation)
    return max_abs, max_rel


def _theta_ratios(adjoints, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-time scenario ratios from adjoints: means of q1/p1 and r1/p1.

    p1 at the left endpoint of each step plays the left limit p1(t-).  The
    ratios are formed one step row at a time, and each mean sums along the
    contiguous path axis, pairwise: the whole arrays' ``mean(axis=0)`` bit
    for bit.
    """
    theta0, theta1 = [], []
    for i in range(n_steps):
        p_left = adjoints.rows("p", i)
        theta0.append((adjoints.rows("q", i) / p_left).mean())
        theta1.append((adjoints.rows("r", i) / p_left).mean(axis=1))
    return np.array(theta0), np.array(theta1)


def primal_to_dual(solution: PrimalSolution) -> tuple[ScenarioControl, float, BridgeReport]:
    """Scenario and initial density built from a primal solution's adjoints, in
    the market of the solution (perturbed when it was solved at a ``mu``)."""
    model = solution.model
    ensemble: PathEnsemble = solution.ensemble
    grid = ensemble.grid
    adj = solution.adjoints
    theta0_raw, theta1_raw = _theta_ratios(adj, grid.n_steps)
    p_initial = adj.rows("p", 0)
    y = float(p_initial.mean())
    try:
        control = scenario_from_theta1(model, grid, theta1_raw, y, mu=solution.mu)
    except ValueError as exc:
        raise BridgeViolationError(str(exc)) from exc

    density = density_paths(ensemble, control)
    report = BridgeReport(adjoint_mode=adj.mode, density=density)
    report.add(
        "process_link",
        "density driven by the bridged scenario equals the primal adjoint p1, pathwise",
        *_abs_and_rel(density, functools.partial(adj.rows, "p")),
    )
    marginal = solution.utility.u_prime(solution.wealth[:, -1])
    report.add(
        "terminal_link",
        "G(T) equals the marginal utility of terminal wealth U'(X(T))",
        *_abs_and_rel(density[:, -1], marginal),
    )
    # p1(0) is F_0-measurable, so every path must carry y
    report.add(
        "initial_value",
        "y is the initial adjoint value p1(0)",
        np.max(np.abs(p_initial - y)),
    )
    report.add(
        "ratio_residual",
        "raw adjoint ratio q1/p1 matches the constraint-eliminated theta0",
        np.max(np.abs(theta0_raw - control.theta0)),
    )
    report.add(
        "constraint",
        "martingale-measure constraint of the emitted scenario, pointwise",
        np.max(np.abs(elmm_residual(model, grid, control))),
    )
    return control, y, report


def robust_primal_to_dual(
    solution: PrimalSolution,
) -> tuple[ScenarioControl, float, float, BridgeReport]:
    """Robust variant: the perturbation transfers unchanged (mu_dual = mu_primal)."""
    control, y, report = primal_to_dual(solution)
    return control, float(solution.mu), y, report


def _fraction_blocks(solution) -> PathBlocks:
    """The bridged portfolio, the fraction of wealth q2/(sigma*p2(t-)) per
    (path, step), formed block by block from the adjoints' (steps, paths)
    blocks of rows (:meth:`~duallab.bsde.AdjointTriple.rows`)."""
    adj = solution.adjoints
    grid = solution.ensemble.grid
    if np.any(vanishing_vol(solution.model, grid).steps):
        raise BridgeViolationError(
            "sigma vanishes on the grid; use the replication branch instead"
        )
    s, steps = solution.model.vol_on(grid)[:, None], slice(0, grid.n_steps)

    def write(cols: slice, out: np.ndarray) -> None:
        np.multiply(s, adj.rows("p", steps, cols), out=out)
        np.divide(adj.rows("q", steps, cols), out, out=out)

    return PathBlocks(write)


def dual_to_primal(solution: DualSolution) -> tuple[Strategy, float, BridgeReport]:
    """Portfolio and initial wealth built from a dual solution's adjoints; the
    wealth lives in the market of the scenario (perturbed when it has a ``mu``).

    The wealth fill forms the bridged fraction one block of paths at a time;
    the returned portfolio holds it whole, built once the wealth and its
    links are done with.  The links read p2 one step row at a time."""
    adj = solution.adjoints
    fraction = _fraction_blocks(solution)
    p_initial = adj.rows("p", 0)
    x0 = float(p_initial.mean())
    if not x0 > 0:
        raise BridgeViolationError("initial adjoint value p2(0) is not positive")
    try:
        wealth = wealth_paths(solution.model, solution.ensemble, Strategy.fraction(fraction), x0,
                              mu=solution.mu)
    except ValueError as exc:
        raise BridgeViolationError(str(exc)) from exc

    report = BridgeReport(adjoint_mode=adj.mode)
    report.add(
        "process_link",
        "wealth under the bridged portfolio equals the dual adjoint p2, pathwise",
        *_abs_and_rel(wealth, functools.partial(adj.rows, "p")),
    )
    claim = solution.pair.inverse_marginal(solution.density[:, -1])
    report.add(
        "terminal_link",
        "X(T) equals the claim -V'(G(T))",
        *_abs_and_rel(wealth[:, -1], claim),
    )
    del wealth
    # p2(0) is F_0-measurable, so every path must carry x
    report.add(
        "initial_value",
        "x is the initial adjoint value p2(0)",
        np.max(np.abs(p_initial - x0)),
    )
    ensemble = solution.ensemble
    return Strategy.fraction(fraction.whole(ensemble.n_paths, ensemble.grid.n_steps)), x0, report


def robust_dual_to_primal(
    solution: DualSolution,
) -> tuple[Strategy, float, float, BridgeReport]:
    """Robust variant: mu transfers unchanged and the wealth lives in the
    perturbed market."""
    strategy, x0, report = dual_to_primal(solution)
    return strategy, float(solution.mu), x0, report


def bridged_fraction(solution) -> float:
    """Collapse the bridged fraction-of-wealth process to a scalar.

    ``solution`` is a dual solution, or the :class:`Strategy` that
    :func:`dual_to_primal` built from one (which saves recomputing the
    fraction).  Valid when the fraction is constant across paths and times
    (the log cases), within :data:`CONSTANT_TOL`; raises
    :class:`BridgeViolationError` with the largest deviation from the mean
    otherwise, or with the first non-finite value and where it is.  The mean
    sums the whole array; the deviation is taken by :func:`_max_abs_deviation`.
    """
    if isinstance(solution, Strategy):
        pi_path = np.atleast_2d(np.asarray(solution.values, dtype=float))
    else:
        ensemble = solution.ensemble
        pi_path = _fraction_blocks(solution).whole(ensemble.n_paths, ensemble.grid.n_steps)
    pi = float(pi_path.mean())
    if not math.isfinite(pi):
        # a non-finite entry makes the sum non-finite
        bad = np.argwhere(~np.isfinite(pi_path))
        if len(bad):
            path, step = bad[0]
            raise BridgeViolationError(
                f"bridged fraction is not finite: {pi_path[path, step]} at path {path}, "
                f"step {step}; no scalar reduction"
            )

    def deviation(i, row, out):
        np.subtract(row, pi, out=out)

    worst = float(_max_abs_deviation(np.transpose(pi_path), deviation)[0])
    if worst > CONSTANT_TOL * max(1.0, abs(pi)):
        raise BridgeViolationError(
            f"bridged fraction is not constant: it deviates from its mean {pi:.9g} by up "
            f"to {worst:.3g}, above {CONSTANT_TOL:g} * max(1, |mean|); no scalar reduction"
        )
    return pi


def verify_product_identity(wealth: np.ndarray, density, x0: float, y0: float) -> float:
    """Max over paths and times of |X(t)G(t) - x*y|.

    With exact exponential updates the log cases cancel exponents exactly, so
    the deviation sits at accumulation-rounding level; Euler updates leave a
    step-size-dependent deviation used by the scheme-order study.
    ``density`` is an (n_paths, n_steps + 1) array or the function of the
    step that forms its row, such as the primal adjoint p1's
    (:func:`_row_reader`).  One step row at a time (:func:`_max_abs_deviation`).
    """
    xy = x0 * y0
    density_row = _row_reader(density)

    def deviation(i, row, out):
        np.multiply(row, density_row(i), out=out)
        out -= xy

    return float(_max_abs_deviation(np.transpose(wealth), deviation)[0])
