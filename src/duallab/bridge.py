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

from dataclasses import dataclass, field

import numpy as np

from .dual import DualSolution, ScenarioControl, scenario_from_theta1
from .market import (
    DEGENERATE_VOL,
    PathEnsemble,
    Strategy,
    density_paths,
    elmm_residual,
    wealth_paths,
)
from .primal import PrimalSolution
from .robust import RobustPrimalSolution


# paths per deviation block of the identity checks
DEVIATION_BLOCK_PATHS = 2048


class BridgeViolationError(ValueError):
    """The constructed object violates a hypothesis of the transfer map."""


@dataclass
class BridgeReport:
    """Identity residuals for one bridge direction.

    Every entry states the identity it checks alongside the measured
    deviation; tolerances differ by orders of magnitude between analytic and
    regression adjoints, so the adjoint mode is always disclosed.  A
    primal-to-dual report keeps the ``density`` paths of the emitted
    scenario, which its links were measured on.
    """

    direction: str
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


def _abs_and_rel(values: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """max |values - target| and max |values - target| / |target|, one
    deviation array per block of paths (small enough to stay in cache)."""
    maxima = []
    for start in range(0, len(values), DEVIATION_BLOCK_PATHS):
        rows = slice(start, start + DEVIATION_BLOCK_PATHS)
        dev = np.abs(values[rows] - target[rows])
        block_abs = np.max(dev)
        dev /= np.abs(target[rows])
        maxima.append((block_abs, np.max(dev)))
    # np.max, not max(): a NaN deviation in any block must reach the report
    max_abs, max_rel = np.max(maxima, axis=0)
    return max_abs, max_rel


def _theta_ratios(adjoints, n_marks: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-time scenario ratios from adjoints: means of q1/p1 and r1/p1.

    p1 at the left endpoint of each step plays the left limit p1(t-).
    """
    p_left = adjoints.p[:, :-1]
    theta0 = (adjoints.q / p_left).mean(axis=0)
    if n_marks:
        theta1 = (adjoints.r / p_left[:, :, None]).mean(axis=0)
    else:
        theta1 = np.zeros((adjoints.q.shape[1], 0))
    return theta0, theta1


def _primal_to_dual(solution, direction: str) -> tuple[ScenarioControl, float, BridgeReport]:
    model = solution.model
    ensemble: PathEnsemble = solution.ensemble
    grid = ensemble.grid
    adj = solution.adjoints
    theta0_raw, theta1_raw = _theta_ratios(adj, model.n_marks)
    y = float(adj.p[:, 0].mean())
    try:
        control = scenario_from_theta1(model, grid, theta1_raw, y, mu=solution.mu)
    except ValueError as exc:
        raise BridgeViolationError(str(exc)) from exc

    density = density_paths(ensemble, control)
    report = BridgeReport(direction=direction, adjoint_mode=adj.mode, density=density)
    report.add(
        "process_link",
        "density driven by the bridged scenario equals the primal adjoint p1, pathwise",
        *_abs_and_rel(density, adj.p),
    )
    marginal = solution.utility.u_prime(solution.wealth[:, -1])
    report.add(
        "terminal_link",
        "G(T) equals the marginal utility of terminal wealth U'(X(T))",
        *_abs_and_rel(density[:, -1], marginal),
    )
    report.add(
        "initial_value",
        "y is the initial adjoint value p1(0)",
        abs(y - float(adj.p[:, 0].mean())),
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


def primal_to_dual(solution: PrimalSolution) -> tuple[ScenarioControl, float, BridgeReport]:
    """Scenario and initial density built from a primal solution's adjoints, in
    the market of the solution (perturbed when it was solved at a ``mu``)."""
    return _primal_to_dual(solution, "primal-to-dual")


def robust_primal_to_dual(
    solution: RobustPrimalSolution,
) -> tuple[ScenarioControl, float, float, BridgeReport]:
    """Robust variant: the perturbation transfers unchanged (mu_dual = mu_primal)."""
    control, y, report = _primal_to_dual(solution, "robust-primal-to-dual")
    return control, float(solution.mu), y, report


def _bridged_fractions(solution) -> np.ndarray:
    """Fraction of wealth q2/(sigma*p2(t-)) per (path, step): the bridged portfolio."""
    adj = solution.adjoints
    s = solution.model.vol_on(solution.ensemble.grid)
    if np.any(np.abs(s) < DEGENERATE_VOL):
        raise BridgeViolationError(
            "sigma vanishes on the grid; use the replication branch instead"
        )
    pi_path = s[None, :] * adj.p[:, :-1]
    return np.divide(adj.q, pi_path, out=pi_path)


def _dual_to_primal(solution, direction: str):
    adj = solution.adjoints
    pi_path = _bridged_fractions(solution)
    x0 = float(adj.p[:, 0].mean())
    if not x0 > 0:
        raise BridgeViolationError("initial adjoint value p2(0) is not positive")
    strategy = Strategy.fraction(pi_path)
    try:
        wealth = wealth_paths(solution.model, solution.ensemble, strategy, x0, mu=solution.mu)
    except ValueError as exc:
        raise BridgeViolationError(str(exc)) from exc

    report = BridgeReport(direction=direction, adjoint_mode=adj.mode)
    report.add(
        "process_link",
        "wealth under the bridged portfolio equals the dual adjoint p2, pathwise",
        *_abs_and_rel(wealth, adj.p),
    )
    claim = solution.pair.inverse_marginal(solution.density[:, -1])
    report.add(
        "terminal_link",
        "X(T) equals the claim -V'(G(T))",
        *_abs_and_rel(wealth[:, -1], claim),
    )
    report.add(
        "initial_value",
        "x is the initial adjoint value p2(0)",
        abs(x0 - float(adj.p[:, 0].mean())),
    )
    return strategy, x0, report


def dual_to_primal(solution: DualSolution) -> tuple[Strategy, float, BridgeReport]:
    """Portfolio and initial wealth built from a dual solution's adjoints; the
    wealth lives in the market of the scenario (perturbed when it has a ``mu``)."""
    return _dual_to_primal(solution, "dual-to-primal")


def robust_dual_to_primal(
    solution: DualSolution,
) -> tuple[Strategy, float, float, BridgeReport]:
    """Robust variant: mu transfers unchanged and the wealth lives in the
    perturbed market."""
    strategy, x0, report = _dual_to_primal(solution, "robust-dual-to-primal")
    return strategy, float(solution.mu), x0, report


def bridged_fraction(solution, constant_tol: float = 1e-9) -> float:
    """Collapse the bridged fraction-of-wealth process to a scalar.

    ``solution`` is a dual solution, or the :class:`Strategy` that
    :func:`dual_to_primal` built from one (which saves recomputing the
    fraction).  Valid when the fraction is constant across paths and times
    (the log cases); raises :class:`BridgeViolationError` with the largest
    deviation from the mean otherwise.
    """
    if isinstance(solution, Strategy):
        pi_path = np.asarray(solution.values, dtype=float)
    else:
        pi_path = _bridged_fractions(solution)
    pi = float(pi_path.mean())
    dev = pi_path - pi
    worst = float(np.max(np.abs(dev, out=dev)))
    if worst > constant_tol * max(1.0, abs(pi)):
        raise BridgeViolationError(
            f"bridged fraction is not constant: it deviates from its mean {pi:.9g} by up "
            f"to {worst:.3g}, above {constant_tol:g} * max(1, |mean|); no scalar reduction"
        )
    return pi


def verify_product_identity(
    wealth: np.ndarray, density: np.ndarray, x0: float, y0: float
) -> float:
    """Max over paths and times of |X(t)G(t) - x*y|.

    With exact exponential updates the log cases cancel exponents exactly, so
    the deviation sits at accumulation-rounding level; Euler updates leave a
    step-size-dependent deviation used by the scheme-order study.
    """
    dev = wealth * density
    dev -= x0 * y0
    return float(np.max(np.abs(dev, out=dev)))
