"""Robust (penalized worst-case drift) primal game and its dual.

The primal side is a saddle problem: the investor maximizes over portfolios
while an adversary perturbs the drift by mu*sigma at convex cost rho(mu).  A
payoff matrix over (pi, mu) grids is evaluated with common random numbers; a
pure saddle cell is returned when one exists, otherwise the minimax/maximin
cells and their gap.  The dual side maximizes E[-V(G(T))] - penalty over
scenarios consistent with the perturbed constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import AdjointTriple, RegressionBasis
from .dual import (
    DualSolution,
    _dual_solution,
    build_scenarios,
    dual_foc_residual,
    scenario_samples,
    theta1_candidates,
)
from .market import (
    INADMISSIBLE_FRACTION,
    MarketModel,
    PathEnsemble,
    Strategy,
    as_time_fn,
    fraction_admissible,
    terminal_log_wealth,
    wealth_paths,
)
from .mc import grid_search, interior_summary, on_grid_edge
from .preferences import Penalty, UtilityPair
from .primal import primal_adjoints, primal_foc_residual


@dataclass(frozen=True)
class RobustLogClosedForm:
    """Explicit solution for log utility with quadratic penalty, no jumps.

    With penalty scale c:  mu(t) = -b/((1+c) sigma),  pi(t) = c*b/((1+c) sigma^2);
    at c = 1 these are -b/(2 sigma) and b/(2 sigma^2), half the plain optimal
    fraction.  The unit-count portfolio is phi = (b/sigma + mu)/(G sigma S).
    """

    model: MarketModel
    penalty_scale: float = 1.0

    def _coefficients(self, t: float) -> tuple[float, float]:
        return as_time_fn(self.model.drift)(t), as_time_fn(self.model.vol)(t)

    def mu(self, t: float) -> float:
        b, s = self._coefficients(t)
        return -b / ((1.0 + self.penalty_scale) * s)

    def pi(self, t: float) -> float:
        b, s = self._coefficients(t)
        return (self.penalty_scale * b) / ((1.0 + self.penalty_scale) * s**2)


def robust_log_closed_form(model: MarketModel, penalty: Penalty) -> RobustLogClosedForm:
    """Validate the closed-form preconditions and return the explicit solution."""
    if model.n_marks:
        raise ValueError("closed form requires a no-jump market")
    if penalty.name != "quadratic":
        raise ValueError("closed form requires the quadratic penalty")
    return RobustLogClosedForm(model=model, penalty_scale=penalty.scale)


@dataclass
class RobustPrimalSolution:
    model: MarketModel
    ensemble: PathEnsemble
    utility: UtilityPair
    penalty: Penalty
    x0: float
    pi: float
    mu: float
    value: float
    se: float
    pi_values: np.ndarray
    mu_values: np.ndarray
    payoff: np.ndarray          # (n_pi, n_mu)
    payoff_se: np.ndarray
    is_saddle: bool
    gap: float
    minimax: float
    maximin: float
    excluded: list = field(default_factory=list)
    grid_edge: bool = False
    wealth: np.ndarray | None = None
    adjoints: AdjointTriple | None = None
    foc: dict | None = None


def _penalty_integrals(penalty: Penalty, mu_values: np.ndarray, grid) -> np.ndarray:
    """integral_0^T rho(mu) dt for each constant perturbation."""
    return np.array([float(np.sum(penalty.rho(np.full(grid.n_steps, mu)) * grid.dt))
                     for mu in mu_values])


def solve_robust_saddle(
    model: MarketModel,
    utility: UtilityPair,
    penalty: Penalty,
    x0: float,
    pi_values,
    mu_values,
    ensemble: PathEnsemble,
    adjoint_mode: str = "regression",
    control_variates: bool = True,
    basis: RegressionBasis | None = None,
) -> RobustPrimalSolution:
    """Payoff matrix I(pi, mu) = E[U(X(T))] + integral rho(mu) over the grids.

    A pure saddle is a cell that is the maximum of its column (over pi) and
    the minimum of its row (over mu); ties break toward smaller |pi| then
    smaller |mu|.  When no pure cell exists, the minimax cell is returned and
    the minimax-maximin gap reported.
    """
    grid = ensemble.grid
    pi_values = np.asarray(list(pi_values), dtype=float)
    mu_values = np.asarray(list(mu_values), dtype=float)
    shape = (pi_values.size, mu_values.size)
    pi_ok = fraction_admissible(model, grid, pi_values)
    excluded = [{"pi": float(pi), "mu": float(mu), "reason": INADMISSIBLE_FRACTION}
                for mu in mu_values for pi in pi_values[~pi_ok]]

    def samples(idx):
        jp, jm = np.unravel_index(idx, shape)
        cols = (grid.n_steps, idx.size)
        ln_xt = terminal_log_wealth(model, ensemble, np.broadcast_to(pi_values[jp], cols), x0,
                                    mu=np.broadcast_to(mu_values[jm], cols))
        return utility.u(np.exp(ln_xt))

    search = grid_search(
        shape, samples, np.repeat(pi_ok, mu_values.size),
        ensemble.terminal_controls() if control_variates else None,
        ensemble.n_paths, offset=np.tile(_penalty_integrals(penalty, mu_values, grid), pi_values.size),
    )
    payoff = search.values.reshape(shape)
    payoff_se = search.ses.reshape(shape)

    col_max = payoff.max(axis=0)
    row_min = payoff.min(axis=1)
    cells = [
        (jp, jm)
        for jp in range(pi_values.size)
        for jm in range(mu_values.size)
        if payoff[jp, jm] == col_max[jm] and payoff[jp, jm] == row_min[jp]
    ]
    minimax = float(col_max.min())
    maximin = float(row_min.max())
    if cells:
        cells.sort(key=lambda c: (abs(pi_values[c[0]]), abs(mu_values[c[1]])))
        jp, jm = cells[0]
        is_saddle, gap = True, 0.0
    else:
        jm = int(np.argmin(col_max))
        jp = int(np.argmax(payoff[:, jm]))
        is_saddle, gap = False, minimax - maximin

    pi_star, mu_star = float(pi_values[jp]), float(mu_values[jm])
    wealth = wealth_paths(model, ensemble, Strategy.fraction(pi_star), x0, mu=mu_star)
    adjoints = primal_adjoints(model, ensemble, utility, wealth, pi_star, mu_star, adjoint_mode, basis)
    solution = RobustPrimalSolution(
        model=model,
        ensemble=ensemble,
        utility=utility,
        penalty=penalty,
        x0=x0,
        pi=pi_star,
        mu=mu_star,
        value=float(payoff[jp, jm]),
        se=float(payoff_se[jp, jm]),
        pi_values=pi_values,
        mu_values=mu_values,
        payoff=payoff,
        payoff_se=payoff_se,
        is_saddle=is_saddle,
        gap=gap,
        minimax=minimax,
        maximin=maximin,
        excluded=excluded,
        grid_edge=on_grid_edge((jp, jm), shape),
        wealth=wealth,
        adjoints=adjoints,
    )
    solution.foc = robust_primal_foc_residuals(solution)
    return solution


def robust_primal_foc_residuals(solution: RobustPrimalSolution) -> dict:
    """First-order residuals of the primal game at (pi, mu).

    ``drift``:  (b + mu*sigma) p1 + sigma q1 + sum gamma r1 nu  (per time),
    the plain primal residual in the perturbed market.
    ``penalty``: rho'(mu) + phi*S*sigma*p1 = rho'(mu) + pi*sigma*X*p1.
    Cross-sectional means per time, each normalized by its natural scale.
    """
    drift = primal_foc_residual(solution)
    adj = solution.adjoints
    s = solution.model.vol_on(solution.ensemble.grid)
    xp_mean = (solution.wealth[:, :-1] * adj.p[:, :-1]).mean(axis=0)
    pen_raw = float(np.asarray(solution.penalty.rho_prime(solution.mu))) + solution.pi * s * xp_mean
    pen_scale = float(np.mean(np.abs(solution.pi * s * xp_mean)))
    pen_mean, pen_max = interior_summary(pen_raw, pen_scale)
    return {
        "drift_raw": drift["raw"],
        "penalty_raw": pen_raw,
        "drift_scale": drift["scale"],
        "penalty_scale": pen_scale,
        "drift_mean_normalized": drift["mean_normalized"],
        "drift_max_normalized": drift["max_normalized"],
        "penalty_mean_normalized": pen_mean,
        "penalty_max_normalized": pen_max,
    }


def solve_robust_dual(
    model: MarketModel,
    pair: UtilityPair,
    penalty: Penalty,
    y: float,
    ensemble: PathEnsemble,
    mu_values,
    theta1_values=None,
    adjoint_mode: str = "regression",
    control_variates: bool = True,
    basis: RegressionBasis | None = None,
) -> DualSolution:
    """Maximize J(theta, mu) = E[-V(G(T))] - integral rho(mu) over a (mu, theta1) grid.

    theta0 is eliminated through the perturbed constraint per candidate, so
    every scenario satisfies it pointwise.  The solution is a
    :class:`DualSolution` with ``penalty`` set and ``mu`` the optimal
    perturbation.
    """
    grid = ensemble.grid
    mu_values = np.asarray(list(mu_values), dtype=float)
    candidates = theta1_candidates(model, theta1_values)
    shape = (mu_values.size, len(candidates))
    scenarios, excluded = build_scenarios(model, grid, candidates, y, mu_values.tolist())
    search = grid_search(
        shape, scenario_samples(ensemble, pair, scenarios),
        np.array([c is not None for c in scenarios]),
        ensemble.terminal_controls() if control_variates else None,
        ensemble.n_paths, offset=-np.repeat(_penalty_integrals(penalty, mu_values, grid), shape[1]),
        size=np.array([abs(float(mu)) + float(np.linalg.norm(th1))
                       for mu in mu_values for th1 in candidates]),
        what="robust dual candidates",
    )
    j_star = search.best
    return _dual_solution(
        model, ensemble, pair, scenarios[j_star], adjoint_mode, basis, replicate=False,
        foc=robust_dual_foc_residuals,
        penalty=penalty,
        value=float(search.values[j_star]),
        se=float(search.ses[j_star]),
        theta1_values=[np.asarray(c).tolist() for c in candidates],
        candidate_values=search.values,
        candidate_se=search.ses,
        excluded=excluded,
        grid_edge=search.grid_edge,
    )


def robust_dual_foc_residuals(solution: DualSolution) -> dict:
    """First-order residuals of the robust dual at (theta, mu).

    ``jump``:    -q2*gamma/sigma + r2 per (time, mark), the plain dual
                 residual (:func:`dual_foc_residual`) — vacuous without marks.
    ``penalty``: rho'(mu) + G*q2, pathwise then averaged per time.
    """
    jump = dual_foc_residual(solution)
    gq = (solution.density[:, :-1] * solution.adjoints.q).mean(axis=0)
    pen_raw = float(np.asarray(solution.penalty.rho_prime(solution.mu))) + gq
    pen_scale = float(np.mean(np.abs(gq)))
    pen_mean, pen_max = interior_summary(pen_raw, pen_scale)
    return {
        "jump_raw": jump["raw"],
        "penalty_raw": pen_raw,
        "jump_scale": jump["scale"],
        "penalty_scale": pen_scale,
        "jump_mean_normalized": jump["mean_normalized"],
        "jump_max_normalized": jump["max_normalized"],
        "penalty_mean_normalized": pen_mean,
        "penalty_max_normalized": pen_max,
    }


def mu_from_foc(penalty: Penalty, density_value, q2_value):
    """Perturbation implied by the dual first-order condition: (rho')^{-1}(-G*q2)."""
    return penalty.rho_prime_inv(-np.asarray(density_value) * np.asarray(q2_value))
