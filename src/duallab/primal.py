"""Primal problem: maximize expected utility of terminal wealth.

Closed form for the log/no-jump case; otherwise a grid search over constant
fractions with common random numbers and control variates.  First-order
optimality is checked two ways: through the adjoint constraint
b*p1 + sigma*q1 + sum gamma*r1*nu = 0 and through a finite-difference
directional derivative of the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import AdjointTriple, RegressionBasis, martingale_representation
from .market import (
    INADMISSIBLE_FRACTION,
    MarketModel,
    PathEnsemble,
    Strategy,
    as_time_fn,
    eval_on_grid,
    fraction_admissible,
    terminal_log_wealth,
    wealth_paths,
)
from .mc import cv_mean, grid_search, interior_summary, interior_window
from .preferences import UtilityPair


@dataclass
class PrimalSolution:
    """Optimal (within the searched family) strategy with diagnostics attached."""

    model: MarketModel
    ensemble: PathEnsemble
    utility: UtilityPair
    x0: float
    pi: float
    strategy: Strategy
    value: float
    se: float
    pi_values: np.ndarray
    candidate_values: np.ndarray
    candidate_se: np.ndarray
    excluded: list = field(default_factory=list)
    grid_edge: bool = False
    mu: object = None
    wealth: np.ndarray | None = None
    adjoints: AdjointTriple | None = None
    foc: dict | None = None


def merton_log_closed_form(model: MarketModel) -> Strategy:
    """Optimal fraction b(t)/sigma(t)^2 for log utility in a no-jump market."""
    if model.n_marks:
        raise ValueError("closed form requires a no-jump market")
    b, s = model.drift, model.vol
    if callable(b) or callable(s):
        bf, sf = as_time_fn(b), as_time_fn(s)
        return Strategy.fraction(lambda t: bf(t) / sf(t) ** 2)
    return Strategy.fraction(b / s**2)


def analytic_log_adjoints(
    model: MarketModel,
    ensemble: PathEnsemble,
    wealth: np.ndarray,
    pi: float,
    mu=None,
) -> AdjointTriple:
    """Closed-form adjoints for log utility under a constant fraction.

    With U' = 1/x the conditional expectation of U'(X(T)) is C(t)/X(t) with a
    deterministic tail factor; the integrands follow by differentiating the
    exponential update:  q1 = -pi*sigma*p1 and r1_k = p1*((1+pi*gamma_k)^{-1}-1).
    """
    grid = ensemble.grid
    dt = grid.dt
    b = model.drift_on(grid, mu)
    s = model.vol_on(grid)
    gam = model.jump_sizes_on(grid)
    nu = model.intensities
    rate = pi**2 * s**2 - pi * b
    if model.n_marks:
        rate = rate + pi * (gam @ nu) + ((1.0 / (1.0 + pi * gam) - 1.0) @ nu)
    # tail factor C(t_i) = exp(sum_{j>=i} rate_j dt), C(T) = 1
    tail = np.concatenate([np.cumsum((rate * dt)[::-1])[::-1], [0.0]])
    p = np.exp(tail)[None, :] / wealth
    q = -pi * s[None, :] * p[:, :-1]
    r = np.zeros((ensemble.n_paths, grid.n_steps, model.n_marks))
    if model.n_marks:
        r = (1.0 / (1.0 + pi * gam) - 1.0)[None, :, :] * p[:, :-1, None]
    return AdjointTriple(p, q, r, mode="analytic", diagnostics={"family": "log-constant-pi"})


def primal_adjoints(
    model: MarketModel,
    ensemble: PathEnsemble,
    utility: UtilityPair,
    wealth: np.ndarray,
    pi: float,
    mu,
    mode: str,
    basis: RegressionBasis | None,
) -> AdjointTriple:
    """Primal adjoints (p1, q1, r1) at a constant fraction, in the market with
    drift b + mu*sigma: the log closed form (analytic mode) or the
    martingale representation of U'(X(T)) by regression.  p1 is the optimal
    density of the dual problem.
    """
    if mode == "analytic":
        if utility.name != "log":
            raise ValueError("analytic adjoints are available for log utility only")
        return analytic_log_adjoints(model, ensemble, wealth, pi, mu=mu)
    return martingale_representation(
        ensemble,
        utility.u_prime(wealth[:, -1]),
        state={"X": wealth, "F": lambda: utility.u_prime(wealth)},
        basis=basis or RegressionBasis(channels=("X",)),
    )


def solve_primal_search(
    model: MarketModel,
    utility: UtilityPair,
    x0: float,
    pi_values,
    ensemble: PathEnsemble,
    mu=None,
    adjoint_mode: str = "regression",
    control_variates: bool = True,
    basis: RegressionBasis | None = None,
) -> PrimalSolution:
    """Grid search over constant fractions, sharing one ensemble across candidates.

    Ties are broken toward smaller |pi|.  Candidates that violate
    1 + pi*gamma > 0 are excluded and reported.  The winner gets adjoints from
    the martingale representation of U'(X(T)) (or the log closed form).
    """
    pi_values = np.asarray(list(pi_values), dtype=float)
    admissible = fraction_admissible(model, ensemble.grid, pi_values)
    excluded = [{"pi": float(pi), "reason": INADMISSIBLE_FRACTION}
                for pi in pi_values[~admissible]]

    def samples(idx):
        pi = np.broadcast_to(pi_values[idx], (ensemble.grid.n_steps, idx.size))
        return utility.u(np.exp(terminal_log_wealth(model, ensemble, pi, x0, mu=mu)))

    search = grid_search(
        pi_values.shape, samples, admissible,
        ensemble.terminal_controls() if control_variates else None,
        ensemble.n_paths, size=np.abs(pi_values),
    )
    values, ses, j_star = search.values, search.ses, search.best
    pi_star = float(pi_values[j_star])

    wealth = wealth_paths(model, ensemble, Strategy.fraction(pi_star), x0, mu=mu)
    adjoints = primal_adjoints(model, ensemble, utility, wealth, pi_star, mu, adjoint_mode, basis)
    solution = PrimalSolution(
        model=model,
        ensemble=ensemble,
        utility=utility,
        x0=x0,
        pi=pi_star,
        strategy=Strategy.fraction(pi_star),
        value=float(values[j_star]),
        se=float(ses[j_star]),
        pi_values=pi_values,
        candidate_values=values,
        candidate_se=ses,
        excluded=excluded,
        grid_edge=search.grid_edge,
        mu=mu,
        wealth=wealth,
        adjoints=adjoints,
    )
    solution.foc = primal_foc_residual(solution)
    return solution


def primal_foc_residual(solution: PrimalSolution) -> dict:
    """Residual of b*p1 + sigma*q1 + sum_k gamma_k*r1_k*nu_k, per grid time,
    with b + mu*sigma for b when the solution carries a perturbation mu.

    Cross-sectional means estimate the conditional identity; the summary is
    normalized by the time-average of |b*mean(p1)| so tolerances are
    scale-free.  Interior times (central 80% of the grid) enter the summary.
    """
    model, ensemble = solution.model, solution.ensemble
    grid = ensemble.grid
    adj = solution.adjoints
    b = model.drift_on(grid, solution.mu)
    s = model.vol_on(grid)
    p_mean = adj.p[:, :-1].mean(axis=0)
    q_mean = adj.q.mean(axis=0)
    raw = b * p_mean + s * q_mean
    if model.n_marks:
        gam = model.jump_sizes_on(grid)
        raw = raw + np.einsum("ik,pik,k->i", gam, adj.r, model.intensities) / ensemble.n_paths
    scale = float(np.mean(np.abs(b * p_mean)))
    mean_normalized, max_normalized = interior_summary(raw, scale)
    window = interior_window(grid.n_steps)
    return {
        "raw": raw,
        "scale": scale,
        "mean_normalized": mean_normalized,
        "max_normalized": max_normalized,
        "interior": (window.start, window.stop),
    }


def hamiltonian_derivative_check(
    solution: PrimalSolution,
    direction=1.0,
    bump: float = 0.025,
    control_variates: bool = True,
) -> tuple[float, float]:
    """Central finite difference of the objective along ``direction`` at the solution.

    Uses common random numbers; by the necessary optimality condition the
    derivative vanishes at an optimum.  Returns (estimate, standard error).
    """
    model, ensemble = solution.model, solution.ensemble
    beta = eval_on_grid(direction, ensemble.grid.left_times)
    if not np.any(beta):
        return 0.0, 0.0
    pi_plus = solution.pi + bump * beta
    pi_minus = solution.pi - bump * beta
    u = solution.utility.u
    up = u(np.exp(terminal_log_wealth(model, ensemble, pi_plus, solution.x0, mu=solution.mu)))
    dn = u(np.exp(terminal_log_wealth(model, ensemble, pi_minus, solution.x0, mu=solution.mu)))
    controls = ensemble.terminal_controls() if control_variates else None
    est, se = cv_mean((up - dn) / (2.0 * bump), controls)
    return est, se
