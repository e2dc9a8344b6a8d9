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

from .bsde import AdjointTriple, RegressionBasis, log_adjoints, solve_linear_bsde
from .market import (
    DEGENERATE_VOL,
    INADMISSIBLE_FRACTION,
    MarketModel,
    PathEnsemble,
    Strategy,
    fraction_admissible,
    terminal_log_wealth,
    wealth_paths,
)
from .mc import cv_mean, grid_search, interior_summary
from .preferences import Penalty, UtilityPair, has_closed_form_adjoints

# the step in pi of the finite difference in :func:`hamiltonian_derivative_check`
BUMP = 0.025


@dataclass
class PrimalSolution:
    """Optimal (within the searched family) strategy with diagnostics attached.

    The robust saddle fills ``penalty`` and the payoff matrix over
    (``pi_values``, ``mu_values``), with ``mu`` the adversary's perturbation;
    its candidates are then the flat C-order (pi, mu) grid.  On a plain
    search the saddle fields are None.
    """

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
    penalty: Penalty | None = None
    mu_values: np.ndarray | None = None
    payoff: np.ndarray | None = None  # (n_pi, n_mu)
    payoff_se: np.ndarray | None = None
    is_saddle: bool | None = None
    gap: float | None = None
    minimax: float | None = None
    maximin: float | None = None
    wealth: np.ndarray | None = None
    adjoints: AdjointTriple | None = None
    foc: dict | None = None


def closed_form_refusal(model: MarketModel) -> str | None:
    """Why the log closed forms do not hold in ``model``, naming its field;
    None in the one market they hold in: no jumps, constant b and sigma, sigma != 0."""
    if model.n_marks:
        return f"closed form requires a no-jump market; market.jumps has {model.n_marks} mark(s)"
    for name in ("drift", "vol"):
        if callable(getattr(model, name)):
            return (f"closed form requires constant coefficients; the market's {name} is a "
                    "function of time")
    if abs(model.vol) < DEGENERATE_VOL:
        return f"closed form requires a nonzero volatility; market.vol is {model.vol!r}"


def _closed_form_coefficients(model: MarketModel) -> tuple:
    """(b, sigma), or ValueError with the :func:`closed_form_refusal`."""
    if refusal := closed_form_refusal(model):
        raise ValueError(refusal)
    return model.drift, model.vol


def merton_log_closed_form(model: MarketModel) -> Strategy:
    """Optimal fraction b/sigma^2 for log utility in a no-jump market with
    constant coefficients."""
    b, s = _closed_form_coefficients(model)
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
    b = model.drift_on(grid, mu)
    s = model.vol_on(grid)
    gam = model.jump_sizes_on(grid)
    nu = model.intensities
    jump_gain = 1.0 / (1.0 + pi * gam) - 1.0
    rate = pi**2 * s**2 - pi * b
    if model.n_marks:
        rate = rate + pi * (gam @ nu) + (jump_gain @ nu)
    return log_adjoints(grid, rate, wealth, -pi * s, jump_gain, "log-constant-pi")


def primal_adjoints(
    model: MarketModel,
    ensemble: PathEnsemble,
    utility: UtilityPair,
    wealth: np.ndarray,
    pi: float,
    mu,
    mode: str,
    basis: RegressionBasis | None,
    keep: str = "pqr",
) -> AdjointTriple:
    """Primal adjoints (p1, q1, r1) at a constant fraction, in the market with
    drift b + mu*sigma: the log closed form (analytic mode; its rows are
    formed on demand from the wealth, :class:`~duallab.bsde.ClosedFormAdjoints`)
    or the martingale representation of U'(X(T)) by regression, which keeps
    whole the channels in ``keep`` (:func:`~duallab.bsde.solve_linear_bsde`).
    p1 is the optimal density of the dual problem.
    """
    if mode == "analytic":
        if not has_closed_form_adjoints(utility.name):
            raise ValueError("analytic adjoints are available for log utility only")
        return analytic_log_adjoints(model, ensemble, wealth, pi, mu=mu)
    return solve_linear_bsde(ensemble, utility.u_prime(wealth[:, -1]),
                             state={"X": wealth, "F": lambda: utility.u_prime(wealth)},
                             basis=basis or RegressionBasis(channels=("X",)), keep=keep)


def solve_primal_search(
    model: MarketModel,
    utility: UtilityPair,
    x0: float,
    pi_values,
    ensemble: PathEnsemble,
    mu=None,
    adjoint_mode: str = "regression",
    basis: RegressionBasis | None = None,
    keep: str = "p",
) -> PrimalSolution:
    """Grid search over constant fractions, sharing one ensemble across candidates.

    Ties are broken toward smaller |pi|.  Candidates that violate
    1 + pi*gamma > 0 are excluded and reported.  The winner gets adjoints from
    the martingale representation of U'(X(T)) (or the log closed form).
    Regression adjoints keep whole the channels in ``keep``: by default p1
    only, with q1 and r1 as their per-step means, all the first-order
    residual reads; a map to the dual (:func:`~duallab.bridge.primal_to_dual`)
    reads q1 and r1 path by path and needs ``keep="pqr"``.
    """
    pi_values = np.asarray(list(pi_values), dtype=float)
    search, admissible = _fraction_search(model, utility, x0, ensemble, pi_values, [mu],
                                          size=np.abs(pi_values))
    excluded = [{"pi": float(pi), "reason": INADMISSIBLE_FRACTION}
                for pi in pi_values[~admissible]]
    return _primal_solution(model, ensemble, utility, x0, float(pi_values[search.best]), mu,
                            adjoint_mode, basis, keep=keep, pi_values=pi_values,
                            excluded=excluded, **search.fields())


def _fraction_search(model: MarketModel, utility: UtilityPair, x0: float, ensemble: PathEnsemble,
                     pi_values: np.ndarray, mu_values, offset=0.0, size=None):
    """E[U(X(T))] + ``offset`` (one per mu) over the C-order grid of constant
    fractions ``pi_values`` by drift perturbations ``mu_values``, through
    :func:`~duallab.mc.grid_search` (``size`` selects); one mu is passed on as
    given, a grid of them as one constant per candidate.  Returns the search
    and the per-pi mask of 1 + pi*gamma > 0, outside which none is evaluated."""
    shape = (pi_values.size, len(mu_values))
    admissible = fraction_admissible(model, ensemble.grid, pi_values)
    design = ensemble.terminal_design()

    def samples(idx, out):
        jp, jm = np.unravel_index(idx, shape)
        cols = (ensemble.grid.n_steps, idx.size)
        mu = mu_values[0] if shape[1] == 1 else np.broadcast_to(mu_values[jm], cols)
        ln_xt = terminal_log_wealth(model, ensemble, np.broadcast_to(pi_values[jp], cols), x0,
                                    mu=mu, design=design, out=out)
        return utility.u_of_log(ln_xt, out=ln_xt)

    search = grid_search(shape, samples, np.repeat(admissible, shape[1]), design,
                         ensemble.n_paths, offset=np.tile(offset, pi_values.size), size=size)
    return search, admissible


def _primal_solution(model: MarketModel, ensemble: PathEnsemble, utility: UtilityPair, x0: float,
                     pi: float, mu, adjoint_mode: str, basis: RegressionBasis | None, foc=None,
                     keep: str = "pqr", **fields) -> PrimalSolution:
    """Solution at a chosen constant fraction, in the market with drift
    b + mu*sigma: wealth, adjoints keeping whole the channels in ``keep``
    (:func:`primal_adjoints`) and first-order residuals (``foc(solution)``,
    by default :func:`primal_foc_residual`).  ``fields`` carry the search
    results."""
    strategy = Strategy.fraction(pi)
    wealth = wealth_paths(model, ensemble, strategy, x0, mu=mu)
    solution = PrimalSolution(
        model=model,
        ensemble=ensemble,
        utility=utility,
        x0=x0,
        pi=pi,
        strategy=strategy,
        mu=mu,
        wealth=wealth,
        adjoints=primal_adjoints(model, ensemble, utility, wealth, pi, mu, adjoint_mode, basis,
                                 keep),
        **fields,
    )
    solution.foc = foc(solution) if foc else primal_foc_residual(solution)
    return solution


def primal_foc_residual(solution: PrimalSolution) -> dict:
    """Residual of b*p1 + sigma*q1 + sum_k gamma_k*r1_k*nu_k, per grid time,
    with b + mu*sigma for b when the solution carries a perturbation mu.

    Cross-sectional means estimate the conditional identity; the summary is
    normalized by the time-average of |b*mean(p1)| so tolerances are
    scale-free (:func:`~duallab.mc.interior_summary`).
    """
    model, ensemble = solution.model, solution.ensemble
    grid = ensemble.grid
    adj = solution.adjoints
    b = model.drift_on(grid, solution.mu)
    s = model.vol_on(grid)
    # one step row at a time: each row's pairwise mean is mean(axis=0)'s
    p_mean = np.array([adj.rows("p", i).mean() for i in range(grid.n_steps)])
    raw = b * p_mean + s * adj.q_mean
    if model.n_marks:
        gam = model.jump_sizes_on(grid)
        raw = raw + (gam * adj.r_mean) @ model.intensities
    return interior_summary(raw, float(np.mean(np.abs(b * p_mean))))


def hamiltonian_derivative_check(solution: PrimalSolution) -> tuple[float, float]:
    """Central finite difference of the objective in pi at the solution.

    Uses common random numbers: the bumped fractions pi +- :data:`BUMP` are
    two candidates of one evaluation over the ensemble's terminal design.  By
    the necessary optimality condition the derivative vanishes at an
    optimum.  Returns (estimate, standard error).
    """
    model, ensemble = solution.model, solution.ensemble
    design = ensemble.terminal_design()
    pi = np.broadcast_to(solution.pi + np.array([BUMP, -BUMP]), (ensemble.grid.n_steps, 2))
    u = solution.utility.u_of_log(
        terminal_log_wealth(model, ensemble, pi, solution.x0, mu=solution.mu, design=design))
    return cv_mean((u[:, 0] - u[:, 1]) / (2.0 * BUMP), design[:, 1:])
