"""Robust (penalized worst-case drift) primal game and its dual.

The primal side is a saddle problem: the investor maximizes over portfolios
while an adversary perturbs the drift by mu*sigma at convex cost rho(mu).  A
payoff matrix over (pi, mu) grids is evaluated with common random numbers; a
pure saddle cell is returned when one exists, otherwise the minimax/maximin
cells and their gap.  The dual side maximizes E[-V(G(T))] - penalty over
scenarios consistent with the perturbed constraint.
"""

from __future__ import annotations

import numpy as np

from .bsde import RegressionBasis
from .dual import (DualSolution, _dual_solution, _scenario_search, dual_foc_residual,
                   theta1_candidates)
from .market import INADMISSIBLE_FRACTION, MarketModel, PathEnsemble
from .mc import interior_summary, product_means
from .preferences import Penalty, UtilityPair
from .primal import (PrimalSolution, _closed_form_coefficients, _fraction_search,
                     _primal_solution, primal_foc_residual)


def robust_log_closed_form(model: MarketModel, penalty: Penalty) -> tuple[float, float]:
    """Explicit saddle (pi, mu) for log utility with the quadratic penalty in
    a no-jump market with constant coefficients.

    With penalty scale c:  mu = -b/((1+c) sigma),  pi = c*b/((1+c) sigma^2);
    at c = 1 these are -b/(2 sigma) and b/(2 sigma^2), half the plain optimal
    fraction.  The unit-count portfolio is phi = (b/sigma + mu)/(G sigma S).
    """
    b, s = map(float, _closed_form_coefficients(model))
    if penalty.name != "quadratic":
        raise ValueError("closed form requires the quadratic penalty")
    c = penalty.scale
    return (c * b) / ((1.0 + c) * s**2), -b / ((1.0 + c) * s)


def _with_penalty(solution, prefix: str, plain: dict, term: np.ndarray) -> dict:
    """The plain report under ``prefix``; under ``penalty_``, rho'(mu) + term over mean |term|."""
    raw = float(np.asarray(solution.penalty.rho_prime(solution.mu))) + term
    penalty = interior_summary(raw, term)
    return {**{prefix + key: value for key, value in plain.items()},
            **{"penalty_" + key: value for key, value in penalty.items()}}


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
    basis: RegressionBasis | None = None,
    keep: str = "p",
) -> PrimalSolution:
    """Payoff matrix I(pi, mu) = E[U(X(T))] + integral rho(mu) over the grids.

    A pure saddle is a cell that is the maximum of its column (over pi) and
    the minimum of its row (over mu); ties break toward smaller |pi| then
    smaller |mu|.  When no pure cell exists, the minimax cell is returned and
    the minimax-maximin gap reported.  Regression adjoints keep whole the
    channels in ``keep``, as in :func:`~duallab.primal.solve_primal_search`:
    by default p1 only, which the penalty residual reads pathwise against X.
    """
    pi_values = np.asarray(list(pi_values), dtype=float)
    mu_values = np.asarray(list(mu_values), dtype=float)
    search, pi_ok = _fraction_search(model, utility, x0, ensemble, pi_values, mu_values,
                                     offset=_penalty_integrals(penalty, mu_values, ensemble.grid))
    excluded = [{"pi": float(pi), "mu": float(mu), "reason": INADMISSIBLE_FRACTION}
                for mu in mu_values for pi in pi_values[~pi_ok]]
    payoff = search.values.reshape(search.shape)

    col_max = payoff.max(axis=0)
    row_min = payoff.min(axis=1)
    cells = np.argwhere((payoff == col_max) & (payoff == row_min[:, None])).tolist()
    minimax = float(col_max.min())
    maximin = float(row_min.max())
    if cells:
        jp, jm = min(cells, key=lambda c: (abs(pi_values[c[0]]), abs(mu_values[c[1]])))
        is_saddle, gap = True, 0.0
    else:
        jm = int(np.argmin(col_max))
        jp = int(np.argmax(payoff[:, jm]))
        is_saddle, gap = False, minimax - maximin

    return _primal_solution(
        model, ensemble, utility, x0, float(pi_values[jp]), float(mu_values[jm]), adjoint_mode,
        basis, foc=robust_primal_foc_residuals, keep=keep, penalty=penalty, pi_values=pi_values,
        mu_values=mu_values, payoff=payoff, payoff_se=search.ses.reshape(search.shape),
        is_saddle=is_saddle, gap=gap, minimax=minimax, maximin=maximin, excluded=excluded,
        **search.fields(np.ravel_multi_index((jp, jm), search.shape)),
    )


def robust_primal_foc_residuals(solution: PrimalSolution) -> dict:
    """First-order residuals of the primal game at (pi, mu).

    ``drift``:  (b + mu*sigma) p1 + sigma q1 + sum gamma r1 nu  (per time),
    the plain primal residual (:func:`~duallab.primal.primal_foc_residual`)
    in the perturbed market.
    ``penalty``: rho'(mu) + phi*S*sigma*p1 = rho'(mu) + pi*sigma*X*p1.
    Cross-sectional means per time, each normalized by its natural scale.
    """
    s = solution.model.vol_on(solution.ensemble.grid)
    xp_mean = product_means(solution.wealth[:, :-1], solution.adjoints.p[:, :-1])
    return _with_penalty(solution, "drift_", primal_foc_residual(solution),
                         solution.pi * s * xp_mean)


def solve_robust_dual(
    model: MarketModel,
    pair: UtilityPair,
    penalty: Penalty,
    y: float,
    ensemble: PathEnsemble,
    mu_values,
    theta1_values=None,
    adjoint_mode: str = "regression",
    basis: RegressionBasis | None = None,
) -> DualSolution:
    """Maximize J(theta, mu) = E[-V(G(T))] - integral rho(mu) over a (mu, theta1) grid.

    theta0 is eliminated through the perturbed constraint per candidate, so
    every scenario satisfies it pointwise.  The solution is a
    :class:`DualSolution` with ``penalty`` set and ``mu`` the optimal
    perturbation.  Regression adjoints keep p2 at p2(t_0) and p2(T) only and
    r2 as its per-step mean, as in :func:`~duallab.dual.solve_dual_search`,
    and q2 whole, which the penalty residual reads pathwise against G.
    """
    mu_values = np.asarray(list(mu_values), dtype=float)
    candidates = theta1_candidates(model, theta1_values)
    control, fields = _scenario_search(
        model, pair, y, ensemble, candidates, mu_values.tolist(),
        np.array([abs(float(mu)) + float(np.linalg.norm(th1))
                  for mu in mu_values for th1 in candidates]),
        -_penalty_integrals(penalty, mu_values, ensemble.grid), "robust dual candidates")
    return _dual_solution(model, ensemble, pair, control, adjoint_mode, basis, replicate=False,
                          keep="q", foc=robust_dual_foc_residuals, penalty=penalty, **fields)


def robust_dual_foc_residuals(solution: DualSolution) -> dict:
    """First-order residuals of the robust dual at (theta, mu).

    ``jump``:    -q2*gamma/sigma + r2 per (time, mark), the plain dual
                 residual (:func:`dual_foc_residual`) — vacuous without marks.
    ``penalty``: rho'(mu) + G*q2, pathwise then averaged per time.
    """
    return _with_penalty(solution, "jump_", dual_foc_residual(solution),
                         product_means(solution.density[:, :-1], solution.adjoints.q))


def mu_from_foc(penalty: Penalty, density_value, q2_value):
    """Perturbation implied by the dual first-order condition: (rho')^{-1}(-G*q2)."""
    return penalty.rho_prime_inv(-np.asarray(density_value) * np.asarray(q2_value))
