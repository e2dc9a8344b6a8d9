"""Dual scenario problem over martingale-measure densities, and replication.

Scenario controls are parameterized by the jump ratios theta1; the Brownian
ratio theta0 is then eliminated exactly through the linear martingale-measure
constraint, so every emitted control satisfies it pointwise.  The optimal
scenario's claim -V'(G(T)) is replicated by the portfolio q2/(sigma*S), with
the jump-branch fallback r2/(gamma*S) wherever sigma vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import AdjointTriple, DriverSpec, RegressionBasis, solve_linear_bsde
from .market import (
    DEGENERATE_VOL,
    THETA1_FLOOR,
    MarketModel,
    PathEnsemble,
    TimeGrid,
    _euler_paths,
    _over_paths,
    density_paths,
    terminal_log_density,
)
from .mc import cv_mean, grid_search, interior_summary
from .preferences import Penalty, UtilityPair

@dataclass(frozen=True)
class ScenarioControl:
    """Density control (theta0, theta1) with initial value y, optionally a drift
    perturbation mu in robust mode.  Arrays are per grid step (and per mark)."""

    theta0: np.ndarray
    theta1: np.ndarray
    y: float
    mu: object = None

    def __post_init__(self) -> None:
        if not self.y > 0:
            raise ValueError("initial density y must be positive")


@dataclass
class DualSolution:
    """Optimal (within the searched family) scenario with diagnostics attached.

    The robust dual fills ``penalty``; its candidates are then the flat
    C-order (mu, theta1) grid.  The drift perturbation is the control's.
    """

    model: MarketModel
    ensemble: PathEnsemble
    pair: UtilityPair
    y: float
    control: ScenarioControl
    value: float
    se: float
    theta1_values: list
    candidate_values: np.ndarray
    candidate_se: np.ndarray
    excluded: list = field(default_factory=list)
    grid_edge: bool = False
    penalty: Penalty | None = None
    density: np.ndarray | None = None
    adjoints: AdjointTriple | None = None
    foc: dict | None = None
    replication: dict | None = None

    @property
    def mu(self):
        """Drift perturbation of the market the scenario lives in (None: unperturbed)."""
        return self.control.mu


def scenario_from_theta1(
    model: MarketModel,
    grid: TimeGrid,
    theta1,
    y: float,
    mu=None,
) -> ScenarioControl:
    """Build a control satisfying the martingale-measure constraint exactly.

    Where sigma(t) != 0, theta0 is eliminated through
    theta0 = -(b + mu*sigma + sum_k gamma_k*theta1_k*nu_k)/sigma.  On steps
    with vanishing sigma the constraint pins the jump ratios instead: theta1
    is projected onto the constraint hyperplane (nu-weighted least squares)
    and theta0 is set to zero.
    """
    return _eliminate_theta0(model, grid, theta1, y, mu, model.vol_on(grid),
                             model.jump_sizes_on(grid), -model.drift_on(grid, mu))


def _eliminate_theta0(model, grid, theta1, y, mu, s, gam, rhs) -> ScenarioControl:
    """:func:`scenario_from_theta1` on the grids of sigma, gamma and
    -(b + mu*sigma), built once by the caller."""
    k = model.n_marks
    theta1 = np.broadcast_to(np.asarray(theta1, dtype=float), (grid.n_steps, k)).copy() if k else np.zeros((grid.n_steps, 0))
    nu = model.intensities
    jump_term = np.einsum("ik,ik->i", gam, theta1 * nu)
    theta0 = np.zeros(grid.n_steps)
    degenerate = np.abs(s) < DEGENERATE_VOL
    live = ~degenerate
    theta0[live] = (rhs[live] - jump_term[live]) / s[live]
    if np.any(degenerate):
        has_jump = np.any(np.abs(gam) > 0, axis=1)
        stuck = np.flatnonzero(degenerate & ~has_jump & (np.abs(rhs) > 1e-14))
        if stuck.size:
            raise ValueError(
                f"no martingale measure at step {stuck[0]}: sigma = 0, no jumps, drift != 0"
            )
        fix = degenerate & has_jump
        lam = (rhs[fix] - jump_term[fix]) / np.einsum("ik,ik->i", gam[fix], gam[fix] * nu)
        theta1[fix] = theta1[fix] + lam[:, None] * gam[fix]
    if theta1.size and np.any(theta1 < THETA1_FLOOR):
        raise ValueError("theta1 below -1 + eps after constraint elimination")
    return ScenarioControl(theta0=theta0, theta1=theta1, y=float(y), mu=mu)


def theta1_candidates(model: MarketModel, theta1_values) -> list[np.ndarray]:
    """The searched jump ratios, one per-mark vector each; a no-jump market has one, empty."""
    if model.n_marks == 0:
        return [np.zeros(0)]
    if theta1_values is None:
        raise ValueError("theta1_values required for a jump market")
    return [np.broadcast_to(np.asarray(t, dtype=float), (model.n_marks,)) for t in theta1_values]


def build_scenarios(
    model: MarketModel,
    grid: TimeGrid,
    candidates: list,
    y: float,
    mu_values,
) -> tuple[list, list]:
    """Scenarios of every (mu, theta1) pair in C order, None where the
    constraint elimination fails, and an exclusion record for each of those."""
    scenarios: list[ScenarioControl | None] = []
    excluded = []
    s, gam = model.vol_on(grid), model.jump_sizes_on(grid)
    for mu in mu_values:
        rhs = -model.drift_on(grid, mu)
        for th1 in candidates:
            try:
                scenarios.append(_eliminate_theta0(model, grid, th1, y, mu, s, gam, rhs))
            except ValueError as exc:
                scenarios.append(None)
                excluded.append({"theta1": np.asarray(th1).tolist(), "reason": str(exc)})
    return scenarios, excluded


def scenario_samples(ensemble: PathEnsemble, pair: UtilityPair, scenarios: list,
                     design: np.ndarray):
    """Per-path payoffs -V(G(T)) of blocks of built scenarios, for :func:`grid_search`.

    The block's controls are stacked along a candidate axis, so ln G(T) comes
    from one batched evaluation over ``design``, the ensemble's
    :meth:`~duallab.market.PathEnsemble.terminal_design`.
    """
    def samples(idx, out):
        block = ScenarioControl(
            theta0=np.stack([scenarios[j].theta0 for j in idx], axis=1),
            theta1=np.stack([scenarios[j].theta1 for j in idx], axis=1),
            y=scenarios[idx[0]].y,
        )
        ln_gt = terminal_log_density(ensemble, block, design=design, out=out)
        return pair.neg_v_of_log(ln_gt, out=ln_gt)
    return samples


def unique_scenario_no_jumps(model: MarketModel, grid: TimeGrid, y: float) -> ScenarioControl:
    """The single admissible scenario theta0 = -b/sigma of a no-jump market."""
    if model.n_marks:
        raise ValueError("market has jumps; the scenario family is not a singleton")
    b, s = model.drift_on(grid), model.vol_on(grid)
    if np.any(np.abs(s) < DEGENERATE_VOL):
        raise ValueError("sigma vanishes on the grid")
    ratio = b / s
    if not np.all(np.isfinite(ratio)):
        raise ValueError("b/sigma unbounded on the grid")
    return ScenarioControl(theta0=-ratio, theta1=np.zeros((grid.n_steps, 0)), y=float(y))


def dual_driver(model: MarketModel, grid: TimeGrid, mu=None) -> DriverSpec:
    """dt-term of the dual adjoint equation: (b + mu*sigma)/sigma times q.

    On steps where sigma vanishes the same exposure is carried by the jump
    integrand, so the coefficient moves to r/gamma (per mark).
    """
    b = model.drift_on(grid, mu)
    s = model.vol_on(grid)
    degenerate = np.abs(s) < DEGENERATE_VOL
    q_coeff = np.where(degenerate, 0.0, b / np.where(degenerate, 1.0, s))
    k = model.n_marks
    if k:
        gam = model.jump_sizes_on(grid)
        nu = model.intensities
        r_coeff = np.zeros((grid.n_steps, k))
        for i in np.flatnonzero(degenerate):
            ok = np.abs(gam[i]) > 0
            if not np.any(ok):
                continue
            w = nu * ok
            w = w / w.sum() if w.sum() > 0 else ok / ok.sum()
            r_coeff[i, ok] = b[i] * w[ok] / gam[i, ok]
    else:
        r_coeff = np.zeros((grid.n_steps, 0))
    return DriverSpec(q_coeff=q_coeff, r_coeff=r_coeff)


def analytic_log_dual_adjoints(
    model: MarketModel,
    ensemble: PathEnsemble,
    density: np.ndarray,
    control: ScenarioControl,
) -> AdjointTriple:
    """Closed-form dual adjoints for the log conjugate at a deterministic scenario.

    The adjoint equation is solved by p2 = c(t)/G with a deterministic tail
    factor c, c(T) = 1, whose rate balances the drift of 1/G against the
    dt-term of the equation; c is identically one at the optimal scenario.
    The integrands follow from the exponential update:
    q2 = -theta0*p2 and r2_k = ((1+theta1_k)^{-1} - 1)*p2(t-).
    """
    grid = ensemble.grid
    dt = grid.dt
    k = model.n_marks
    theta0 = np.broadcast_to(np.asarray(control.theta0, dtype=float), (grid.n_steps,))
    theta1 = np.asarray(control.theta1, dtype=float).reshape(grid.n_steps, k) if k else np.zeros((grid.n_steps, 0))
    nu = model.intensities
    jump_gain = (1.0 / (1.0 + theta1) - 1.0) if k else theta1
    # drift rate of 1/G as a stochastic exponential
    a = theta0**2
    if k:
        a = a + theta1 @ nu + jump_gain @ nu
    # dt-term of the adjoint equation per unit p2: the driver's coefficients
    # applied to q2/p2 = -theta0 and r2/p2 = jump_gain
    driver = dual_driver(model, grid, mu=control.mu)
    psi = -theta0 * driver.q_coeff + np.sum(driver.r_coeff * jump_gain, axis=1)
    rate = -a + psi
    tail = np.concatenate([np.cumsum((rate * dt)[::-1])[::-1], [0.0]])
    c = np.exp(tail)
    p = c[None, :] / density
    q = -theta0[None, :] * p[:, :-1]
    r = jump_gain[None, :, :] * p[:, :-1, None] if k else np.zeros((ensemble.n_paths, grid.n_steps, 0))
    return AdjointTriple(p, q, r, mode="analytic", diagnostics={"family": "log-dual"})


def dual_adjoints(
    model: MarketModel,
    ensemble: PathEnsemble,
    pair: UtilityPair,
    density: np.ndarray,
    control: ScenarioControl,
    mode: str,
    basis: RegressionBasis | None,
) -> AdjointTriple:
    """Dual adjoints (p2, q2, r2) of a scenario, in the market with drift
    b + control.mu*sigma: the log closed form (analytic mode) or the
    backward solve with terminal value -V'(G(T)).  p2 is the optimal wealth
    of the primal problem.
    """
    if mode == "analytic":
        if pair.name != "log":
            raise ValueError("analytic dual adjoints are available for the log pair only")
        return analytic_log_dual_adjoints(model, ensemble, density, control)
    return solve_linear_bsde(
        ensemble,
        pair.inverse_marginal(density[:, -1]),
        driver=dual_driver(model, ensemble.grid, mu=control.mu),
        state={"G": density, "F": lambda: pair.inverse_marginal(density)},
        basis=basis or RegressionBasis(channels=("G",)),
    )


def _dual_solution(
    model: MarketModel,
    ensemble: PathEnsemble,
    pair: UtilityPair,
    control: ScenarioControl,
    adjoint_mode: str,
    basis: RegressionBasis | None,
    replicate: bool,
    foc=None,
    density: np.ndarray | None = None,
    **fields,
) -> DualSolution:
    """Solution at a chosen scenario: density, adjoints, first-order residuals
    (``foc(solution)``, by default :func:`dual_foc_residual`) and, optionally,
    the replication check.  ``density`` is the scenario's density paths when
    the caller has built them already.  ``fields`` carry the search results."""
    if density is None:
        density = density_paths(ensemble, control)
    solution = DualSolution(
        model=model,
        ensemble=ensemble,
        pair=pair,
        y=control.y,
        control=control,
        density=density,
        adjoints=dual_adjoints(model, ensemble, pair, density, control, adjoint_mode, basis),
        **fields,
    )
    solution.foc = foc(solution) if foc else dual_foc_residual(solution)
    if replicate:
        solution.replication = replication_check(
            model, *_portfolio_rows(solution), pair.inverse_marginal(density[:, -1]), ensemble,
            mu=control.mu,
        )
    return solution


def solve_dual_search(
    model: MarketModel,
    pair: UtilityPair,
    y: float,
    ensemble: PathEnsemble,
    theta1_values=None,
    mu=None,
    adjoint_mode: str = "regression",
    control_variates: bool = True,
    basis: RegressionBasis | None = None,
    replicate: bool = True,
) -> DualSolution:
    """Maximize E[-V(G(T))] over a family of constant-per-mark jump ratios.

    theta0 is eliminated exactly per candidate, so the constraint residual is
    zero pointwise for every scenario evaluated.  In a no-jump market the
    family collapses to the unique scenario.
    """
    candidates = theta1_candidates(model, theta1_values)
    scenarios, excluded = build_scenarios(model, ensemble.grid, candidates, y, [mu])
    design = ensemble.terminal_design()
    search = grid_search(
        (len(candidates),), scenario_samples(ensemble, pair, scenarios, design),
        np.array([c is not None for c in scenarios]), design if control_variates else None,
        ensemble.n_paths, size=np.array([float(np.linalg.norm(c)) for c in candidates]),
        what="scenario candidates",
    )
    j_star = search.best
    return _dual_solution(
        model, ensemble, pair, scenarios[j_star], adjoint_mode, basis, replicate,
        value=float(search.values[j_star]),
        se=float(search.ses[j_star]),
        theta1_values=[np.asarray(c).tolist() for c in candidates],
        candidate_values=search.values,
        candidate_se=search.ses,
        excluded=excluded,
        grid_edge=search.grid_edge,
    )


def evaluate_dual_scenario(
    model: MarketModel,
    pair: UtilityPair,
    control: ScenarioControl,
    ensemble: PathEnsemble,
    adjoint_mode: str = "regression",
    control_variates: bool = True,
    basis: RegressionBasis | None = None,
    replicate: bool = False,
    density: np.ndarray | None = None,
) -> DualSolution:
    """Dual solution object for one given scenario (no search).

    Used by the bridge round trips, which hand back a fully determined
    scenario rather than a candidate family.  ``density`` may pass the
    scenario's paths, ``density_paths(ensemble, control)``, when they are
    built already (a primal-to-dual report keeps them); they are not rebuilt.
    """
    value, se = cv_mean(
        pair.neg_v_of_log(terminal_log_density(ensemble, control)),
        ensemble.terminal_controls() if control_variates else None,
    )
    return _dual_solution(
        model, ensemble, pair, control, adjoint_mode, basis, replicate, density=density,
        value=float(value),
        se=float(se),
        theta1_values=[np.asarray(control.theta1[0]).tolist()] if model.n_marks else [[]],
        candidate_values=np.array([value]),
        candidate_se=np.array([se]),
    )


def dual_foc_residual(solution: DualSolution) -> dict:
    """Residual of -q2*gamma/sigma + r2 = 0 per (time, mark), from the adjoints.

    Vacuous (empty array) in a no-jump market.  Steps with vanishing sigma are
    excluded; there the exposure identity is enforced through the replication
    branch instead.  Normalized by the mean magnitude of r2.
    """
    model, ensemble = solution.model, solution.ensemble
    grid = ensemble.grid
    k = model.n_marks
    if k == 0:
        return {"raw": np.zeros((grid.n_steps, 0)), "mean_normalized": 0.0,
                "max_normalized": 0.0, "scale": 0.0}
    s = model.vol_on(grid)
    gam = model.jump_sizes_on(grid)
    adj = solution.adjoints
    live = np.abs(s) >= DEGENERATE_VOL
    q_mean = adj.q.mean(axis=0)
    r_mean = adj.r.mean(axis=0)
    raw = np.zeros((grid.n_steps, k))
    raw[live] = -(q_mean[live] / s[live])[:, None] * gam[live] + r_mean[live]
    scale = float(np.mean(np.abs(r_mean[live]))) if np.any(live) else 0.0
    mean_normalized, max_normalized = interior_summary(raw, scale, mask=live)
    return {
        "raw": raw,
        "scale": scale,
        "mean_normalized": mean_normalized,
        "max_normalized": max_normalized,
    }


def _portfolio_rows(solution: DualSolution):
    """The portfolio replicating -V'(G(T)), one step at a time: a function
    ``units(i, paths, out)`` that writes phi_i, the units held over step
    ``i``, on the path range ``paths`` into the row ``out`` and returns it;
    and the initial value p2(0).

    phi_i is q2/(sigma*S); where sigma vanishes, the nu-weighted least
    squares of r2_k = phi*S*gamma_k over the live marks, or zero where no
    mark is live.  Each value is formed by the same operations on any path
    range.  Every step with vanishing sigma is checked here, before any
    step is taken: with no live mark there, nonzero integrands raise
    ValueError.
    """
    model, ensemble = solution.model, solution.ensemble
    grid = ensemble.grid
    adj = solution.adjoints
    s = model.vol_on(grid)
    gam = model.jump_sizes_on(grid)
    nu = model.intensities
    spot = ensemble.channel("S")
    scale = float(np.mean(np.abs(adj.p[:, -1])))
    # per step with vanishing sigma: (live marks, gamma*nu, sum gamma^2 nu),
    # or None where no mark is live and phi is zero
    jump_fit = {}
    for i in np.flatnonzero(np.abs(s) < DEGENERATE_VOL):
        ok = np.abs(gam[i]) > 0 if model.n_marks else np.zeros(0, dtype=bool)
        if np.any(ok):
            jump_fit[i] = (ok, gam[i, ok] * nu[ok], float((gam[i, ok] ** 2 * nu[ok]).sum()))
            continue
        q_size = float(np.max(np.abs(adj.q[:, i])))
        r_size = float(np.max(np.abs(adj.r[:, i]))) if model.n_marks else 0.0
        if max(q_size, r_size) > 1e-6 * scale:
            raise ValueError(
                f"inconsistent adjoints at step {i}: sigma = 0 and gamma = 0 "
                "but the integrands are nonzero"
            )
        jump_fit[i] = None

    def units(i: int, paths: slice, out: np.ndarray) -> np.ndarray:
        if i not in jump_fit:
            held = np.multiply(spot[paths, i], s[i], out=out)
            return np.divide(adj.q[paths, i], held, out=out)
        if jump_fit[i] is None:
            out.fill(0.0)
            return out
        ok, weight, den = jump_fit[i]
        # (paths, live marks) temporaries, on these steps only
        num = (adj.r[paths, i, ok] * weight[None, :]).sum(axis=1)
        return np.divide(num, np.multiply(den, spot[paths, i], out=out), out=out)

    return units, float(adj.p[:, 0].mean())


def replicating_portfolio(solution: DualSolution) -> tuple[np.ndarray, float]:
    """Unit-count portfolio replicating -V'(G(T)): q2/(sigma*S), with the
    r2/(gamma*S) branch wherever sigma vanishes; initial value p2(0).

    The steps of :func:`_portfolio_rows` are written over the path ranges
    of :func:`~duallab.market._over_paths` into a time-major array:
    elementwise, so phi is bit-identical for any number of threads.  A
    dual solve replicates from :func:`_portfolio_rows` directly and builds
    no such array.

    Returns (phi as an (n_paths, n_steps) array, initial value).
    """
    units, x0 = _portfolio_rows(solution)
    ensemble = solution.ensemble
    n_steps = ensemble.grid.n_steps
    phi = np.empty((n_steps, ensemble.n_paths))

    def fill(paths: slice) -> None:
        for i in range(n_steps):
            units(i, paths, phi[i, paths])

    _over_paths(fill, ensemble.n_paths)
    return phi.T, x0


def replication_check(
    model: MarketModel,
    phi,
    x0: float,
    target: np.ndarray,
    ensemble: PathEnsemble,
    mu=None,
) -> dict:
    """Terminal error of the Euler-simulated portfolio wealth against the claim.

    ``phi`` is the unit count, an (n_paths, n_steps) array or a function
    ``units(i, paths, out)`` of the step as returned by
    :func:`_portfolio_rows`.  The wealth is streamed: each path range keeps
    two wealth rows, and phi_i is formed as step i is taken
    (:func:`~duallab.market._euler_paths` with ``terminal``), so neither
    phi nor the wealth paths are stored whole.  Pathwise relative errors;
    reports the RMS and the maximum, plus how many (path, step) wealth
    values were non-positive on the way (none, for the scenarios exercised
    here), where :func:`~duallab.market.wealth_paths` would raise.
    """
    grid = ensemble.grid
    spot = ensemble.channel("S")
    if callable(phi):
        units = phi
    else:
        values = np.asarray(phi, dtype=float)

        def units(i, paths, out):
            return values[paths, i]

    def exposure(i, x, paths, out):
        return np.multiply(units(i, paths, out), spot[paths, i], out=out)

    x_t, nonpositive = _euler_paths(ensemble, float(x0), model.drift_on(grid, mu),
                                    model.vol_on(grid), model.jump_sizes_on(grid), exposure,
                                    terminal=True)
    rel = (x_t - target) / target
    return {
        "rmse_rel": float(np.sqrt(np.mean(rel**2))),
        "max_rel": float(np.max(np.abs(rel))),
        "initial_value": float(x0),
        "n_nonpositive": nonpositive,
    }
