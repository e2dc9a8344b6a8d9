"""Dual scenario problem over martingale-measure densities, and replication.

Scenario controls are parameterized by the jump ratios theta1; the Brownian
ratio theta0 is then eliminated exactly through the linear martingale-measure
constraint, so every emitted control satisfies it pointwise.  The optimal
scenario's claim -V'(G(T)) is replicated by holding q2/sigma in the stock,
with the jump-branch fit from r2 wherever sigma vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import AdjointTriple, DriverSpec, RegressionBasis, log_adjoints, solve_adjoints
from .market import (
    THETA1_FLOOR,
    MarketModel,
    PathEnsemble,
    Strategy,
    TimeGrid,
    _euler_paths,
    _exposure,
    _over_paths,
    density_paths,
    terminal_log_density,
    vanishing_vol,
)
from .mc import grid_search, interior_summary
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
    is projected onto the constraint hyperplane (nu-weighted least squares
    over the live marks, :class:`~duallab.market.VanishingVol`), theta0 = 0.
    """
    return _eliminate_theta0(model, grid, theta1, y, mu, model.vol_on(grid),
                             model.jump_sizes_on(grid), -model.drift_on(grid, mu),
                             vanishing_vol(model, grid))


def _eliminate_theta0(model, grid, theta1, y, mu, s, gam, rhs, branch) -> ScenarioControl:
    """:func:`scenario_from_theta1` on the grids of sigma, gamma and
    -(b + mu*sigma) and the sigma = 0 ``branch``, built once by the caller."""
    k = model.n_marks
    theta1 = np.broadcast_to(np.asarray(theta1, dtype=float), (grid.n_steps, k)).copy() if k else np.zeros((grid.n_steps, 0))
    nu = model.intensities
    gap = rhs - np.einsum("ik,ik->i", gam, theta1 * nu)
    theta0 = np.zeros(grid.n_steps)
    diffusive = ~branch.steps
    theta0[diffusive] = gap[diffusive] / s[diffusive]
    stuck = np.flatnonzero(branch.frozen & (np.abs(rhs) > 1e-14))
    if stuck.size:
        raise ValueError(f"no martingale measure at step {stuck[0]}: sigma = 0, no jumps, "
                         "drift != 0")
    live = branch.live
    theta1[live] += (gap[:, None] * branch.weight)[live] / np.broadcast_to(nu, live.shape)[live]
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
    s, gam, branch = model.vol_on(grid), model.jump_sizes_on(grid), vanishing_vol(model, grid)
    for mu in mu_values:
        rhs = -model.drift_on(grid, mu)
        for th1 in candidates:
            try:
                scenarios.append(_eliminate_theta0(model, grid, th1, y, mu, s, gam, rhs, branch))
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


def _scenario_search(model: MarketModel, pair: UtilityPair, y: float, ensemble: PathEnsemble,
                     candidates: list, mu_values, size: np.ndarray, offset=0.0,
                     what: str = "scenario candidates"):
    """E[-V(G(T))] + ``offset`` (one per mu) over the C-order grid of drift
    perturbations ``mu_values`` by jump ratios ``candidates`` (:func:`build_scenarios`),
    ties going to the smallest ``size``: the best scenario and its solution fields."""
    shape = (len(mu_values), len(candidates))
    scenarios, excluded = build_scenarios(model, ensemble.grid, candidates, y, mu_values)
    design = ensemble.terminal_design()
    search = grid_search(shape, scenario_samples(ensemble, pair, scenarios, design),
                         np.array([c is not None for c in scenarios]), design, ensemble.n_paths,
                         offset=np.repeat(offset, shape[1]), size=size, what=what)
    return scenarios[search.best], {"theta1_values": [np.asarray(c).tolist() for c in candidates],
                                    "excluded": excluded, **search.fields()}


def unique_scenario_no_jumps(model: MarketModel, grid: TimeGrid, y: float) -> ScenarioControl:
    """The single admissible scenario theta0 = -b/sigma of a no-jump market."""
    if model.n_marks:
        raise ValueError("market has jumps; the scenario family is not a singleton")
    if np.any(vanishing_vol(model, grid).steps):
        raise ValueError("sigma vanishes on the grid")
    ratio = model.drift_on(grid) / model.vol_on(grid)
    if not np.all(np.isfinite(ratio)):
        raise ValueError("b/sigma unbounded on the grid")
    return ScenarioControl(theta0=-ratio, theta1=np.zeros((grid.n_steps, 0)), y=float(y))


def dual_driver(model: MarketModel, grid: TimeGrid, mu=None) -> DriverSpec:
    """dt-term of the dual adjoint equation: (b + mu*sigma)/sigma times q.

    On steps where sigma vanishes the same exposure is carried by the jump
    integrands: the coefficient of r_k is b*w_k over the live marks
    (:func:`~duallab.market.vanishing_vol`), b times the exposure fitted from r.
    """
    b = model.drift_on(grid, mu)
    branch = vanishing_vol(model, grid)
    degenerate = branch.steps
    q_coeff = np.where(degenerate, 0.0, b / np.where(degenerate, 1.0, model.vol_on(grid)))
    r_coeff = np.where(branch.live, b[:, None] * branch.weight, 0.0)
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
    k = model.n_marks
    theta0 = np.broadcast_to(np.asarray(control.theta0, dtype=float), (grid.n_steps,))
    theta1 = np.asarray(control.theta1, dtype=float).reshape(grid.n_steps, k)
    nu = model.intensities
    jump_gain = 1.0 / (1.0 + theta1) - 1.0
    # drift rate of 1/G as a stochastic exponential
    a = theta0**2 + theta1 @ nu + jump_gain @ nu
    # dt-term of the adjoint equation per unit p2: the driver's coefficients
    # applied to q2/p2 = -theta0 and r2/p2 = jump_gain
    driver = dual_driver(model, grid, mu=control.mu)
    psi = -theta0 * driver.q_coeff + np.sum(driver.r_coeff * jump_gain, axis=1)
    # p2 = c/G drifts at (c'/c + a)*p2, which the equation sets to psi*p2:
    # c(t) = exp(int_t^T (a - psi) ds)
    return log_adjoints(grid, a - psi, density, -theta0, jump_gain, "log-dual")


def dual_adjoints(
    model: MarketModel,
    ensemble: PathEnsemble,
    pair: UtilityPair,
    density: np.ndarray,
    control: ScenarioControl,
    mode: str,
    basis: RegressionBasis | None,
    keep: str = "pqr",
) -> AdjointTriple:
    """Dual adjoints (p2, q2, r2) of a scenario, in the market with drift
    b + control.mu*sigma: the log closed form (analytic mode; its rows are
    formed on demand from the density, :class:`~duallab.bsde.ClosedFormAdjoints`)
    or the backward solve with terminal value -V'(G(T)), which keeps whole
    the channels in ``keep`` (:func:`~duallab.bsde.solve_adjoints`).  p2
    is the optimal wealth of the primal problem.
    """
    return solve_adjoints(ensemble, mode, pair.name,
                          lambda: analytic_log_dual_adjoints(model, ensemble, density, control),
                          pair.inverse_marginal, "G", density, basis, keep,
                          driver=dual_driver(model, ensemble.grid, mu=control.mu))


def _dual_solution(model: MarketModel, ensemble: PathEnsemble, pair: UtilityPair,
                   control: ScenarioControl, adjoint_mode: str, basis: RegressionBasis | None,
                   replicate: bool, foc=None, density: np.ndarray | None = None,
                   keep: str = "pqr", **fields) -> DualSolution:
    """Solution at a chosen scenario: density, adjoints, first-order residuals
    (``foc(solution)``, by default :func:`dual_foc_residual`) and, optionally,
    the replication check.  ``density`` is the scenario's density paths when
    the caller has built them already; swept adjoints keep whole the
    channels in ``keep`` (:func:`dual_adjoints`).  ``fields`` carry the
    search results."""
    if density is None:
        density = density_paths(ensemble, control)
    solution = DualSolution(
        model=model,
        ensemble=ensemble,
        pair=pair,
        y=control.y,
        control=control,
        density=density,
        adjoints=dual_adjoints(model, ensemble, pair, density, control, adjoint_mode, basis,
                               keep),
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
    basis: RegressionBasis | None = None,
    replicate: bool = True,
) -> DualSolution:
    """Maximize E[-V(G(T))] over a family of constant-per-mark jump ratios.

    theta0 is eliminated exactly per candidate, so the constraint residual is
    zero pointwise for every scenario evaluated.  In a no-jump market the
    family collapses to the unique scenario.  Regression adjoints keep what a
    search reads: p2 at p2(t_0) and p2(T) only, q2 whole where it
    replicates, and r2 whole only where the replication reads it, at a step
    with vanishing sigma (:func:`_portfolio_rows`); q2 and r2 are otherwise
    kept as per-step means, all the first-order residual reads.
    :func:`evaluate_dual_scenario` at the solution's control keeps every
    channel, for a map back to the primal.
    """
    candidates = theta1_candidates(model, theta1_values)
    control, fields = _scenario_search(model, pair, y, ensemble, candidates, [mu],
                                       np.array([float(np.linalg.norm(c)) for c in candidates]))
    reads_r2 = replicate and np.any(vanishing_vol(model, ensemble.grid).steps)
    return _dual_solution(model, ensemble, pair, control, adjoint_mode, basis, replicate,
                          keep=("qr" if reads_r2 else "q") if replicate else "", **fields)


def evaluate_dual_scenario(
    model: MarketModel,
    pair: UtilityPair,
    control: ScenarioControl,
    ensemble: PathEnsemble,
    adjoint_mode: str = "regression",
    basis: RegressionBasis | None = None,
    replicate: bool = False,
    density: np.ndarray | None = None,
) -> DualSolution:
    """Dual solution object for one given scenario (no search).

    Used by the bridge round trips, which hand back a fully determined
    scenario rather than a candidate family; regression adjoints keep every
    channel whole, as the map back reads p2 and q2 path by path, and the
    closed form forms their rows on demand.  ``density`` may pass the
    scenario's paths, ``density_paths(ensemble, control)``, when they are
    built already (a primal-to-dual report keeps them); they are not rebuilt.
    ValueError if their shape is not (n_paths, n_steps+1) or G(0) is not
    ``control.y`` on every path.
    """
    if density is not None:
        shape = (ensemble.n_paths, ensemble.grid.n_steps + 1)
        if np.shape(density) != shape:
            raise ValueError(f"density paths of shape {np.shape(density)}; the ensemble's "
                             f"are (n_paths, n_steps+1) = {shape}")
        if not np.all(density[:, 0] == control.y):
            raise ValueError(f"density paths do not start at the scenario's y = {control.y!r} "
                             "on every path")
    design = ensemble.terminal_design()
    search = grid_search((1,), scenario_samples(ensemble, pair, [control], design),
                         np.ones(1, bool), design, ensemble.n_paths)
    return _dual_solution(
        model, ensemble, pair, control, adjoint_mode, basis, replicate, density=density,
        theta1_values=[np.asarray(control.theta1[0]).tolist()] if model.n_marks else [[]],
        **search.fields(0),
    )


def dual_foc_residual(solution: DualSolution) -> dict:
    """Residual of -q2*gamma/sigma + r2 = 0 per (time, mark), from the adjoints.

    Vacuous (empty array) in a no-jump market.  Steps with vanishing sigma are
    excluded; there the exposure identity is enforced through the replication
    branch instead.  Normalized by the mean magnitude of r2.
    """
    model, ensemble = solution.model, solution.ensemble
    grid = ensemble.grid
    s, gam = model.vol_on(grid), model.jump_sizes_on(grid)
    live = ~vanishing_vol(model, grid).steps
    q_mean, r_mean = solution.adjoints.q_mean, solution.adjoints.r_mean
    raw = np.zeros((grid.n_steps, model.n_marks))
    raw[live] = -(q_mean[live] / s[live])[:, None] * gam[live] + r_mean[live]
    return interior_summary(raw, r_mean[live], mask=live)


def _portfolio_rows(solution: DualSolution):
    """The portfolio replicating -V'(G(T)), one step at a time: a function
    ``exposure(i, x, paths, out)`` that writes phi_i*S(t_i), the amount held
    in the stock over step ``i``, on the path range ``paths`` into the row
    ``out`` and returns it, whatever the wealth ``x`` (the exposure of
    :func:`~duallab.market._euler_paths`); and the initial value p2(0).

    The amount is q2/sigma; where sigma vanishes, the nu-weighted least
    squares of r2_k = phi*S*gamma_k over the live marks, sum_live w_k r2_k
    (:func:`~duallab.market.vanishing_vol`), or zero where no mark is live.
    No price is read, and each value is formed by the same operations on any
    path range.  The integrands are read one step row at a time.
    Every step with vanishing sigma is checked here, before any step is
    taken: with no live mark there, nonzero integrands raise ValueError.
    """
    model, ensemble = solution.model, solution.ensemble
    adj = solution.adjoints
    s = model.vol_on(ensemble.grid)
    branch = vanishing_vol(model, ensemble.grid)
    scale = float(np.mean(np.abs(adj.p_terminal)))
    frozen = branch.frozen
    for i in np.flatnonzero(frozen):
        q_size = float(np.max(np.abs(adj.rows("q", i))))
        r_size = float(np.max(np.abs(adj.rows("r", i)))) if model.n_marks else 0.0
        if max(q_size, r_size) > 1e-6 * scale:
            raise ValueError(
                f"inconsistent adjoints at step {i}: sigma = 0 and no mark can jump, "
                "but the integrands are nonzero"
            )

    def exposure(i: int, x, paths: slice, out: np.ndarray) -> np.ndarray:
        if not branch.steps[i]:
            return np.divide(adj.rows("q", i, paths), s[i], out=out)
        if frozen[i]:
            out.fill(0.0)
            return out
        live = branch.live[i]
        # a (live marks, paths) temporary, on these steps only
        return np.sum(adj.rows("r", i, paths)[live] * branch.weight[i, live][:, None], axis=0,
                      out=out)

    return exposure, float(adj.p_initial.mean())


def replicating_portfolio(solution: DualSolution) -> tuple[np.ndarray, float]:
    """Unit-count portfolio replicating -V'(G(T)): the amount held in the
    stock (:func:`_portfolio_rows`) divided by the price S; initial value p2(0).

    The steps are written over the path ranges of
    :func:`~duallab.market._over_paths` into a time-major array:
    elementwise, so phi is bit-identical for any number of threads.  This is
    the one replication path that reads S; a dual solve replicates from the
    amounts directly and builds neither S nor such an array.

    Returns (phi as an (n_paths, n_steps) array, initial value).
    """
    exposure, x0 = _portfolio_rows(solution)
    ensemble = solution.ensemble
    spot = ensemble.channel("S")
    n_steps = ensemble.grid.n_steps
    phi = np.empty((n_steps, ensemble.n_paths))

    def fill(paths: slice) -> None:
        for i in range(n_steps):
            row = exposure(i, None, paths, phi[i, paths])
            np.divide(row, spot[paths, i], out=row)

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

    ``phi`` is the unit count, an (n_paths, n_steps) array multiplied by the
    price S as a unit-count strategy is (:func:`~duallab.market._exposure`),
    or the function ``exposure(i, x, paths, out)`` of
    :func:`_portfolio_rows`, the amount held in the stock, which is the
    Euler exposure itself and reads no price.  The wealth is streamed: each
    path range keeps two wealth rows, and the exposure over step i is formed
    as that step is taken (:func:`~duallab.market._euler_paths` with
    ``terminal``), so neither the portfolio nor the wealth paths are stored
    whole.  Pathwise relative errors; reports the RMS and the maximum, plus
    how many (path, step) wealth values were non-positive on the way, the
    Euler loop's per-step counts summed (none, for the scenarios exercised
    here), where :func:`~duallab.market.wealth_paths` would raise.
    """
    grid = ensemble.grid
    exposure = phi if callable(phi) else _exposure(ensemble, Strategy.units(phi))
    x_t, nonpositive = _euler_paths(ensemble, float(x0), model.drift_on(grid, mu),
                                    model.vol_on(grid), model.jump_sizes_on(grid), exposure,
                                    terminal=True)
    rel = (x_t - target) / target
    return {
        "rmse_rel": float(np.sqrt(np.mean(rel**2))),
        "max_rel": float(np.max(np.abs(rel))),
        "initial_value": float(x0),
        "n_nonpositive": int(nonpositive.sum()),
    }
