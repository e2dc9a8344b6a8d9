import math

import numpy as np
import pytest

import duallab as dl
from duallab import dual
from duallab.bsde import AdjointTriple

from conftest import make_ensemble

# stationary points of the constrained density growth
# g(theta1) = -(b + gamma*theta1*nu)^2/(2 sigma^2) - theta1*nu + nu*log(1+theta1),
# reduced to a quadratic via g'(theta1) = 0:
#   jump market (b=0.1, sigma=0.2):       theta1^2 + 6 theta1 + 1 = 0
#   degenerate live half (b=0.05, 0.2):   theta1^2 + 5.5 theta1 + 0.5 = 0
JUMP_THETA1_STAR = -3.0 + 2.0 * math.sqrt(2.0)
DEGEN_THETA1_STAR = (-5.5 + math.sqrt(5.5**2 - 2.0)) / 2.0


def degenerate_model():
    return dl.MarketModel(
        drift=0.05,
        vol=lambda t: 0.0 if t < 0.5 else 0.2,
        jump_marks=(0.1,),
        jump_intensities=(1.0,),
        horizon=1.0,
    )


def test_unique_scenario_values(base_model, grid100):
    control = dl.unique_scenario_no_jumps(base_model, grid100, 1.0)
    assert np.allclose(control.theta0, -0.25, rtol=0, atol=0)
    assert np.max(np.abs(dl.elmm_residual(base_model, grid100, control))) == 0.0

    flat = dl.MarketModel(drift=0.0, vol=0.2, horizon=1.0)
    z = dl.unique_scenario_no_jumps(flat, grid100, 2.0)
    assert np.all(z.theta0 == 0.0)
    ens = make_ensemble(flat, n_paths=100, seed=61)
    assert np.allclose(dl.density_paths(ens, z), 2.0, atol=0)


def test_unique_scenario_rejects_jump_market(jump_model, grid100):
    with pytest.raises(ValueError, match="jump"):
        dl.unique_scenario_no_jumps(jump_model, grid100, 1.0)


def test_scenario_from_theta1_solves_constraint_exactly(jump_model, grid100):
    control = dl.scenario_from_theta1(jump_model, grid100, np.array([-0.5]), 1.0)
    assert np.allclose(control.theta0, -0.25, rtol=0, atol=1e-16)
    assert np.max(np.abs(dl.elmm_residual(jump_model, grid100, control))) <= 1e-12


def test_no_jump_search_collapses_to_unique_scenario(base_model, base_ens_50k, log_pair):
    sol = dl.solve_dual_search(base_model, log_pair, 1.0, base_ens_50k,
                               adjoint_mode="analytic")
    assert len(sol.theta1_values) == 1
    assert np.allclose(sol.control.theta0, -0.25)
    # E[-V(G(T))] = E[ln G(T)] + 1 = 1 - (b/sigma)^2 T/2 for the log conjugate
    assert sol.value == pytest.approx(1.0 - 0.5 * 0.25**2, abs=1e-12)


def test_doubling_y_shifts_log_value_by_log_two(base_model, base_ens_50k, log_pair):
    v1 = dl.solve_dual_search(base_model, log_pair, 1.0, base_ens_50k,
                              adjoint_mode="analytic", replicate=False).value
    v2 = dl.solve_dual_search(base_model, log_pair, 2.0, base_ens_50k,
                              adjoint_mode="analytic", replicate=False).value
    assert v2 - v1 == pytest.approx(math.log(2.0), abs=1e-12)


def test_jump_search_satisfies_jump_foc_at_argmax(jump_model, jump_ens_50k, log_pair):
    grid_vals = np.round(np.arange(-0.30, 0.001, 0.01), 10)
    sol = dl.solve_dual_search(jump_model, log_pair, 1.0, jump_ens_50k,
                               theta1_values=grid_vals, replicate=False)
    assert abs(sol.control.theta1[0, 0] - JUMP_THETA1_STAR) <= 0.005
    assert sol.foc["mean_normalized"] < 0.1

    off_ctrl = dl.scenario_from_theta1(
        jump_model, jump_ens_50k.grid, sol.control.theta1[0] + 0.2, 1.0
    )
    off = dl.evaluate_dual_scenario(jump_model, log_pair, off_ctrl, jump_ens_50k,
                                    replicate=False)
    assert off.foc["mean_normalized"] >= 3 * sol.foc["mean_normalized"]


def test_jump_foc_vacuous_without_marks(base_model, base_ens_5k, log_pair):
    sol = dl.solve_dual_search(base_model, log_pair, 1.0, base_ens_5k,
                               adjoint_mode="analytic", replicate=False)
    assert sol.foc["raw"].size == 0
    assert sol.foc["max_normalized"] == sol.foc["mean_normalized"] == 0.0
    # no r2 to take a magnitude of: the scale is zero, not a default of one
    # (kills the mutant ``... if r_mean[live].size else 1.0``)
    assert sol.foc["scale"] == 0.0


def test_replicating_portfolio_is_merton_strategy(base_model, base_ens_50k, log_pair):
    sol = dl.solve_dual_search(base_model, log_pair, 1.0, base_ens_50k,
                               adjoint_mode="analytic")
    phi, x0 = dl.replicating_portfolio(sol)
    s = base_ens_50k.channel("S")
    fraction = phi * s[:, :-1] / sol.adjoints.p[:, :-1]
    assert np.allclose(fraction, 1.25, rtol=1e-12)
    assert x0 == pytest.approx(1.0, abs=1e-14)


def test_replication_trivial_constant_claim(base_model, base_ens_5k):
    target = np.full(base_ens_5k.n_paths, 2.0)
    phi = np.zeros((base_ens_5k.n_paths, 100))
    stats = dl.replication_check(base_model, phi, 2.0, target, base_ens_5k)
    assert stats["rmse_rel"] == 0.0 and stats["max_rel"] == 0.0


def test_log_claim_replicates_within_two_percent(base_model, base_ens_50k, log_pair):
    sol = dl.solve_dual_search(base_model, log_pair, 1.0, base_ens_50k,
                               adjoint_mode="regression")
    assert sol.replication["rmse_rel"] < 0.02
    assert sol.replication["n_nonpositive"] == 0


def test_replication_error_grows_with_coarser_steps(base_model, log_pair):
    errors = {}
    for steps in (25, 100):
        ens = make_ensemble(base_model, n_steps=steps, n_paths=20_000, seed=63)
        sol = dl.solve_dual_search(base_model, log_pair, 1.0, ens,
                                   adjoint_mode="analytic")
        errors[steps] = sol.replication["rmse_rel"]
    # quadratic-variation noise dominates: quartering the step count roughly
    # doubles the terminal error (strong order one half)
    assert errors[25] >= 1.6 * errors[100]


def test_degenerate_sigma_pins_theta1_and_replicates(log_pair):
    model = degenerate_model()
    grid = dl.TimeGrid(100, 1.0)
    control = dl.scenario_from_theta1(model, grid, np.array([DEGEN_THETA1_STAR]), 1.0)
    # constraint pins theta1 = -b/(gamma nu) = -0.5 wherever sigma vanishes
    assert np.allclose(control.theta1[:50, 0], -0.5, atol=1e-15)
    assert np.allclose(control.theta1[50:, 0], DEGEN_THETA1_STAR, atol=1e-15)
    assert np.all(control.theta0[:50] == 0.0)
    assert np.max(np.abs(dl.elmm_residual(model, grid, control))) <= 1e-12

    ens = make_ensemble(model, n_paths=50_000, seed=65)
    sol = dl.evaluate_dual_scenario(model, log_pair, control, ens,
                                    adjoint_mode="analytic", replicate=True)
    # the jump branch of the portfolio carries the claim where sigma = 0
    phi, _ = dl.replicating_portfolio(sol)
    assert np.all(phi[:, :50] != 0.0)
    assert sol.replication["rmse_rel"] < 0.02


def test_degenerate_replication_regression_mode(log_pair):
    # solved-mode counterpart of the closed-form branch check: the covariance
    # extraction of the jump integrand carries a 1/(nu*dt) noise factor, so
    # the replication error sits a few percent above the discretization floor
    model = degenerate_model()
    grid = dl.TimeGrid(100, 1.0)
    control = dl.scenario_from_theta1(model, grid, np.array([DEGEN_THETA1_STAR]), 1.0)
    ens = make_ensemble(model, n_paths=100_000, seed=65)
    claim_basis = dl.RegressionBasis(degree=2, channels=("F",), transform="raw")
    sol = dl.evaluate_dual_scenario(model, log_pair, control, ens,
                                    adjoint_mode="regression", basis=claim_basis,
                                    replicate=True)
    assert sol.replication["rmse_rel"] < 0.08


def test_p2_positive_on_solved_cases(base_model, base_ens_50k, jump_model,
                                     jump_ens_50k, log_pair):
    a = dl.solve_dual_search(base_model, log_pair, 1.0, base_ens_50k,
                             adjoint_mode="regression", replicate=False)
    b = dl.solve_dual_search(jump_model, log_pair, 1.0, jump_ens_50k,
                             theta1_values=[JUMP_THETA1_STAR], replicate=False)
    # a search keeps p2's ends only; every row comes from its scenario, evaluated
    for model, ens, sol in ((base_model, base_ens_50k, a), (jump_model, jump_ens_50k, b)):
        whole = dl.evaluate_dual_scenario(model, log_pair, sol.control, ens, replicate=False)
        assert np.all(whole.adjoints.p > 0)


def test_replicating_portfolio_inconsistency_error(log_pair, grid100):
    # frozen market: sigma = 0, no jumps; nonzero integrands are contradictory
    model = dl.MarketModel(drift=0.0, vol=0.0, horizon=1.0)
    ens = make_ensemble(model, n_paths=100, seed=67)
    control = dl.ScenarioControl(theta0=np.zeros(100), theta1=np.zeros((100, 0)), y=1.0)
    density = dl.density_paths(ens, control)
    bad = AdjointTriple(
        p=np.ones((100, 101)),
        q=np.full((100, 100), 0.3),
        r=np.zeros((100, 100, 0)),
        mode="analytic",
    )
    sol = dl.DualSolution(
        model=model, ensemble=ens, pair=log_pair, y=1.0, control=control,
        value=0.0, se=0.0, theta1_values=[[]],
        candidate_values=np.zeros(1), candidate_se=np.zeros(1),
        density=density, adjoints=bad,
    )
    with pytest.raises(ValueError, match="inconsistent"):
        dl.replicating_portfolio(sol)


def _frozen_solution(log_pair, p2, q2):
    """A dual solution in a frozen market (sigma = 0, b = 0, no jumps), where
    the amount held in the stock is zero, with constant adjoints p2 and q2."""
    model = dl.MarketModel(drift=0.0, vol=0.0, horizon=1.0)
    ens = make_ensemble(model, n_steps=10, n_paths=100, seed=67)
    control = dl.ScenarioControl(theta0=np.zeros(10), theta1=np.zeros((10, 0)), y=1.0)
    triple = AdjointTriple(p=np.full((100, 11), p2), q=np.full((100, 10), q2),
                           r=np.zeros((100, 10, 0)))
    return dl.DualSolution(
        model=model, ensemble=ens, pair=log_pair, y=1.0, control=control, value=0.0, se=0.0,
        theta1_values=[[]], candidate_values=np.zeros(1), candidate_se=np.zeros(1),
        density=dl.density_paths(ens, control), adjoints=triple)


def test_frozen_step_tolerance_scales_with_p2(log_pair):
    """Kills ``dual._portfolio_rows``: ``1e-06 * scale`` -> ``1e-06 / scale``.

    Where sigma = 0 and no mark is live, integrands up to 1e-6 of the mean
    |p2(T)| are regression noise, not an inconsistency: at p2 = 1000 the
    tolerance is 1e-3, which 1e-5 is below and 1e-2 above."""
    phi, x0 = dl.replicating_portfolio(_frozen_solution(log_pair, 1000.0, 1e-5))
    assert x0 == 1000.0 and np.all(phi == 0.0)
    with pytest.raises(ValueError, match="inconsistent"):
        dl.replicating_portfolio(_frozen_solution(log_pair, 1000.0, 1e-2))


def test_frozen_step_holds_nothing(log_pair):
    """Kills ``dual._portfolio_rows``: ``out.fill(0.0)`` -> ``out.fill(1.0)``.

    On a sigma = 0 step with no live mark and b = 0 the replicating
    portfolio holds nothing, whatever the row it is written into held."""
    sol = _frozen_solution(log_pair, 1.0, 0.0)
    exposure, x0 = dual._portfolio_rows(sol)
    for i in range(sol.ensemble.grid.n_steps):
        row = np.full(sol.ensemble.n_paths, 7.0)
        assert exposure(i, None, slice(0, sol.ensemble.n_paths), row) is row
        assert np.all(row == 0.0)
    phi, _ = dl.replicating_portfolio(sol)
    assert np.all(phi == 0.0)


def test_mark_of_size_zero_is_not_live():
    """Kills ``dual._jump_branch``: ``gam != 0`` -> ``gam != 1``.

    A mark of size 0 carries no exposure on a sigma = 0 step: it is not
    live, so with b = 0 the scenario keeps its theta1, where weighting it
    would divide 0 by 0."""
    live, weight = dual._jump_branch(np.array([0.0, 0.2, 1.0]), np.array([1.0, 2.0, 0.5]))
    assert live.tolist() == [False, True, True]
    assert weight.tolist() == pytest.approx([0.4 / 0.58, 0.5 / 0.58])
    model = dl.MarketModel(drift=0.0, vol=0.0, jump_marks=(0.0,), jump_intensities=(1.0,),
                           horizon=1.0)
    grid = dl.TimeGrid(5, 1.0)
    control = dl.scenario_from_theta1(model, grid, [0.2], 1.0)
    assert np.all(control.theta0 == 0.0) and np.all(control.theta1 == 0.2)
    driver = dual.dual_driver(model, grid)
    assert np.all(driver.r_coeff == 0.0) and np.all(driver.q_coeff == 0.0)


def test_off_optimum_scenario_replicates_strictly_worse(jump_model, log_pair):
    # replicability of the scenario's claim is equivalent to dual optimality:
    # away from the optimum the jump integrand is inconsistent with the
    # diffusion exposure and the terminal error grows, at the same seed
    ens = make_ensemble(jump_model, n_paths=20_000, seed=75)
    grid = ens.grid
    at_opt = dl.evaluate_dual_scenario(
        jump_model, log_pair,
        dl.scenario_from_theta1(jump_model, grid, np.array([JUMP_THETA1_STAR]), 1.0),
        ens, adjoint_mode="analytic", replicate=True,
    )
    off_opt = dl.evaluate_dual_scenario(
        jump_model, log_pair,
        dl.scenario_from_theta1(jump_model, grid, np.array([JUMP_THETA1_STAR + 0.3]), 1.0),
        ens, adjoint_mode="analytic", replicate=True,
    )
    assert at_opt.replication["rmse_rel"] < 0.02
    assert off_opt.replication["rmse_rel"] > 3 * at_opt.replication["rmse_rel"]


def test_candidates_below_floor_are_excluded(jump_model, log_pair):
    ens = make_ensemble(jump_model, n_paths=2_000, seed=69)
    sol = dl.solve_dual_search(jump_model, log_pair, 1.0, ens,
                               theta1_values=[-1.5, -0.2, 0.0], replicate=False)
    assert len(sol.excluded) == 1
    assert sol.excluded[0]["theta1"] == [-1.5]


def test_sigma_zero_without_a_mark_that_can_jump_has_no_martingale_measure(grid100):
    # gamma != 0 but nu = 0: no jump can carry the drift where sigma vanishes
    model = dl.MarketModel(drift=0.1, vol=0.0, jump_marks=(0.1,), jump_intensities=(0.0,))
    with pytest.raises(ValueError, match="no martingale measure at step 0"):
        dl.scenario_from_theta1(model, grid100, np.array([0.0]), 1.0)
    # nor does the dual driver weight a mark that cannot jump
    assert np.all(dl.dual.dual_driver(model, grid100).r_coeff == 0.0)


def test_jump_branch_driver_is_b_times_the_fitted_exposure(log_pair):
    # sigma = 0 on [0.3, 0.6) with two live marks: the driver's jump terms
    # sum_k r_coeff_k r_k are b times the exposure phi*S that the portfolio
    # fits from the same r, and r is not proportional to gamma here; the
    # exposure is read as the replication holds it, q2/sigma or the fit
    model = dl.MarketModel(drift=0.05, vol=lambda t: 0.0 if 0.3 <= t < 0.6 else 0.2,
                           jump_marks=(0.1, -0.2), jump_intensities=(1.0, 0.5))
    grid = dl.TimeGrid(20, 1.0)
    ens = make_ensemble(model, n_steps=20, n_paths=500, seed=67)
    control = dl.scenario_from_theta1(model, grid, np.array([-0.3, 0.2]), 1.0)
    sol = dl.evaluate_dual_scenario(model, log_pair, control, ens, adjoint_mode="analytic")
    exposure, _ = dl.dual._portfolio_rows(sol)
    r_coeff = dl.dual.dual_driver(model, grid).r_coeff
    b = model.drift_on(grid)
    flat = np.flatnonzero(model.vol_on(grid) == 0.0)
    assert flat.size == 6
    for i in flat:
        r = sol.adjoints.r[:, i]
        assert np.max(np.abs(r[:, 0] / r[:, 1] - model.jump_marks[0] / model.jump_marks[1])) > 0.1
        held = exposure(i, None, slice(0, ens.n_paths), np.empty(ens.n_paths))
        np.testing.assert_allclose(r @ r_coeff[i], b[i] * held, rtol=1e-13, atol=0)


@pytest.mark.parametrize("replicate", [True, False])
def test_regression_dual_search_keeps_r2_where_the_replication_reads_it(log_pair, replicate):
    """A regression dual search keeps r2 whole only when its replication reads
    it, at a step with sigma = 0 (sigma = 0 on [0.3, 0.6) with two live
    marks); otherwise it keeps r2's per-step means.  Its replication and
    first-order residuals are those of the all-channels evaluation of the
    scenario it found, bit for bit."""
    model = dl.MarketModel(drift=0.05, vol=lambda t: 0.0 if 0.3 <= t < 0.6 else 0.2,
                           jump_marks=(0.1, -0.2), jump_intensities=(1.0, 0.5))
    ens = make_ensemble(model, n_steps=20, n_paths=2_000, seed=67)
    sol = dl.solve_dual_search(model, log_pair, 1.0, ens,
                               theta1_values=[[-0.3, 0.2], [-0.2, 0.1], [-0.1, 0.0]],
                               adjoint_mode="regression", replicate=replicate)
    whole = dl.evaluate_dual_scenario(model, log_pair, sol.control, ens,
                                      adjoint_mode="regression", replicate=replicate)
    assert sol.replication == whole.replication
    assert (sol.replication is not None) == replicate
    assert sol.foc.keys() == whole.foc.keys()
    assert all(np.array_equal(sol.foc[key], value) for key, value in whole.foc.items())
    assert np.array_equal(sol.adjoints.r_mean, whole.adjoints.r.mean(axis=0))
    if replicate:
        assert np.array_equal(sol.adjoints.r, whole.adjoints.r)
        assert np.max(np.abs(sol.adjoints.r)) > 0
    else:
        with pytest.raises(ValueError, match="read r_mean"):
            sol.adjoints.r
