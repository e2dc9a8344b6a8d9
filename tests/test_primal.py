import math

import numpy as np
import pytest

import duallab as dl
from duallab.market import terminal_log_wealth
from duallab.mc import cv_mean

from conftest import make_ensemble

PI_GRID = np.round(np.arange(0.0, 2.501, 0.05), 10)


def test_merton_closed_form_values(base_model):
    assert dl.merton_log_closed_form(base_model).values == pytest.approx(1.25)
    flat = dl.MarketModel(drift=0.0, vol=0.2, horizon=1.0)
    assert dl.merton_log_closed_form(flat).values == 0.0
    other = dl.MarketModel(drift=0.08, vol=0.4, horizon=1.0)
    assert dl.merton_log_closed_form(other).values == pytest.approx(0.5)


def test_merton_closed_form_rejects_jumps(jump_model):
    with pytest.raises(ValueError, match="no-jump"):
        dl.merton_log_closed_form(jump_model)


@pytest.mark.parametrize("coefficient", ["drift", "vol"])
def test_merton_closed_form_refuses_a_coefficient_that_depends_on_time(coefficient):
    # b/sigma^2 is the optimal fraction only for constant b and sigma
    coefficients = {"drift": 0.1, "vol": 0.2, coefficient: lambda t: 0.1 + 0.1 * t}
    model = dl.MarketModel(horizon=1.0, **coefficients)
    with pytest.raises(ValueError, match=f"constant coefficients; the market's {coefficient} "):
        dl.merton_log_closed_form(model)


def test_closed_forms_refuse_a_vanishing_volatility(quad_penalty):
    # b/sigma^2 raised ZeroDivisionError: a bridge check at vol 0 exited 1
    flat_vol = dl.MarketModel(drift=0.05, vol=0.0, horizon=1.0)
    for closed_form in (dl.merton_log_closed_form,
                        lambda model: dl.robust_log_closed_form(model, quad_penalty)):
        with pytest.raises(ValueError, match="^closed form requires a nonzero volatility; "
                                             "market.vol is 0.0$"):
            closed_form(flat_vol)


def test_grid_search_selects_merton_fraction(base_model, base_ens_50k, log_pair):
    sol = dl.solve_primal_search(base_model, log_pair, 1.0, PI_GRID, base_ens_50k)
    assert sol.pi == 1.25
    # any feasible candidate dominates the riskless baseline U(x) = 0
    assert sol.value >= log_pair.u(1.0)
    assert sol.excluded == []


def test_grid_search_zero_drift_prefers_riskless(grid100, log_pair):
    flat = dl.MarketModel(drift=0.0, vol=0.2, horizon=1.0)
    ens = make_ensemble(flat, n_paths=5_000, seed=51)
    sol = dl.solve_primal_search(flat, log_pair, 1.0, PI_GRID, ens)
    assert sol.pi == 0.0


def test_candidates_violating_jump_positivity_are_excluded(log_pair, grid100):
    model = dl.MarketModel(drift=0.05, vol=0.2, jump_marks=(-0.5,),
                           jump_intensities=(0.5,), horizon=1.0)
    ens = make_ensemble(model, n_paths=2_000, seed=53)
    sol = dl.solve_primal_search(model, log_pair, 1.0, [0.5, 1.0, 2.5], ens)
    assert [e["pi"] for e in sol.excluded] == [2.5]
    assert sol.pi in (0.5, 1.0)


def test_foc_residual_small_at_optimum_and_grows_off_optimum(
    base_model, base_ens_50k, log_pair
):
    opt = dl.solve_primal_search(base_model, log_pair, 1.0, [1.25], base_ens_50k)
    off = dl.solve_primal_search(base_model, log_pair, 1.0, [2.5], base_ens_50k)
    assert opt.foc["mean_normalized"] < 0.1
    assert off.foc["mean_normalized"] >= 3 * opt.foc["mean_normalized"]


def test_analytic_foc_residual_vanishes_at_the_jump_optimum_only(jump_model, jump_ens_50k,
                                                                  log_pair):
    """In jump_dual's market, the analytic primal FOC residual
    b p1 + sigma q1 + sum_k gamma_k nu_k r1_k is at rounding level at pi*,
    the root of b - pi sigma^2 + gamma nu ((1 + pi gamma)^-1 - 1) = 0, and
    is not one step of the shipped fraction grid away.

    Kills the mutant ``raw = raw - (gam * adj.r.mean(axis=0)) @ ...`` in
    ``primal_foc_residual``, the jump term's sign flipped, which every
    other primal FOC test lets live: they run in no-jump markets.
    """
    b, s = jump_model.drift, jump_model.vol
    g, nu = jump_model.jump_marks[0], jump_model.jump_intensities[0]
    # times (1 + pi gamma): s^2 g pi^2 + B pi - b = 0, whose positive root
    # is taken in the form without cancellation
    big_b = s * s + g * g * nu - b * g
    pi_star = 2.0 * b / (big_b + math.sqrt(big_b * big_b + 4.0 * s * s * g * b))
    assert pi_star == pytest.approx(2.0711, abs=1e-4)
    step = PI_GRID[1] - PI_GRID[0]
    residual = {}
    for pi in (pi_star - step, pi_star, pi_star + step):
        sol = dl.solve_primal_search(jump_model, log_pair, 1.0, [pi], jump_ens_50k,
                                     adjoint_mode="analytic")
        residual[pi] = sol.foc["max_normalized"]
    assert residual[pi_star] < 1e-13
    assert residual[pi_star - step] > 1e-3 and residual[pi_star + step] > 1e-3


def test_foc_residual_is_scale_free_in_initial_wealth(base_model, base_ens_5k, log_pair):
    """For log utility p1 and q1 scale as 1/x, and so does the scale
    mean|b mean(p1)|: the normalized residual is the same at every x.

    Kills the mutant ``b / p_mean`` in the scale of ``primal_foc_residual``,
    which every other test lets live: at x = 1, mean(p1) is close to 1.
    """
    foc = {x: dl.solve_primal_search(base_model, log_pair, x, [2.0], base_ens_5k,
                                     adjoint_mode="analytic").foc for x in (1.0, 4.0)}
    assert foc[4.0]["scale"] == pytest.approx(foc[1.0]["scale"] / 4.0, rel=1e-12)
    for key in ("mean_normalized", "max_normalized"):
        assert foc[4.0][key] == pytest.approx(foc[1.0][key], rel=1e-9)


def test_foc_residual_zero_drift(log_pair):
    flat = dl.MarketModel(drift=0.0, vol=0.2, horizon=1.0)
    ens = make_ensemble(flat, n_paths=20_000, seed=55)
    sol = dl.solve_primal_search(flat, log_pair, 1.0, [0.0], ens)
    # everything vanishes: q1 of a constant terminal is zero and b = 0
    assert np.max(np.abs(sol.foc["raw"])) < 1e-10


def test_hamiltonian_derivative_vanishes_at_optimum(base_model, base_ens_50k, log_pair):
    sol = dl.solve_primal_search(base_model, log_pair, 1.0, [1.25], base_ens_50k)
    check = dl.hamiltonian_derivative_check(sol)
    assert sorted(check) == ["estimate", "se"]
    assert abs(check["estimate"]) <= 3 * check["se"] + 1e-10


@pytest.mark.parametrize("pi", [0.625, 1.25, 2.0])
def test_hamiltonian_derivative_is_the_log_objective_slope(base_model, base_ens_5k, log_pair, pi):
    """E[ln X(T)] = ln x + (pi b - pi^2 sigma^2 / 2) T: the central difference
    of a quadratic is its slope (b - pi sigma^2) T, and the difference of the
    bumped payoffs is affine in B_T, so the control-variate intercept is the
    slope to rounding.

    Kills the mutant ``(u[:, 0] - u[:, 1]) * (bump[0] - bump[1])`` of the
    difference quotient of ``hamiltonian_derivative_check``, which the sign
    tests let live.
    """
    sol = dl.solve_primal_search(base_model, log_pair, 1.0, [pi], base_ens_5k)
    check = dl.hamiltonian_derivative_check(sol)
    deriv, se = check["estimate"], check["se"]
    slope = (base_model.drift - pi * base_model.vol**2) * base_model.horizon
    assert deriv == pytest.approx(slope, rel=1e-9, abs=1e-14)
    assert se < 1e-12


@pytest.mark.parametrize("drift, mark, pi, side", [(60.0, -0.5, 1.98, "backward"),
                                                   (-60.0, 0.5, -1.98, "forward")])
def test_derivative_check_is_one_sided_next_to_an_inadmissible_bump(drift, mark, pi, side):
    """Where pi + BUMP (or pi - BUMP) leaves 1 + pi*gamma > 0, the check
    differences pi against its admissible bump and says which side it took,
    instead of failing a valid search with AdmissibilityError.  The first
    case is the argmax of a drift-60 market at mark -0.5, on the grid 0 to
    2.5 by 0.01; the second its mirror image."""
    model = dl.MarketModel(drift=drift, vol=0.2, jump_marks=(mark,), jump_intensities=(1.0,))
    ens = make_ensemble(model, n_steps=20, n_paths=2_000, seed=1)
    grid = np.round(0.01 * np.arange(251), 12) * np.sign(pi)
    sol = dl.solve_primal_search(model, dl.make_log_utility(), 1.0, grid, ens)
    assert sol.pi == pi
    check = dl.hamiltonian_derivative_check(sol)
    assert check["one_sided"] == side
    bumped = pi - dl.primal.BUMP if side == "backward" else pi + dl.primal.BUMP
    design = ens.terminal_design()
    ln = terminal_log_wealth(model, ens, np.broadcast_to([pi, bumped], (20, 2)), 1.0,
                                design=design)
    ref = cv_mean((ln[:, 0] - ln[:, 1]) / (pi - bumped), design[:, 1:])
    assert (check["estimate"], check["se"]) == pytest.approx(ref, rel=1e-12)
    # the objective still rises toward the admissible edge
    assert check["estimate"] > 0 if side == "backward" else check["estimate"] < 0


def test_hamiltonian_derivative_positive_below_optimum(base_model, base_ens_50k, log_pair):
    sol = dl.solve_primal_search(base_model, log_pair, 1.0, [0.625], base_ens_50k)
    check = dl.hamiltonian_derivative_check(sol)
    assert check["estimate"] > 3 * check["se"]


def test_value_monotone_in_initial_wealth(base_model, base_ens_5k, log_pair):
    values = [
        dl.solve_primal_search(base_model, log_pair, x, PI_GRID, base_ens_5k).value
        for x in (0.5, 1.0, 2.0)
    ]
    assert values[0] < values[1] < values[2]


def test_value_concave_in_fraction(base_model, base_ens_50k, log_pair):
    sol = dl.solve_primal_search(base_model, log_pair, 1.0, PI_GRID, base_ens_50k)
    second = np.diff(sol.candidate_values, n=2)
    se = 3 * np.max(sol.candidate_se)
    assert np.all(second <= 3 * se + 1e-12)


def test_power_utility_argmax_near_closed_form(base_model, grid100):
    # for power utility the optimal constant fraction is b/((1-alpha) sigma^2)
    pair = dl.make_power_utility(0.5)
    ens = make_ensemble(base_model, n_paths=50_000, seed=57)
    grid_pi = np.round(np.arange(0.0, 3.51, 0.25), 10)
    sol = dl.solve_primal_search(base_model, pair, 1.0, grid_pi, ens)
    assert abs(sol.pi - 2.5) <= 0.25


def test_adjoint_martingale_property(base_model, base_ens_50k, log_pair):
    sol = dl.solve_primal_search(base_model, log_pair, 1.0, [1.25], base_ens_50k)
    means = sol.adjoints.p.mean(axis=0)
    se = sol.adjoints.p[:, -1].std(ddof=1) / math.sqrt(base_ens_50k.n_paths)
    assert np.max(np.abs(means - means[-1])) <= 3 * se


def test_analytic_adjoints_match_regression_scale(base_model, base_ens_50k, log_pair):
    ana = dl.solve_primal_search(base_model, log_pair, 1.0, [1.25], base_ens_50k,
                                 adjoint_mode="analytic")
    reg = dl.solve_primal_search(base_model, log_pair, 1.0, [1.25], base_ens_50k,
                                 adjoint_mode="regression")
    assert ana.adjoints.mode == "analytic" and reg.adjoints.mode == "regression"
    # p1 = 1/X at the log optimum
    assert np.allclose(ana.adjoints.p, 1.0 / ana.wealth, rtol=1e-12)
    rel = np.abs(reg.adjoints.p - ana.adjoints.p) / ana.adjoints.p
    assert np.sqrt((rel**2).mean()) < 0.05


def test_analytic_adjoints_require_log_utility(base_model, base_ens_5k):
    pair = dl.make_power_utility(0.5)
    with pytest.raises(ValueError, match="log"):
        dl.solve_primal_search(base_model, pair, 1.0, [1.0], base_ens_5k,
                               adjoint_mode="analytic")
