import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duallab as dl
from duallab import mc

from conftest import make_ensemble

PI_GRID = np.linspace(0.125, 1.125, 21)
MU_GRID = np.linspace(-0.25, 0.0, 21)

# robust dual optimum of the jump market (b=0.1, sigma=0.2, gamma=0.1, nu=1,
# quadratic penalty): eliminating mu = -(b/sigma + gamma*theta1*nu/sigma)/2
# from the two first-order conditions leaves theta1^2 + 10 theta1 + 1 = 0
RJ_THETA1_STAR = -5.0 + math.sqrt(24.0)
RJ_MU_STAR = -(0.5 + 0.5 * RJ_THETA1_STAR) / 2.0


def test_closed_form_values(base_model, quad_penalty):
    pi, mu = dl.robust_log_closed_form(base_model, quad_penalty)
    assert mu == pytest.approx(-0.125, abs=1e-16)
    assert pi == pytest.approx(0.625, rel=1e-14)

    flat = dl.MarketModel(drift=0.0, vol=0.2, horizon=1.0)
    pi0, mu0 = dl.robust_log_closed_form(flat, quad_penalty)
    assert mu0 == 0.0 and pi0 == 0.0


def test_closed_form_half_ratio_is_exact(base_model, quad_penalty):
    pi, _ = dl.robust_log_closed_form(base_model, quad_penalty)
    merton = dl.merton_log_closed_form(base_model)
    assert pi / merton.values == 0.5


@settings(max_examples=100, deadline=None)
@given(b=st.floats(0.001, 0.5), sigma=st.floats(0.01, 1.0))
def test_half_ratio_exact_for_all_coefficients(b, sigma):
    model = dl.MarketModel(drift=b, vol=sigma, horizon=1.0)
    pi, _ = dl.robust_log_closed_form(model, dl.make_quadratic_penalty())
    merton = dl.merton_log_closed_form(model)
    assert pi / merton.values == 0.5


@pytest.mark.parametrize("scale, saddle", [(0.25, (0.25, -0.2)), (4.0, (1.0, -0.05))])
def test_closed_form_away_from_unit_penalty_scale_is_the_saddle(base_model, log_pair, scale,
                                                                 saddle):
    """At penalty scales c = 0.25 and 4, in robust_merton's market, the
    closed form gives pi = c b/((1+c) sigma^2) and mu = -b/((1+c) sigma), and
    an analytic saddle search on grids of step 0.05 in pi and 0.005 in mu
    finds that cell as a pure saddle.

    Kills the mutant mu = -c b/((1+c) sigma) in ``robust_log_closed_form``,
    which agrees with the closed form at c = 1, the one scale every other
    check of it uses.
    """
    penalty = dl.make_quadratic_penalty(scale)
    pi_cf, mu_cf = dl.robust_log_closed_form(base_model, penalty)
    assert (pi_cf, mu_cf) == pytest.approx(saddle, abs=1e-15)
    ens = make_ensemble(base_model, n_paths=20_000, seed=101)
    pi_grid = np.round(0.05 * np.arange(31), 10)
    mu_grid = np.round(-0.3 + 0.005 * np.arange(61), 10)
    sol = dl.solve_robust_saddle(base_model, log_pair, penalty, 1.0, pi_grid, mu_grid, ens,
                                 adjoint_mode="analytic")
    assert sol.is_saddle and not sol.grid_edge
    assert (sol.pi, sol.mu) == saddle


def test_closed_form_preconditions(jump_model, base_model, quad_penalty):
    with pytest.raises(ValueError, match="no-jump"):
        dl.robust_log_closed_form(jump_model, quad_penalty)
    fake_penalty = dl.Penalty("linear", lambda x: abs(x), np.sign, np.sign)
    with pytest.raises(ValueError, match="quadratic"):
        dl.robust_log_closed_form(base_model, fake_penalty)


@pytest.mark.parametrize("coefficient", ["drift", "vol"])
def test_closed_form_refuses_a_coefficient_that_depends_on_time(quad_penalty, coefficient):
    # the saddle is explicit only for constant b and sigma
    coefficients = {"drift": 0.1, "vol": 0.2, coefficient: lambda t: 0.1 + 0.1 * t}
    model = dl.MarketModel(horizon=1.0, **coefficients)
    with pytest.raises(ValueError, match=f"constant coefficients; the market's {coefficient} "):
        dl.robust_log_closed_form(model, quad_penalty)


def test_saddle_refuses_an_all_inadmissible_grid_like_the_primal_search(log_pair, quad_penalty):
    """Every fraction of 2.5..3.0 has 1 + pi*gamma <= 0 at a mark of -0.5.
    The saddle evaluated nothing, picked the cell (2.5, 0.0) and failed in
    the forward fill with an AdmissibilityError; both searches evaluate the
    grid through one function and refuse it with one ValueError."""
    model = dl.MarketModel(drift=0.05, vol=0.2, jump_marks=(-0.5,), jump_intensities=(1.0,),
                           horizon=1.0)
    ens = make_ensemble(model, n_steps=10, n_paths=500, seed=61)
    pi_grid = np.linspace(2.5, 3.0, 3)
    with pytest.raises(ValueError, match="^all candidates inadmissible$"):
        dl.solve_primal_search(model, log_pair, 1.0, pi_grid, ens)
    with pytest.raises(ValueError, match="^all candidates inadmissible$"):
        dl.solve_robust_saddle(model, log_pair, quad_penalty, 1.0, pi_grid, MU_GRID, ens)
    # a search that selects nothing refuses too
    with pytest.raises(ValueError, match="^all cells inadmissible$"):
        mc.grid_search((2,), None, np.zeros(2, bool), np.ones((500, 1)), 500, what="cells")


def test_saddle_search_finds_closed_form_point(base_model, base_ens_50k, log_pair,
                                               quad_penalty):
    sol = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0,
                                 PI_GRID, MU_GRID, base_ens_50k)
    assert sol.is_saddle and sol.gap == 0.0
    assert sol.pi == 0.625 and sol.mu == -0.125


def test_saddle_inequalities_hold_on_matrix(base_model, base_ens_50k, log_pair,
                                            quad_penalty):
    sol = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0,
                                 PI_GRID, MU_GRID, base_ens_50k)
    jp = int(np.flatnonzero(sol.pi_values == sol.pi)[0])
    jm = int(np.flatnonzero(sol.mu_values == sol.mu)[0])
    tol = 3 * np.max(sol.payoff_se)
    # the adversary cannot do better than mu_hat, the investor than pi_hat
    assert np.all(sol.payoff[jp, :] >= sol.payoff[jp, jm] - tol - 1e-12)
    assert np.all(sol.payoff[:, jm] <= sol.payoff[jp, jm] + tol + 1e-12)


def test_large_penalty_recovers_plain_merton(base_model, base_ens_50k, log_pair):
    heavy = dl.make_quadratic_penalty(scale=1e6)
    pi_grid = np.round(np.arange(0.0, 1.51, 0.125), 10)
    mu_grid = np.round(np.arange(-0.25, 0.001, 0.03125), 10)
    sol = dl.solve_robust_saddle(base_model, log_pair, heavy, 1.0,
                                 pi_grid, mu_grid, base_ens_50k)
    assert sol.mu == 0.0
    assert sol.pi == 1.25


def test_zero_drift_saddle_is_trivial(log_pair, quad_penalty):
    flat = dl.MarketModel(drift=0.0, vol=0.2, horizon=1.0)
    ens = make_ensemble(flat, n_paths=5_000, seed=71)
    sol = dl.solve_robust_saddle(flat, log_pair, quad_penalty, 1.0,
                                 np.linspace(-0.5, 0.5, 11), np.linspace(-0.2, 0.2, 11),
                                 ens)
    assert sol.pi == 0.0 and sol.mu == 0.0
    assert sol.value == pytest.approx(log_pair.u(1.0), abs=1e-12)


def test_penalty_weight_monotonicity(base_model, base_ens_5k, log_pair):
    mus = []
    for scale in (0.5, 1.0, 2.0, 10.0):
        pen = dl.make_quadratic_penalty(scale)
        sol = dl.solve_robust_saddle(base_model, log_pair, pen, 1.0,
                                     np.linspace(0.0, 1.5, 25),
                                     np.linspace(-0.25, 0.0, 51), base_ens_5k)
        mus.append(abs(sol.mu))
    assert all(a >= b - 1e-12 for a, b in zip(mus, mus[1:]))


def test_robust_primal_foc_at_saddle_and_off(base_model, base_ens_50k, log_pair,
                                             quad_penalty):
    sol = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0,
                                 [0.625], [-0.125], base_ens_50k)
    assert sol.foc["drift_mean_normalized"] < 0.1
    assert sol.foc["penalty_mean_normalized"] < 0.1

    # mu forced to zero with the robust-optimal portfolio: the penalty
    # condition rho'(0) + phi*S*sigma*p1 = phi*S*sigma*p1 is order one
    off = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0,
                                 [0.625], [0.0], base_ens_50k)
    assert off.foc["penalty_mean_normalized"] >= 3 * sol.foc["penalty_mean_normalized"]
    assert off.foc["penalty_mean_normalized"] > 0.5


def test_robust_primal_foc_zero_drift(log_pair, quad_penalty):
    flat = dl.MarketModel(drift=0.0, vol=0.2, horizon=1.0)
    ens = make_ensemble(flat, n_paths=10_000, seed=73)
    sol = dl.solve_robust_saddle(flat, log_pair, quad_penalty, 1.0, [0.0], [0.0], ens)
    assert np.max(np.abs(sol.foc["drift_raw"])) < 1e-10
    assert np.max(np.abs(sol.foc["penalty_raw"])) < 1e-10


@pytest.mark.parametrize("mode", ["analytic", "regression"])
def test_subnormal_foc_scale_leaves_residual_unnormalized(base_model, log_pair, quad_penalty,
                                                          mode):
    # a fraction of 1e-310 makes the penalty residual's scale subnormal:
    # dividing by it overflowed with a RuntimeWarning
    ens = make_ensemble(base_model, n_steps=20, n_paths=500, seed=3)
    sol = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0, [1e-310], [-0.05],
                                 ens, adjoint_mode=mode)
    assert 0.0 < sol.foc["penalty_scale"] < np.finfo(float).tiny
    raw = np.abs(sol.foc["penalty_raw"][mc.interior_window(20)])
    assert sol.foc["penalty_max_normalized"] == np.max(raw)
    assert np.isfinite(sol.foc["penalty_mean_normalized"])


def test_robust_dual_analytic_penalty_foc_is_exact(base_model, base_ens_50k, log_pair,
                                                   quad_penalty):
    sol = dl.solve_robust_dual(base_model, log_pair, quad_penalty, 1.0, base_ens_50k,
                               mu_values=[-0.125], adjoint_mode="analytic")
    # q2 = (b/sigma + mu)/G makes rho'(mu) + G q2 cancel identically
    assert np.max(np.abs(sol.foc["penalty_raw"])) < 1e-13


def test_robust_dual_regression_foc(base_model, base_ens_50k, log_pair, quad_penalty):
    sol = dl.solve_robust_dual(base_model, log_pair, quad_penalty, 1.0, base_ens_50k,
                               mu_values=MU_GRID, adjoint_mode="regression")
    assert sol.mu == -0.125
    assert sol.foc["penalty_mean_normalized"] < 0.1
    assert sol.foc["jump_raw"].size == 0  # vacuous without marks

    off = dl.solve_robust_dual(base_model, log_pair, quad_penalty, 1.0, base_ens_50k,
                               mu_values=[0.0], adjoint_mode="regression")
    assert off.foc["penalty_mean_normalized"] >= 3 * sol.foc["penalty_mean_normalized"]


def test_robust_dual_jump_foc(jump_model, jump_ens_50k, log_pair, quad_penalty):
    mu_grid = np.round(np.arange(-0.30, -0.149, 0.0025), 10)
    th_grid = np.round(np.arange(-0.16, -0.039, 0.0025), 10)
    sol = dl.solve_robust_dual(jump_model, log_pair, quad_penalty, 1.0, jump_ens_50k,
                               mu_values=mu_grid, theta1_values=th_grid)
    assert abs(sol.mu - RJ_MU_STAR) <= 0.0025
    assert abs(sol.control.theta1[0, 0] - RJ_THETA1_STAR) <= 0.0025
    assert sol.foc["jump_mean_normalized"] < 0.1

    off_ctrl = dl.scenario_from_theta1(jump_model, jump_ens_50k.grid,
                                       sol.control.theta1[0] + 0.2, 1.0, mu=sol.mu)
    off = dl.evaluate_dual_scenario(jump_model, log_pair, off_ctrl, jump_ens_50k,
                                    replicate=False)
    assert off.foc["mean_normalized"] >= 3 * sol.foc["jump_mean_normalized"]


def test_mu_from_foc(quad_penalty):
    assert dl.mu_from_foc(quad_penalty, 1.0, 0.125) == pytest.approx(-0.125, abs=1e-16)
    assert dl.mu_from_foc(quad_penalty, 3.7, 0.0) == 0.0


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(0.1, 100.0), gq=st.floats(-2.0, 2.0))
def test_mu_from_foc_penalty_scaling(scale, gq):
    base = dl.mu_from_foc(dl.make_quadratic_penalty(1.0), 1.0, gq)
    scaled = dl.mu_from_foc(dl.make_quadratic_penalty(scale), 1.0, gq)
    assert scaled == pytest.approx(base / scale, rel=1e-12, abs=1e-15)


def test_closed_form_product_identity(base_model, base_ens_5k, log_pair, quad_penalty):
    # wealth at the robust optimum times the perturbed density is constant
    pi, mu = dl.robust_log_closed_form(base_model, quad_penalty)
    grid = base_ens_5k.grid
    wealth = dl.wealth_paths(base_model, base_ens_5k, dl.Strategy.fraction(pi), 1.0, mu=mu)
    control = dl.scenario_from_theta1(base_model, grid, np.zeros(0), 1.0, mu=mu)
    density = dl.density_paths(base_ens_5k, control)
    assert dl.verify_product_identity(wealth, density, 1.0, 1.0) < 1e-12
    # the dual adjoint is the reciprocal density, pathwise
    sol = dl.solve_robust_dual(base_model, log_pair, quad_penalty, 1.0, base_ens_5k,
                               mu_values=[mu], adjoint_mode="analytic")
    assert np.max(np.abs(sol.adjoints.p * sol.density - 1.0)) < 1e-12
