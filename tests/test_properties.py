"""The paper's identities as properties of hypothesis jump markets.

Each market has time-dependent coefficients, 0-3 marks, and, when it has a
mark, may have sigma vanishing on a sub-interval.  Its drift is chosen so that
a constant fraction pi* is log-optimal, b = pi* sigma^2 - sum_k gamma_k nu_k
((1 + pi* gamma_k)^-1 - 1), which makes the log scenario theta1* = (1 + pi*
gamma)^-1 - 1 satisfy the martingale-measure (ELMM) constraint.  Then:

- every scenario control that a search or a bridge emits satisfies the ELMM
  constraint pointwise, at rounding level;
- in the log case, wealth under pi* and the density of theta1* multiply to
  x*y on every path and step, built directly or through the bridges;
- where sigma > 0 on the grid, the bridge round trips, plain and robust,
  recover pi*, x and mu.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import duallab as dl
from duallab import dual

LOG = dl.make_log_utility()
PENALTY = dl.make_quadratic_penalty()
EPS = np.finfo(float).eps


@st.composite
def jump_markets(draw):
    """(model, ensemble, pi*) for a market in which pi* is log-optimal."""
    marks = draw(st.lists(st.builds(lambda size, sign: sign * size, st.floats(0.01, 0.5),
                                    st.sampled_from([-1.0, 1.0])), max_size=3))
    nu = draw(st.lists(st.floats(0.1, 2.0), min_size=len(marks), max_size=len(marks)))
    # admissible with a margin: 1 + pi* gamma >= 0.2 for every mark
    lo = max([-0.8 / g for g in marks if g > 0], default=-1.0)
    hi = min([-0.8 / g for g in marks if g < 0], default=2.0)
    pi = draw(st.floats(max(lo, -1.0), min(hi, 2.0)))
    s0, s1 = draw(st.floats(0.1, 0.4)), draw(st.floats(-0.08, 0.08))
    flat = draw(st.sampled_from([None, (0.3, 0.6)] if marks else [None]))
    return log_optimal_market(marks, nu, pi, s0, s1, flat, draw(st.integers(5, 20)),
                              draw(st.integers(200, 2_000)), draw(st.integers(0, 2**31 - 1)))


def log_optimal_market(marks, nu, pi, s0, s1, flat, n_steps, n_paths, seed):
    """(model, ensemble, pi) for the market with sigma = s0 + s1 t, zero on
    the interval ``flat`` (None: nowhere), in which pi is log-optimal."""
    gam = np.array(marks)

    def vol(t):
        return 0.0 if flat is not None and flat[0] <= t < flat[1] else s0 + s1 * t

    jump_part = float(np.sum(gam * np.array(nu) * (1.0 / (1.0 + pi * gam) - 1.0)))
    model = dl.MarketModel(drift=lambda t: pi * vol(t) ** 2 - jump_part, vol=vol,
                           jump_marks=tuple(marks), jump_intensities=tuple(nu))
    ens = dl.simulate_drivers(model, dl.TimeGrid(n_steps, 1.0), n_paths, seed)
    return model, ens, pi


def assert_elmm_exact(model, grid, control):
    """|b + mu sigma + sigma theta0 + sum_k gamma_k theta1_k nu_k| within a few
    roundings of the magnitudes of its terms, on every step.  Where sigma
    vanishes, theta1 is projected onto the constraint, a move of order one
    that rounds at the scale of sum_k |gamma_k| nu_k, which the scale adds."""
    b = np.abs(model.drift_on(grid, control.mu))
    scale = b + np.abs(model.vol_on(grid) * control.theta0)
    if model.n_marks:
        gam = np.abs(model.jump_sizes_on(grid))
        scale = scale + (gam * (1.0 + np.abs(control.theta1))) @ model.intensities
    residual = np.abs(dl.elmm_residual(model, grid, control))
    assert np.all(residual <= 8 * EPS * scale), np.max(residual / scale)


def assert_product_identity(wealth, density, x, y):
    # ln X + ln G cancels but for the rounding of two cumulative sums, two
    # exponentials and a product: the gate of the bridge tests, 1e-12, at x*y
    assert dl.verify_product_identity(wealth, density, x, y) <= 1e-12 * x * y


@settings(max_examples=40, deadline=None)
@given(case=jump_markets(), y=st.floats(0.5, 2.0))
def test_every_emitted_scenario_satisfies_the_martingale_constraint(case, y):
    model, ens, pi = case
    grid = ens.grid
    # the log scenario is admissible at every mu; where sigma vanishes, the
    # projection may push another candidate below -1, which excludes it
    theta1 = [1.0 / (1.0 + pi * np.array(model.jump_marks)) - 1.0,
              *(np.full(model.n_marks, t) for t in (-0.4, -0.05, 0.2))]
    mu_values = [-0.1, 0.0, 0.05]
    scenarios, excluded = dual.build_scenarios(model, grid, dual.theta1_candidates(model, theta1),
                                               y, mu_values)
    assert len(excluded) == scenarios.count(None) < len(scenarios)
    for control in scenarios:
        if control is not None:
            assert_elmm_exact(model, grid, control)
    searched = dl.solve_dual_search(model, LOG, y, ens, theta1_values=theta1,
                                    adjoint_mode="analytic", replicate=False)
    assert_elmm_exact(model, grid, searched.control)
    robust = dl.solve_robust_dual(model, LOG, PENALTY, y, ens, mu_values=mu_values,
                                  theta1_values=theta1, adjoint_mode="analytic")
    assert_elmm_exact(model, grid, robust.control)
    primal = dl.solve_primal_search(model, LOG, 1.0, [pi], ens, adjoint_mode="analytic")
    assert_elmm_exact(model, grid, dl.primal_to_dual(primal)[0])
    saddle = dl.solve_robust_saddle(model, LOG, PENALTY, 1.0, [pi], [-0.05], ens,
                                    adjoint_mode="analytic")
    assert_elmm_exact(model, grid, dl.robust_primal_to_dual(saddle)[0])


@settings(max_examples=40, deadline=None)
@given(case=jump_markets(), x=st.floats(0.5, 2.0))
def test_log_wealth_times_density_is_x_times_y(case, x):
    assert_log_product_identity(*case, x)


def test_bridged_product_identity_at_the_admissibility_edge():
    # two marks near -0.406, sigma = 0 on [0.3, 0.6) and pi* at the edge
    # 1 + pi* gamma = 0.2, so theta1* is about 4: the bridged density broke
    # the gate at 2.0e-12 when the per-step means of r1/p1 were summed one
    # path after another, and holds at 5.6e-15 with pairwise sums
    marks = (-0.40625, -0.40564)
    pi = min(-0.8 / g for g in marks)
    assert_log_product_identity(*log_optimal_market(marks, (1.0, 2.0), pi, 0.2, 0.05,
                                                    (0.3, 0.6), 8, 1_936, 1), 1.0)


def assert_log_product_identity(model, ens, pi, x):
    grid = ens.grid
    theta1 = 1.0 / (1.0 + pi * np.array(model.jump_marks)) - 1.0
    wealth = dl.wealth_paths(model, ens, dl.Strategy.fraction(pi), x)
    control = dl.scenario_from_theta1(model, grid, theta1, 1.0 / x)
    assert_product_identity(wealth, dl.density_paths(ens, control), x, 1.0 / x)

    # through the bridges: the primal optimum's adjoints give the scenario,
    # and the dual optimum's give back the portfolio
    primal = dl.solve_primal_search(model, LOG, x, [pi], ens, adjoint_mode="analytic")
    _, y, report = dl.primal_to_dual(primal)
    assert y == pytest.approx(1.0 / x, rel=1e-12)
    assert_product_identity(primal.wealth, report.density, x, y)
    if np.all(model.vol_on(grid) > 0):
        sol = dl.solve_dual_search(model, LOG, y, ens, theta1_values=[theta1],
                                   adjoint_mode="analytic", replicate=False)
        strategy, x0, _ = dl.dual_to_primal(sol)
        assert x0 == pytest.approx(x, rel=1e-12)
        assert_product_identity(dl.wealth_paths(model, ens, strategy, x0), sol.density, x0, y)


@settings(max_examples=40, deadline=None)
@given(case=jump_markets(), x=st.floats(0.5, 2.0), mu=st.sampled_from([-0.1, 0.05]))
def test_bridge_round_trips_recover_the_portfolio_and_the_wealth(case, x, mu):
    # primal -> scenario -> dual -> portfolio, where sigma > 0 on the grid
    # (the bridged fraction q2/(sigma p2) needs it)
    model, ens, pi = case
    grid = ens.grid
    assume(np.all(model.vol_on(grid) > 0))
    primal = dl.solve_primal_search(model, LOG, x, [pi], ens, adjoint_mode="analytic")
    control, y, _ = dl.primal_to_dual(primal)
    back = dl.evaluate_dual_scenario(model, LOG, control, ens, adjoint_mode="analytic")
    strategy, x_back, _ = dl.dual_to_primal(back)
    assert abs(dl.bridged_fraction(strategy) - pi) <= 1e-12
    assert abs(x_back - x) <= 1e-12

    # the robust round trip at a perturbation mu, in the market whose drift
    # b - mu sigma makes pi* log-optimal once perturbed
    shifted = dataclasses.replace(model, drift=lambda t: model.drift(t) - mu * model.vol(t))
    ens = dl.simulate_drivers(shifted, grid, ens.n_paths, ens.seed)
    saddle = dl.solve_robust_saddle(shifted, LOG, PENALTY, x, [pi], [mu], ens,
                                    adjoint_mode="analytic")
    control, mu_dual, y, _ = dl.robust_primal_to_dual(saddle)
    back = dl.evaluate_dual_scenario(shifted, LOG, control, ens, adjoint_mode="analytic")
    strategy, mu_back, x_back, _ = dl.robust_dual_to_primal(back)
    assert mu_dual == mu_back == mu
    assert abs(dl.bridged_fraction(strategy) - pi) <= 1e-12
    assert abs(x_back - x) <= 1e-12
