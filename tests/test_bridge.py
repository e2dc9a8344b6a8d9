import dataclasses
import math
import types

import numpy as np
import pytest

import duallab as dl
from duallab.bridge import _abs_and_rel
from duallab.bsde import AdjointTriple

from conftest import make_ensemble


def merton_primal(base_model, ens, log_pair, mode="analytic"):
    # the map to the dual reads q1 and r1 path by path: the search keeps them
    return dl.solve_primal_search(base_model, log_pair, 1.0, [1.25], ens,
                                  adjoint_mode=mode, keep="pqr")


def test_primal_to_dual_analytic(base_model, base_ens_5k, log_pair):
    sol = merton_primal(base_model, base_ens_5k, log_pair)
    control, y, report = dl.primal_to_dual(sol)
    assert np.allclose(control.theta0, -0.25, atol=1e-14)
    assert y == pytest.approx(1.0, abs=1e-14)  # p1(0) = U'(x)/1 with x = 1
    assert report.adjoint_mode == "analytic"
    assert report["process_link"]["max_abs"] < 1e-12
    assert report["terminal_link"]["max_abs"] < 1e-12
    assert report["constraint"]["max_abs"] <= 1e-12


@pytest.mark.parametrize("mode", ["analytic", "regression"])
def test_dual_solution_reuses_bridged_density(base_model, base_ens_5k, log_pair, mode):
    sol = merton_primal(base_model, base_ens_5k, log_pair, mode=mode)
    control, _, report = dl.primal_to_dual(sol)
    reused = dl.evaluate_dual_scenario(base_model, log_pair, control, base_ens_5k,
                                       adjoint_mode=mode, density=report.density)
    rebuilt = dl.evaluate_dual_scenario(base_model, log_pair, control, base_ens_5k,
                                        adjoint_mode=mode)
    assert reused.density is report.density
    assert np.array_equal(reused.density, rebuilt.density)
    for name in ("p", "q", "r"):
        assert np.array_equal(getattr(reused.adjoints, name), getattr(rebuilt.adjoints, name))
    assert (reused.value, reused.se) == (rebuilt.value, rebuilt.se)
    assert reused.foc["mean_normalized"] == rebuilt.foc["mean_normalized"]
    assert dl.dual_to_primal(reused)[2].identities == dl.dual_to_primal(rebuilt)[2].identities


def test_dual_hand_off_refuses_density_paths_that_are_not_the_scenarios(base_model, base_ens_5k,
                                                                        log_pair):
    sol = merton_primal(base_model, base_ens_5k, log_pair)
    control, _, report = dl.primal_to_dual(sol)
    density = report.density
    for wrong in (density[:-1], density[:, :-1], density[:, -1]):
        with pytest.raises(ValueError, match="density paths of shape"):
            dl.evaluate_dual_scenario(base_model, log_pair, control, base_ens_5k,
                                      adjoint_mode="analytic", density=wrong)
    # the paths of a scenario with another y
    other = dataclasses.replace(control, y=2.0 * control.y)
    with pytest.raises(ValueError, match="do not start at the scenario's y"):
        dl.evaluate_dual_scenario(base_model, log_pair, other, base_ens_5k,
                                  adjoint_mode="analytic", density=density)


def robust_bridge(base_model, ens, log_pair, quad_penalty, mode="analytic"):
    primal = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0, [0.625], [-0.125],
                                    ens, adjoint_mode=mode, keep="pqr")
    return dl.robust_primal_to_dual(primal)


@pytest.mark.parametrize("mode", ["analytic", "regression"])
def test_bridged_robust_scenario_evaluates_like_the_robust_dual_at_its_mu(
        base_model, base_ens_5k, log_pair, quad_penalty, mode):
    """The robust bridge check evaluates its bridged scenario, with the handed-on
    density, in place of a one-cell robust dual search at the transferred mu."""
    control, mu, y, report = robust_bridge(base_model, base_ens_5k, log_pair, quad_penalty, mode)
    density = report.take_density()
    assert report.density is None
    evaluated = dl.evaluate_dual_scenario(base_model, log_pair, control, base_ens_5k,
                                          adjoint_mode=mode, density=density)
    searched = dl.solve_robust_dual(base_model, log_pair, quad_penalty, y, base_ens_5k, [mu],
                                    adjoint_mode=mode)
    assert evaluated.density is density
    assert np.array_equal(evaluated.density, searched.density)
    # a regression search keeps r2 as its per-step mean only
    kept = ("q", "r") if mode == "analytic" else ("q",)
    for name in ("p_initial", "p_terminal", "q_mean", "r_mean", *kept):
        assert np.array_equal(getattr(evaluated.adjoints, name), getattr(searched.adjoints, name))
    assert evaluated.mu == searched.mu == mu
    # a regression search keeps p2's ends only: its scenario maps back once
    # evaluated with every row
    whole = searched if mode == "analytic" else dl.evaluate_dual_scenario(
        base_model, log_pair, searched.control, base_ens_5k, adjoint_mode=mode)
    assert np.array_equal(evaluated.adjoints.p, whole.adjoints.p)
    assert (dl.robust_dual_to_primal(evaluated)[3].identities
            == dl.robust_dual_to_primal(whole)[3].identities)


def test_blocked_deviation_maxima_match_whole_array_and_keep_nan():
    rng = np.random.default_rng(5)
    # as many paths as two blocks of 2,048 and a partial one
    target = rng.uniform(0.5, 2.0, size=(4_103, 3))
    values = target * (1.0 + rng.normal(0.0, 1e-12, size=target.shape))
    dev = np.abs(values - target)
    assert _abs_and_rel(values, target) == (np.max(dev), np.max(dev / np.abs(target)))
    assert _abs_and_rel(values[:, 0], target[:, 0]) == (np.max(dev[:, 0]),
                                                        np.max(dev[:, 0] / target[:, 0]))
    # time-major, as the solvers store paths: the same maxima
    assert _abs_and_rel(values.T.copy().T, target.T.copy().T) == _abs_and_rel(values, target)
    values[-1, 1] = np.nan  # in the last, partial block
    assert all(math.isnan(m) for m in _abs_and_rel(values, target))
    # a NaN in any one block, of the values or of the target, reaches both maxima
    values[-1, 1] = target[-1, 1]
    for row in range(0, len(target), 1_024):
        for which in (0, 1):
            args = [values.copy(), target.copy()]
            args[which][row, 2] = np.nan
            assert all(math.isnan(m) for m in _abs_and_rel(*args)), (row, which)


def test_primal_to_dual_static_bridge(log_pair):
    flat = dl.MarketModel(drift=0.0, vol=0.2, horizon=1.0)
    ens = make_ensemble(flat, n_paths=1_000, seed=81)
    sol = dl.solve_primal_search(flat, log_pair, 2.0, [0.0], ens, adjoint_mode="analytic")
    control, y, report = dl.primal_to_dual(sol)
    assert np.all(control.theta0 == 0.0)
    assert y == pytest.approx(log_pair.u_prime(2.0), abs=1e-15)
    assert report["process_link"]["max_abs"] < 1e-14


def test_primal_to_dual_regression_tolerance(base_model, base_ens_50k, log_pair):
    # max-pathwise tolerances need the claim-adapted basis: polynomials in the
    # marginal-utility channel put the conditional expectation in the span
    basis = dl.RegressionBasis(degree=1, channels=("F",), transform="raw")
    sol = dl.solve_primal_search(base_model, log_pair, 1.0, [1.25], base_ens_50k,
                                 adjoint_mode="regression", basis=basis, keep="pqr")
    control, y, report = dl.primal_to_dual(sol)
    assert report["process_link"]["max_rel"] < 0.05
    assert report["constraint"]["max_abs"] <= 1e-12


@pytest.mark.parametrize("mu", [None, -0.1])
def test_dual_to_primal_analytic(base_model, base_ens_5k, log_pair, mu):
    # at a perturbation the wealth must live in the market with drift b + mu*sigma
    dual = dl.solve_dual_search(base_model, log_pair, 1.0, base_ens_5k, mu=mu,
                                adjoint_mode="analytic", replicate=False)
    strategy, x0, report = dl.dual_to_primal(dual)
    merton = (0.05 + (mu or 0.0) * 0.2) / 0.2**2
    assert x0 == pytest.approx(1.0, abs=1e-14)
    assert dl.bridged_fraction(dual) == pytest.approx(merton, abs=1e-12)
    # the portfolio carries the same fraction process, so it collapses to the same value
    assert dl.bridged_fraction(strategy) == dl.bridged_fraction(dual)
    assert report["process_link"]["max_rel"] < 1e-12
    assert report["process_link"]["max_abs"] < 1e-12
    assert report["terminal_link"]["max_abs"] < 1e-12


def test_primal_to_dual_at_perturbation(base_model, base_ens_5k, log_pair):
    # the scenario is eliminated in the market the primal solution was solved in
    sol = dl.solve_primal_search(base_model, log_pair, 1.0, [0.75], base_ens_5k, mu=-0.1,
                                 adjoint_mode="analytic")
    control, y, report = dl.primal_to_dual(sol)
    assert report["process_link"]["max_rel"] < 1e-12
    assert report["ratio_residual"]["max_abs"] < 1e-12
    assert control.mu == -0.1 and np.allclose(control.theta0, -0.15, atol=1e-14)


def test_dual_to_primal_constant_claim(log_pair):
    flat = dl.MarketModel(drift=0.0, vol=0.2, horizon=1.0)
    ens = make_ensemble(flat, n_paths=1_000, seed=83)
    dual = dl.solve_dual_search(flat, log_pair, 0.5, ens, adjoint_mode="analytic",
                                replicate=False)
    strategy, x0, report = dl.dual_to_primal(dual)
    assert np.all(np.asarray(strategy.values) == 0.0)
    assert x0 == pytest.approx(2.0, abs=1e-14)  # -V'(y) = 1/y


def test_initial_value_reports_the_spread_of_p0(base_model, base_ens_5k, log_pair):
    # p(0) is F_0-measurable: a triple whose p(0) differs across paths must
    # show the spread around the bridged y (and x), not 0 by construction
    def spread(adj):
        p = adj.p.copy()
        p[::7, 0] *= 1.0 + 1e-3
        return p, AdjointTriple(p, adj.q, adj.r, mode=adj.mode)

    primal = merton_primal(base_model, base_ens_5k, log_pair)
    p, adjoints = spread(primal.adjoints)
    control, y, report = dl.primal_to_dual(dataclasses.replace(primal, adjoints=adjoints))
    assert y == np.mean(p[:, 0])
    assert report["initial_value"]["max_abs"] == np.max(np.abs(p[:, 0] - y)) > 8e-4

    dual = dl.evaluate_dual_scenario(base_model, log_pair, control, base_ens_5k,
                                     adjoint_mode="analytic")
    p, adjoints = spread(dual.adjoints)
    _, x0, report = dl.dual_to_primal(dataclasses.replace(dual, adjoints=adjoints))
    assert x0 == np.mean(p[:, 0])
    assert report["initial_value"]["max_abs"] == np.max(np.abs(p[:, 0] - x0)) > 8e-4


def test_round_trip_recovers_fraction(base_model, base_ens_5k, log_pair):
    primal = merton_primal(base_model, base_ens_5k, log_pair)
    control, y, _ = dl.primal_to_dual(primal)
    dual = dl.evaluate_dual_scenario(base_model, log_pair, control, base_ens_5k,
                                     adjoint_mode="analytic")
    assert dl.bridged_fraction(dual) == pytest.approx(1.25, abs=1e-12)
    _, x0, _ = dl.dual_to_primal(dual)
    assert x0 == pytest.approx(1.0, abs=1e-12)


def test_robust_primal_to_dual(base_model, base_ens_5k, log_pair, quad_penalty):
    sol = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0,
                                 [0.625], [-0.125], base_ens_5k,
                                 adjoint_mode="analytic")
    control, mu, y, report = dl.robust_primal_to_dual(sol)
    assert mu == -0.125
    assert np.allclose(control.theta0, -0.125, atol=1e-14)  # -(b/sigma + mu)
    assert y == pytest.approx(1.0, abs=1e-13)
    assert report["process_link"]["max_abs"] < 1e-12
    assert report["terminal_link"]["max_abs"] < 1e-12
    assert np.max(np.abs(dl.elmm_residual(base_model, base_ens_5k.grid, control))) <= 1e-12


def test_robust_zero_drift_bridge_is_trivial(log_pair, quad_penalty):
    flat = dl.MarketModel(drift=0.0, vol=0.2, horizon=1.0)
    ens = make_ensemble(flat, n_paths=1_000, seed=85)
    sol = dl.solve_robust_saddle(flat, log_pair, quad_penalty, 1.0, [0.0], [0.0], ens,
                                 adjoint_mode="analytic")
    control, mu, y, _ = dl.robust_primal_to_dual(sol)
    assert mu == 0.0 and np.all(control.theta0 == 0.0)


def test_robust_primal_to_dual_regression_tolerance(base_model, base_ens_50k,
                                                    log_pair, quad_penalty):
    basis = dl.RegressionBasis(degree=1, channels=("F",), transform="raw")
    sol = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0,
                                 [0.625], [-0.125], base_ens_50k, basis=basis, keep="pqr")
    control, mu, y, report = dl.robust_primal_to_dual(sol)
    assert report["process_link"]["max_rel"] < 0.05


def test_robust_dual_to_primal(base_model, base_ens_5k, log_pair, quad_penalty):
    dual = dl.solve_robust_dual(base_model, log_pair, quad_penalty, 1.0, base_ens_5k,
                                mu_values=[-0.125], adjoint_mode="analytic")
    strategy, mu, x0, report = dl.robust_dual_to_primal(dual)
    assert mu == -0.125
    assert dl.bridged_fraction(dual) == pytest.approx(0.625, abs=1e-12)
    assert x0 == pytest.approx(1.0, abs=1e-13)
    assert report["process_link"]["max_abs"] < 1e-12


def test_robust_round_trip(base_model, base_ens_5k, log_pair, quad_penalty):
    primal = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0,
                                    [0.625], [-0.125], base_ens_5k,
                                    adjoint_mode="analytic")
    control, mu, y, _ = dl.robust_primal_to_dual(primal)
    dual = dl.solve_robust_dual(base_model, log_pair, quad_penalty, y, base_ens_5k,
                                mu_values=[mu], adjoint_mode="analytic")
    _, mu_back, x_back, _ = dl.robust_dual_to_primal(dual)
    assert mu_back == mu
    assert dl.bridged_fraction(dual) == pytest.approx(0.625, abs=1e-12)
    assert x_back == pytest.approx(1.0, abs=1e-12)


def test_product_identity_exact_updates(base_model, base_ens_5k, log_pair):
    grid = base_ens_5k.grid
    wealth = dl.wealth_paths(base_model, base_ens_5k, dl.Strategy.fraction(1.25), 1.0)
    control = dl.unique_scenario_no_jumps(base_model, grid, 1.0)
    density = dl.density_paths(base_ens_5k, control)
    assert dl.verify_product_identity(wealth, density, 1.0, 1.0) < 1e-12


def test_blocked_product_identity_matches_whole_array_and_keeps_nan():
    rng = np.random.default_rng(11)
    # as many paths as three blocks of 2,048 and a partial one, time-major as
    # the solvers store paths
    n_paths = 6_151
    wealth = rng.uniform(0.5, 2.0, size=(4, n_paths)).T
    density = (1.5 / wealth) * (1.0 + rng.normal(0.0, 1e-12, size=wealth.shape))

    def whole(wealth, density):
        dev = wealth * density
        dev -= 0.75 * 2.0
        return float(np.max(np.abs(dev)))

    assert dl.verify_product_identity(wealth, density, 0.75, 2.0) == whole(wealth, density)
    # the largest deviation in the first block, then in the last, partial one
    for row in (3, n_paths - 2):
        moved = density.copy()
        moved[row, 2] *= 1.0 + 1e-9
        assert dl.verify_product_identity(wealth, moved, 0.75, 2.0) == whole(wealth, moved)
    # a NaN in any block reaches the result
    for row in range(0, n_paths, 1_024):
        broken = wealth.copy()
        broken[row, 1] = np.nan
        assert math.isnan(dl.verify_product_identity(broken, density, 0.75, 2.0))


def test_product_identity_euler_deviation_shrinks_with_steps(base_model):
    devs = []
    for steps in (25, 50, 100, 200):
        ens = make_ensemble(base_model, n_steps=steps, n_paths=4_000, seed=87)
        grid = ens.grid
        control = dl.unique_scenario_no_jumps(base_model, grid, 1.0)
        wealth = dl.wealth_paths(base_model, ens, dl.Strategy.fraction(1.25), 1.0,
                                 scheme="euler")
        density = dl.density_paths(ens, control, scheme="euler")
        devs.append(dl.verify_product_identity(wealth, density, 1.0, 1.0))
    assert devs[-1] < devs[0]
    # the deviation is a quadratic-variation martingale error, so the log-log
    # slope sits near one half rather than the order-one bias rate
    slope = np.polyfit(np.log([25, 50, 100, 200]), np.log(devs), 1)[0]
    assert -1.3 <= slope <= -0.3


def test_bridge_violation_on_bad_jump_ratio(jump_model, log_pair):
    ens = make_ensemble(jump_model, n_paths=500, seed=89)
    wealth = dl.wealth_paths(jump_model, ens, dl.Strategy.fraction(1.0), 1.0)
    bad = AdjointTriple(
        p=np.ones((500, 101)),
        q=np.zeros((500, 100)),
        r=np.full((500, 100, 1), -1.2),  # ratio r/p below -1
        mode="analytic",
    )
    sol = dl.PrimalSolution(
        model=jump_model, ensemble=ens, utility=log_pair, x0=1.0, pi=1.0,
        strategy=dl.Strategy.fraction(1.0), value=0.0, se=0.0,
        pi_values=np.array([1.0]), candidate_values=np.zeros(1),
        candidate_se=np.zeros(1), wealth=wealth, adjoints=bad,
    )
    with pytest.raises(dl.BridgeViolationError):
        dl.primal_to_dual(sol)


@pytest.mark.parametrize("entry", ["dual_to_primal", "robust_dual_to_primal",
                                   "bridged_fraction"])
def test_maps_back_refuse_a_search_that_kept_p2_ends_only(base_model, base_ens_5k, log_pair,
                                                          quad_penalty, entry):
    # a regression search keeps p2(t_0) and p2(T); the map back reads p2 whole
    if entry == "robust_dual_to_primal":
        dual = dl.solve_robust_dual(base_model, log_pair, quad_penalty, 1.0, base_ens_5k,
                                    mu_values=[-0.125])
    else:
        dual = dl.solve_dual_search(base_model, log_pair, 1.0, base_ens_5k, replicate=False)
    with pytest.raises(ValueError, match="evaluate_dual_scenario"):
        getattr(dl, entry)(dual)


@pytest.mark.parametrize("robust", [False, True])
def test_map_to_the_dual_refuses_a_search_that_kept_q1_as_means(base_model, base_ens_5k,
                                                                log_pair, quad_penalty, robust):
    # a regression primal search keeps q1 and r1 as per-step means; the map
    # to the dual reads q1/p1 path by path
    if robust:
        sol = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0, [0.625], [-0.125],
                                     base_ens_5k)
    else:
        sol = dl.solve_primal_search(base_model, log_pair, 1.0, [1.25], base_ens_5k)
    assert sol.adjoints.q_mean.shape == (base_ens_5k.grid.n_steps,)
    with pytest.raises(ValueError, match="'q' in keep"):
        dl.primal_to_dual(sol)


@pytest.mark.parametrize("mean, dev, refused", [(0.5, 1.5e-9, True), (4.0, 3e-9, False),
                                                (4.0, 5e-9, True)])
def test_bridged_fraction_tolerance_scales_with_the_mean_above_one(mean, dev, refused):
    # the tolerance is 1e-9 * max(1, |mean|): 1e-9 at a mean of 0.5 and
    # 4e-9 at a mean of 4, so one entry off by dev is refused or not
    values = np.full((20, 5_000), mean).T
    values[1_234, 5] += dev
    strategy = dl.Strategy.fraction(values)
    if refused:
        with pytest.raises(dl.BridgeViolationError, match="not constant"):
            dl.bridged_fraction(strategy)
    else:
        assert dl.bridged_fraction(strategy) == pytest.approx(mean, abs=1e-13)


@pytest.mark.parametrize("source", ["strategy", "dual"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_bridged_fraction_refuses_a_non_finite_fraction(base_model, source, bad):
    # one non-finite entry makes the mean NaN or inf, and a NaN deviation is
    # not above the tolerance: the scalar came back NaN or inf, and the CLI
    # wrote it into report.json
    n_paths, n_steps = 5_000, 20
    ens = make_ensemble(base_model, n_steps=n_steps, n_paths=n_paths, seed=93)
    q = np.full((n_steps, n_paths), 0.2 * 1.25).T
    q[4_321, 7] = bad
    p = np.ones((n_paths, n_steps + 1))
    dual = types.SimpleNamespace(model=base_model, ensemble=ens,
                                 adjoints=AdjointTriple(p, q, np.zeros((n_paths, n_steps, 0))))
    entry = dl.Strategy.fraction(q / 0.2) if source == "strategy" else dual
    with pytest.raises(dl.BridgeViolationError,
                       match=r"not finite: -?(nan|inf) at path 4321, step 7"):
        dl.bridged_fraction(entry)
    q[4_321, 7] = 0.2 * 1.25
    assert dl.bridged_fraction(dl.Strategy.fraction(q / 0.2) if source == "strategy" else dual) \
        == 1.25


def test_dual_to_primal_rejects_degenerate_vol(log_pair):
    model = dl.MarketModel(
        drift=0.05, vol=lambda t: 0.0 if t < 0.5 else 0.2,
        jump_marks=(0.1,), jump_intensities=(1.0,), horizon=1.0,
    )
    grid = dl.TimeGrid(100, 1.0)
    ens = make_ensemble(model, n_paths=500, seed=91)
    theta_star = (-5.5 + math.sqrt(5.5**2 - 2.0)) / 2.0
    control = dl.scenario_from_theta1(model, grid, np.array([theta_star]), 1.0)
    dual = dl.evaluate_dual_scenario(model, log_pair, control, ens,
                                     adjoint_mode="analytic")
    with pytest.raises(dl.BridgeViolationError, match="sigma"):
        dl.dual_to_primal(dual)
