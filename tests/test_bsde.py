import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import stats

import duallab as dl
import oracles
from duallab.bsde import AdjointTriple
from duallab.dual import dual_adjoints
from duallab.primal import primal_adjoints

from conftest import make_ensemble


def test_constant_terminal_is_represented_exactly(base_model, base_ens_5k):
    terminal = np.full(base_ens_5k.n_paths, 3.25)
    triple = dl.solve_linear_bsde(base_ens_5k, terminal)
    assert np.allclose(triple.p, 3.25, rtol=0, atol=1e-12)
    assert np.allclose(triple.q, 0.0, atol=1e-12)
    assert triple.r.shape[2] == 0


def test_brownian_terminal_has_unit_integrand(base_model, grid100):
    ens = make_ensemble(base_model, n_paths=50_000, seed=31)
    b_total = ens.brownian_increments.sum(axis=1)
    triple = dl.solve_linear_bsde(
        ens, b_total + 5.0, basis=dl.RegressionBasis(degree=1)
    )
    # p(t) tracks 5 + B(t); q is identically one
    b_run = np.cumsum(ens.brownian_increments, axis=1)
    assert np.max(np.abs(triple.p[:, 1:-1] - (5.0 + b_run[:, :-1]))) < 0.1
    # fitted-integrand error, excluding the 1% leverage tails of the state
    # distribution where a linear fit's noise is amplified
    s = ens.channel("S")
    qerr = np.abs(triple.q - 1.0)
    for i in range(0, 100, 7):
        lo, hi = np.quantile(s[:, i], [0.01, 0.99])
        mask = (s[:, i] >= lo) & (s[:, i] <= hi)
        assert qerr[mask, i].max() < 0.05
    assert np.max(np.abs(triple.q.mean(axis=0) - 1.0)) < 0.05


def test_log_optimal_marginal_gives_constant_product(base_model, base_ens_50k, log_pair):
    wealth = dl.wealth_paths(base_model, base_ens_50k, dl.Strategy.fraction(1.25), 1.0)
    triple = dl.solve_linear_bsde(
        base_ens_50k, log_pair.u_prime(wealth[:, -1]), state={"X": wealth}
    )
    product = triple.p * wealth
    dev = np.abs(product / product[:, :1] - 1.0)
    assert np.sqrt(np.mean(dev**2)) < 0.02


def test_zero_driver_matches_martingale_representation(base_model, base_ens_5k):
    # the default driver is none: p(t) = E[terminal | F_t], the martingale representation
    terminal = base_ens_5k.channel("S")[:, -1]
    a = dl.solve_linear_bsde(base_ens_5k, terminal)
    b = dl.solve_linear_bsde(base_ens_5k, terminal, driver=dl.DriverSpec())
    assert np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q)


def test_benchmark_initial_value_and_ratio(base_model, grid100, log_pair):
    # backward solve of the closed-form equation: p2(0) = 1/y, q2/p2 = b/sigma
    ens = make_ensemble(base_model, n_paths=25_000, seed=33)
    control = dl.unique_scenario_no_jumps(base_model, grid100, 1.0)
    density = dl.density_paths(ens, control)
    triple = dl.solve_linear_bsde(
        ens,
        log_pair.inverse_marginal(density[:, -1]),
        driver=dl.DriverSpec(q_coeff=0.25),
        state={"G": density},
    )
    assert abs(triple.p[:, 0].mean() - 1.0) < 0.02
    p_mean = triple.p[:, :-1].mean(axis=0)
    q_mean = triple.q.mean(axis=0)
    ratios = q_mean[10:90] / p_mean[10:90]
    assert np.max(np.abs(ratios - 0.25)) < 0.05


def test_path_doubling_reduces_benchmark_error(base_model, grid100, log_pair):
    errors = {}
    for n in (25_000, 50_000):
        ens = make_ensemble(base_model, n_paths=n, seed=37)
        control = dl.unique_scenario_no_jumps(base_model, grid100, 1.0)
        density = dl.density_paths(ens, control)
        triple = dl.solve_linear_bsde(
            ens,
            log_pair.inverse_marginal(density[:, -1]),
            driver=dl.DriverSpec(q_coeff=0.25),
            state={"G": density},
        )
        errors[n] = abs(triple.p[:, 0].mean() - 1.0)
    assert errors[50_000] <= 1.5 * errors[25_000]


def test_driver_free_means_are_time_constant(base_model, base_ens_50k, log_pair):
    wealth = dl.wealth_paths(base_model, base_ens_50k, dl.Strategy.fraction(1.25), 1.0)
    triple = dl.solve_linear_bsde(
        base_ens_50k, log_pair.u_prime(wealth[:, -1]), state={"X": wealth}
    )
    means = triple.p.mean(axis=0)
    se = triple.p[:, -1].std(ddof=1) / math.sqrt(base_ens_50k.n_paths)
    assert np.max(np.abs(means - means[-1])) <= 3 * se
    # least squares with an intercept preserves the sample mean step by step
    assert np.max(np.abs(means - means[-1])) < 1e-10 * abs(means[-1])


def test_terminal_matched_pathwise(base_model, base_ens_5k):
    terminal = base_ens_5k.channel("S")[:, -1] ** 2
    triple = dl.solve_linear_bsde(base_ens_5k, terminal)
    assert np.array_equal(triple.p[:, -1], terminal)


def test_near_singular_implicit_step_raises(base_model, base_ens_5k):
    terminal = base_ens_5k.channel("S")[:, -1]
    driver = dl.DriverSpec(p_coeff=-100.0)  # 1 + dt*cp = 0 at dt = 0.01
    with pytest.raises(ValueError, match="implicit step"):
        dl.solve_linear_bsde(base_ens_5k, terminal, driver=driver)


def test_rank_deficient_state_is_flagged_and_fits(base_model, base_ens_5k):
    # rank deficiency goes out as data, in the diagnostics, not as a warning
    s = base_ens_5k.channel("S")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        triple = dl.solve_linear_bsde(
            base_ens_5k, s[:, -1], state={"S": s, "S2": s**2}
        )
    assert triple.diagnostics["rank_deficient"]
    assert np.all(np.isfinite(triple.p))


def test_a_state_rank_deficient_at_the_first_step_past_t0_is_flagged(base_ens_5k):
    # two values across the paths at t_1: the degree-2 design has rank 2 of
    # 3 there, which is flagged at every step but t_0, as data and without
    # a warning (kills the mutant ``i > 1 and not constant`` of the sweep's
    # flag)
    s = base_ens_5k.channel("S").copy()
    s[:, 1] = np.where(np.arange(base_ens_5k.n_paths) % 2, 1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        triple = dl.solve_linear_bsde(base_ens_5k, s[:, -1], state={"S": s})
    assert triple.diagnostics["rank_deficient"]
    assert [st["rank"] for st in triple.diagnostics["per_step"]].count(2) == 1


def test_constant_state_is_counted_not_warned(base_ens_5k):
    # a deterministic state has rank 1 by construction at every step
    n_steps = base_ens_5k.grid.n_steps
    x = np.full((base_ens_5k.n_paths, n_steps + 1), 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        triple = dl.solve_linear_bsde(base_ens_5k, x[:, -1], state={"X": x})
    assert triple.diagnostics["constant_state_steps"] == n_steps
    assert not triple.diagnostics["rank_deficient"]
    assert all(step["rank"] == 1 for step in triple.diagnostics["per_step"])
    assert np.allclose(triple.p, 2.0, rtol=0, atol=1e-12)


def test_a_one_path_sweep_carries_its_terminal_value(base_model):
    """On one path the price is deterministic at every step: each step is
    counted as a constant state, not warned about, and p keeps the terminal
    value with q = 0.  Kills the mutant ``zc[0]`` -> ``zc[1]`` of the
    sweep's constant-state flag, which reads a second path."""
    ens = dl.simulate_drivers(base_model, dl.TimeGrid(5, 1.0), 1, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        triple = dl.solve_linear_bsde(ens, np.array([0.7]))
    assert triple.diagnostics["constant_state_steps"] == 5
    assert np.all(triple.p == 0.7) and np.all(triple.q == 0.0)


def test_riskless_primal_counts_constant_state_without_warning(log_pair):
    flat = dl.MarketModel(drift=0.0, vol=0.2, horizon=1.0)
    ens = make_ensemble(flat, n_paths=2_000, seed=55)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = dl.solve_primal_search(flat, log_pair, 1.0, [0.0], ens)
    assert sol.adjoints.diagnostics["constant_state_steps"] == ens.grid.n_steps


def test_state_counts_only_its_constant_steps(base_ens_5k):
    s = base_ens_5k.channel("S")
    triple = dl.solve_linear_bsde(base_ens_5k, s[:, -1])
    # the price is deterministic at t0 only
    assert triple.diagnostics["constant_state_steps"] == 1


@pytest.mark.parametrize("n_marks", [0, 2, 4])
def test_driver_reads_a_per_step_r_coeff_for_every_mark(n_marks):
    """A per-step r_coeff raised a broadcast ValueError at 2 marks, and at 4
    marks, as many as the steps, was read as one value per mark on every
    step.  It is read as the other coefficients are: scalar, callable or
    per step, the same for every mark; an (n_steps, n_marks) array as it is."""
    grid = dl.TimeGrid(4, 1.0)
    per_step = np.repeat(np.arange(4.0)[:, None], n_marks, axis=1)
    for r_coeff in (np.arange(4.0), lambda t: 4.0 * t):
        cr = dl.DriverSpec(r_coeff=r_coeff).on_grid(grid, n_marks)[3]
        assert cr.shape == (4, n_marks) and np.array_equal(cr, per_step)
    assert np.array_equal(dl.DriverSpec(r_coeff=0.5).on_grid(grid, n_marks)[3],
                          np.full((4, n_marks), 0.5))
    table = np.arange(4.0 * n_marks).reshape(4, n_marks)
    assert np.array_equal(dl.DriverSpec(r_coeff=table).on_grid(grid, n_marks)[3], table)


def test_residual_report_exact_triple(base_model, base_ens_5k):
    # p = 5 + B(t), q = 1, r empty satisfies the discrete equation exactly
    b_run = np.concatenate(
        [np.zeros((base_ens_5k.n_paths, 1)),
         np.cumsum(base_ens_5k.brownian_increments, axis=1)], axis=1
    )
    triple = AdjointTriple(
        p=5.0 + b_run,
        q=np.ones((base_ens_5k.n_paths, 100)),
        r=np.zeros((base_ens_5k.n_paths, 100, 0)),
        mode="analytic",
    )
    report = oracles.bsde_residual_report(triple, base_ens_5k)
    assert report["pathwise_max"] < 1e-10
    assert report["max_residual"] < 1e-10


def test_residual_report_solved_triple_within_tolerance(base_model, grid100, log_pair):
    ens = make_ensemble(base_model, n_paths=20_000, seed=41)
    control = dl.unique_scenario_no_jumps(base_model, grid100, 1.0)
    density = dl.density_paths(ens, control)
    driver = dl.DriverSpec(q_coeff=0.25)
    triple = dl.solve_linear_bsde(
        ens, log_pair.inverse_marginal(density[:, -1]), driver=driver, state={"G": density}
    )
    report = oracles.bsde_residual_report(triple, ens, driver=driver, state={"G": density})
    fit_rmse = np.mean([s["fit_rmse"] for s in triple.diagnostics["per_step"]])
    assert report["mean_residual"] <= fit_rmse / report["scale"]
    assert report["mean_residual"] < 0.05


def test_residual_report_detects_corrupted_q(base_model, grid100, log_pair):
    ens = make_ensemble(base_model, n_paths=20_000, seed=41)
    control = dl.unique_scenario_no_jumps(base_model, grid100, 1.0)
    density = dl.density_paths(ens, control)
    driver = dl.DriverSpec(q_coeff=0.25)
    triple = dl.solve_linear_bsde(
        ens, log_pair.inverse_marginal(density[:, -1]), driver=driver, state={"G": density}
    )
    clean = oracles.bsde_residual_report(triple, ens, driver=driver, state={"G": density})
    corrupted = AdjointTriple(p=triple.p, q=triple.q + 1.0, r=triple.r, mode=triple.mode)
    dirty = oracles.bsde_residual_report(corrupted, ens, driver=driver, state={"G": density})
    assert dirty["max_residual"] >= 10 * clean["max_residual"]
    assert dirty["mean_residual"] >= 10 * clean["mean_residual"]
    assert dirty["pathwise_max"] > clean["pathwise_max"]


def test_rejects_non_finite_terminal(base_ens_5k):
    terminal = np.full(base_ens_5k.n_paths, np.nan)
    with pytest.raises(ValueError, match="finite"):
        dl.solve_linear_bsde(base_ens_5k, terminal)


def test_default_basis_sweeps_never_build_the_claim_channel(base_model, base_ens_5k, log_pair):
    # the state channel F, U'(X) or -V'(G), is a thunk evaluated only for a
    # basis that reads it: the marginals see (n_paths,) terminal values only
    shapes = []

    def recording(fn):
        def wrapped(x):
            shapes.append(np.shape(x))
            return fn(x)
        return wrapped

    pair = dataclasses.replace(log_pair, u_prime=recording(log_pair.u_prime),
                               v_prime=recording(log_pair.v_prime))
    wealth = dl.wealth_paths(base_model, base_ens_5k, dl.Strategy.fraction(1.25), 1.0)
    control = dl.unique_scenario_no_jumps(base_model, base_ens_5k.grid, 1.0)
    density = dl.density_paths(base_ens_5k, control)
    claim = dl.RegressionBasis(degree=1, channels=("F",), transform="raw")
    for basis in (None, claim):
        shapes.clear()
        dl.primal.primal_adjoints(base_model, base_ens_5k, pair, wealth, 1.25, None,
                                  "regression", basis)
        dl.dual.dual_adjoints(base_model, base_ens_5k, pair, density, control, "regression",
                              basis)
        terminal = [(base_ens_5k.n_paths,)] * 2
        assert shapes == (terminal if basis is None else
                          [terminal[0], wealth.shape, terminal[1], density.shape])


# the analytic-against-regression comparison: independent draws of a small
# ensemble, and the family-wise probability that an unbiased regression
# fails the gate
ADJOINT_DRAWS = 60
ADJOINT_PATHS = 1_500
ADJOINT_STEPS = 20
ADJOINT_ALPHA = 1e-3
# the claim channel, 1/X or 1/G for log utility, and a constant: the log
# adjoints C(t)/X and c(t)/G lie in its span
CLAIM_BASIS = dl.RegressionBasis(degree=1, channels=("F",), transform="raw")


def _adjoint_pair(model, pair, side, seed):
    """Analytic and regression adjoints on one draw: the dual at jump_dual's
    searched scenario theta1 = -0.15, the primal at the fraction 1, both off
    their optimum, where the closed forms' tail factor is not constant."""
    grid = dl.TimeGrid(ADJOINT_STEPS, model.horizon)
    ens = dl.simulate_drivers(model, grid, ADJOINT_PATHS, seed)
    if side == "dual":
        control = dl.scenario_from_theta1(model, grid, np.full((grid.n_steps, 1), -0.15), 1.0)
        density = dl.density_paths(ens, control)
        return [dual_adjoints(model, ens, pair, density, control, mode, CLAIM_BASIS)
                for mode in ("analytic", "regression")]
    wealth = dl.wealth_paths(model, ens, dl.Strategy.fraction(np.ones(grid.n_steps)), 1.0)
    return [primal_adjoints(model, ens, pair, wealth, 1.0, None, mode, CLAIM_BASIS)
            for mode in ("analytic", "regression")]


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_regression_step_means_agree_with_the_log_closed_form(jump_model, log_pair, side):
    """Per channel and step, the mean over paths of regression minus analytic
    adjoints is zero within its standard error, over independent draws.

    The gate: the gap d of one draw is a mean over 1,500 paths, so close to
    normal, and the draws are independent, so for an unbiased regression
    t = mean(d) / (sd(d) / sqrt(R)) over R draws is Student-t with R - 1
    degrees of freedom.  The standard error is the spread of d across
    draws, not the per-path spread of one draw: the sweep carries the
    coefficient noise of each fit into every earlier step, which the
    per-path error misses (q's spread across draws was up to 1.9 times its
    per-path error at these sizes).  The bound is the t quantile at
    ADJOINT_ALPHA / (2m), Bonferroni over the m (channel, step) pairs, so an
    unbiased regression fails with probability below ADJOINT_ALPHA.

    The regression is unbiased here because the claim basis spans the log
    adjoints; the default basis, polynomials in the log state, does not span
    1/X or 1/G, and its truncation bias grows in t with paths and draws.
    What remains is the time step: the regression estimates the
    discrete-time adjoints, whose q differs from the closed form's
    -theta0 p(t-) by about psi dt, 1% of q at 20 steps on the dual side, or
    0.2 of one draw's spread (0.36 at most over 200 draws, their noise
    included), which moves t by 0.2 sqrt(R) = 1.5 (2.8).  Over eight
    blocks of 60 draws the largest |t| was 3.8, against a bound of 4.7.  A
    dual tail factor of the wrong sign, 1% off at t = 0, reads 6.5 in p,
    and r fitted 10% low reads 6.5-8.0.
    """
    gaps = {"p": [], "q": [], "r": []}
    for draw in range(ADJOINT_DRAWS):
        analytic, regression = _adjoint_pair(jump_model, log_pair, side, 4_000 + draw)
        # the terminal values are the same claim on both sides
        np.testing.assert_allclose(regression.p[:, -1], analytic.p[:, -1], rtol=1e-15)
        for name, gap in gaps.items():
            diff = getattr(regression, name) - getattr(analytic, name)
            gap.append(diff[:, :-1].mean(axis=0) if name == "p" else diff.mean(axis=0).ravel())
    gaps = {name: np.array(gap) for name, gap in gaps.items()}
    m = sum(gap.shape[1] for gap in gaps.values())
    bound = stats.t.ppf(1.0 - ADJOINT_ALPHA / (2 * m), ADJOINT_DRAWS - 1)
    for name, gap in gaps.items():
        se = gap.std(axis=0, ddof=1) / math.sqrt(ADJOINT_DRAWS)
        t = gap.mean(axis=0) / se
        assert np.all(np.abs(t) <= bound), (name, np.abs(t).max(), bound)
