"""Batched searches, the CholeskyQR2 backward sweep and residual report, the shared
forward kernels and the template CSV writer against the per-candidate /
``lstsq`` / per-process loop / per-row reference forms kept in
``oracles.py``."""

import errno
import math
import multiprocessing
import re
import threading
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import duallab as dl
from duallab import bridge, bsde, market
from duallab.bsde import CHOLQR_MAX_COND, RegressionBasis

import oracles
from conftest import make_ensemble

# the shipped search grids (configs/*.yaml)
MERTON_PI = np.round(0.0 + 0.05 * np.arange(51), 12)
ROBUST_PI = np.linspace(0.125, 1.125, 21)
ROBUST_MU = np.linspace(-0.25, 0.0, 21)
JUMP_THETA1 = np.linspace(-0.6, 0.3, 19)
# largest error, relative to max |.|, of a near-collinear sweep against the
# long-double one: 6.1e-12 was the largest over 1,800 draws (600 seeds at
# eps = 1.2e-3 with and without jumps, and at a uniform eps)
LONG_DOUBLE_GATE = 2e-11


def assert_values_match(new, old, se_new=None, se_old=None):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.array_equal(np.isneginf(new), np.isneginf(old))
    ok = np.isfinite(old)
    assert np.all(np.abs(new[ok] - old[ok]) <= 1e-12 + 1e-12 * np.abs(old[ok]))
    if se_new is not None:
        se_new, se_old = np.asarray(se_new)[ok], np.asarray(se_old)[ok]
        assert np.all(np.abs(se_new - se_old) <= 1e-12 + 1e-9 * np.abs(se_old))


@pytest.fixture(scope="module")
def negative_jump_model():
    # 1 + pi*gamma <= 0 for pi >= 2
    return dl.MarketModel(drift=0.05, vol=0.2, jump_marks=(-0.5,),
                          jump_intensities=(0.5,), horizon=1.0)


@pytest.fixture(scope="module")
def negative_jump_ens(negative_jump_model):
    return make_ensemble(negative_jump_model, n_paths=5_000, seed=91)


# ---------------------------------------------------------------- searches

def test_cv_mean_columns_match_per_column_lstsq(jump_ens_50k):
    rng = np.random.Generator(np.random.Philox(key=5))
    controls = jump_ens_50k.terminal_design()[:, 1:]
    values = controls @ rng.normal(size=(2, 7)) + rng.normal(size=(jump_ens_50k.n_paths, 7))
    est, se = dl.mc.cv_mean(values, controls)
    for c in range(values.shape[1]):
        ref = oracles.cv_mean(values[:, c], controls)
        assert est[c] == pytest.approx(ref[0], rel=1e-12, abs=1e-12)
        assert se[c] == pytest.approx(ref[1], rel=1e-9)
    one = dl.mc.cv_mean(values[:, 0], controls)
    assert isinstance(one[0], float) and one[0] == pytest.approx(est[0], rel=1e-12)


def test_cv_mean_with_one_degree_of_freedom_matches_lstsq():
    # n = 1 + n_controls + 1 paths leave one degree of freedom, the floor of
    # the residual variance's divisor
    rng = np.random.Generator(np.random.Philox(key=7))
    controls = rng.normal(size=(3, 1))
    values = rng.normal(size=(3, 2))
    est, se = dl.mc.cv_mean(values, controls)
    for c in range(values.shape[1]):
        ref = oracles.cv_mean(values[:, c], controls)
        assert est[c] == pytest.approx(ref[0], rel=1e-12, abs=1e-12)
        assert se[c] == pytest.approx(ref[1], rel=1e-9)
        assert se[c] > 0


@pytest.mark.parametrize("layouts", ["path-path", "path-time", "time-path", "time-time"])
def test_product_means_match_elementwise_product_in_every_layout(layouts):
    rng = np.random.Generator(np.random.Philox(key=6))
    n, m = 1_000, 21
    arrays = []
    for layout in layouts.split("-"):
        values = rng.uniform(0.5, 2.0, size=(n, m + 1))
        arrays.append((values if layout == "path" else np.ascontiguousarray(values.T).T)[:, :-1])
    a, b = arrays
    ref = (np.array(a) * np.array(b)).mean(axis=0)
    assert np.max(np.abs(dl.mc.product_means(a, b) - ref) / ref) <= 1e-14


@pytest.mark.parametrize("utility", ["log", "power"])
def test_primal_search_matches_loop(base_model, base_ens_50k, utility):
    pair = dl.make_log_utility() if utility == "log" else dl.make_power_utility(0.5)
    sol = dl.solve_primal_search(base_model, pair, 1.0, MERTON_PI, base_ens_50k,
                                 adjoint_mode="analytic" if utility == "log" else "regression")
    values, ses, excluded, j_star = oracles.primal_search(base_model, pair, 1.0, MERTON_PI,
                                                          base_ens_50k)
    assert_values_match(sol.candidate_values, values, sol.candidate_se, ses)
    assert sol.pi == MERTON_PI[j_star] and sol.excluded == excluded == []


def test_primal_search_excludes_like_loop(negative_jump_model, negative_jump_ens, log_pair):
    sol = dl.solve_primal_search(negative_jump_model, log_pair, 1.0, MERTON_PI,
                                 negative_jump_ens, mu=0.05, adjoint_mode="analytic")
    values, ses, excluded, j_star = oracles.primal_search(
        negative_jump_model, log_pair, 1.0, MERTON_PI, negative_jump_ens, mu=0.05)
    assert excluded and sol.excluded == excluded
    assert_values_match(sol.candidate_values, values, sol.candidate_se, ses)
    assert sol.pi == MERTON_PI[j_star]


def _assert_saddle_matches(sol, ref):
    assert_values_match(sol.payoff, ref["payoff"], sol.payoff_se, ref["payoff_se"])
    jp, jm = ref["cell"]
    assert (sol.pi, sol.mu) == (sol.pi_values[jp], sol.mu_values[jm])
    assert sol.is_saddle == ref["is_saddle"] and sol.gap == ref["gap"]
    assert sol.excluded == ref["excluded"]


def test_robust_saddle_matches_loop(base_model, base_ens_50k, log_pair, quad_penalty):
    sol = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0, ROBUST_PI,
                                 ROBUST_MU, base_ens_50k, adjoint_mode="analytic")
    ref = oracles.robust_saddle(base_model, log_pair, quad_penalty, 1.0, ROBUST_PI,
                                ROBUST_MU, base_ens_50k)
    _assert_saddle_matches(sol, ref)
    assert sol.is_saddle and (sol.pi, sol.mu) == (0.625, -0.125)


def test_robust_saddle_excludes_like_loop(negative_jump_model, negative_jump_ens, log_pair,
                                          quad_penalty):
    pi_grid = np.linspace(0.0, 2.5, 11)
    sol = dl.solve_robust_saddle(negative_jump_model, log_pair, quad_penalty, 1.0, pi_grid,
                                 ROBUST_MU, negative_jump_ens, adjoint_mode="analytic")
    ref = oracles.robust_saddle(negative_jump_model, log_pair, quad_penalty, 1.0, pi_grid,
                                ROBUST_MU, negative_jump_ens)
    assert len(ref["excluded"]) == 3 * ROBUST_MU.size
    _assert_saddle_matches(sol, ref)


def test_dual_search_matches_loop(jump_model, jump_ens_50k, log_pair):
    sol = dl.solve_dual_search(jump_model, log_pair, 1.0, jump_ens_50k,
                               theta1_values=JUMP_THETA1, adjoint_mode="analytic",
                               replicate=False)
    values, ses, excluded, j_star = oracles.dual_search(jump_model, log_pair, 1.0,
                                                        jump_ens_50k, JUMP_THETA1)
    assert_values_match(sol.candidate_values, values, sol.candidate_se, ses)
    assert sol.control.theta1[0, 0] == JUMP_THETA1[j_star] and sol.excluded == excluded


def test_dual_search_excludes_like_loop(jump_model, log_pair):
    ens = make_ensemble(jump_model, n_paths=5_000, seed=93)
    grid = np.linspace(-1.4, 0.2, 17)
    sol = dl.solve_dual_search(jump_model, log_pair, 1.0, ens, theta1_values=grid,
                               mu=-0.1, adjoint_mode="analytic", replicate=False)
    values, ses, excluded, j_star = oracles.dual_search(jump_model, log_pair, 1.0, ens,
                                                        grid, mu=-0.1)
    assert len(excluded) == 5 and sol.excluded == excluded
    assert_values_match(sol.candidate_values, values, sol.candidate_se, ses)
    assert sol.control.theta1[0, 0] == grid[j_star]


def test_robust_dual_matches_loop_without_jumps(base_model, base_ens_50k, log_pair,
                                                quad_penalty):
    sol = dl.solve_robust_dual(base_model, log_pair, quad_penalty, 1.0, base_ens_50k,
                               mu_values=ROBUST_MU, adjoint_mode="analytic")
    values, _, j_star = oracles.robust_dual_search(base_model, log_pair, quad_penalty, 1.0,
                                                   base_ens_50k, ROBUST_MU)
    assert_values_match(sol.candidate_values, values)
    assert sol.mu == ROBUST_MU[j_star] == -0.125


def test_robust_dual_matches_loop_with_jumps(jump_model, log_pair, quad_penalty):
    ens = make_ensemble(jump_model, n_paths=5_000, seed=95)
    mu_grid = np.linspace(-0.3, -0.1, 5)
    th_grid = np.linspace(-1.2, 0.0, 7)
    sol = dl.solve_robust_dual(jump_model, log_pair, quad_penalty, 1.0, ens,
                               mu_values=mu_grid, theta1_values=th_grid,
                               adjoint_mode="analytic")
    values, _, j_star = oracles.robust_dual_search(jump_model, log_pair, quad_penalty, 1.0,
                                                   ens, mu_grid, th_grid)
    assert np.sum(np.isneginf(values)) == 2 * mu_grid.size
    assert len(sol.excluded) == 2 * mu_grid.size
    assert all(e["reason"] == "theta1 below -1 + eps after constraint elimination"
               for e in sol.excluded)
    assert_values_match(sol.candidate_values, values)
    jm, jt = divmod(j_star, th_grid.size)
    assert sol.mu == mu_grid[jm] and sol.control.theta1[0, 0] == th_grid[jt]


@st.composite
def search_markets(draw):
    """A small ensemble of a market with constant or time-dependent drift and
    vol and 0-3 marks, where negative marks exclude the larger fractions."""
    constant = draw(st.booleans())
    b0, s0 = draw(st.floats(-0.1, 0.15)), draw(st.floats(0.1, 0.4))
    b1, s1 = (0.0, 0.0) if constant else (draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.05, 0.05)))
    marks = draw(st.lists(st.floats(-0.6, 0.5).filter(lambda g: abs(g) > 1e-3), max_size=3))
    intensities = draw(st.lists(st.floats(0.1, 2.0), min_size=len(marks), max_size=len(marks)))
    model = dl.MarketModel(drift=b0 if constant else (lambda t: b0 + b1 * t),
                           vol=s0 if constant else (lambda t: s0 + s1 * t),
                           jump_marks=tuple(marks), jump_intensities=tuple(intensities))
    return model, dl.simulate_drivers(model, dl.TimeGrid(20, 1.0), 400,
                                      draw(st.integers(0, 2**31 - 1)))


def _on_edge(j, n):
    return n >= 3 and j in (0, n - 1)


_SEARCH_PAIRS = {"log": dl.make_log_utility(), "power(0.5)": dl.make_power_utility(0.5)}


# the regression adjoints of a chosen candidate may meet a deterministic state;
# the sweep has its own tests below
@pytest.mark.filterwarnings("ignore:design matrix rank-deficient:RuntimeWarning")
@settings(max_examples=25, deadline=None)
@given(case=search_markets(), name=st.sampled_from(sorted(_SEARCH_PAIRS)))
def test_searches_match_loops_on_hypothesis_markets(case, name):
    model, ens = case
    pair = _SEARCH_PAIRS[name]
    penalty = dl.make_quadratic_penalty()
    mode = "analytic" if name == "log" else "regression"
    # irregular grids: on a regular one, simple coefficients can tie two log
    # payoffs exactly, and the last bit, which differs between any two
    # summation orders, then picks the argmax (the per-step search too)
    pi_grid = np.array([-0.5, -0.137, 0.291, 0.773, 1.187, 1.741, 2.5])
    mu_grid = np.array([-0.2, -0.0931, 0.0173, 0.1])
    th_grid = np.array([-0.9, -0.583, -0.311, -0.047, 0.229, 0.5]) if model.n_marks else None

    sol = dl.solve_primal_search(model, pair, 1.1, pi_grid, ens, mu=-0.05, adjoint_mode=mode)
    values, ses, excluded, j_star = oracles.primal_search(model, pair, 1.1, pi_grid, ens,
                                                          mu=-0.05)
    assert_values_match(sol.candidate_values, values, sol.candidate_se, ses)
    assert sol.pi == pi_grid[j_star] and sol.excluded == excluded
    assert sol.grid_edge == _on_edge(j_star, pi_grid.size)

    sol = dl.solve_robust_saddle(model, pair, penalty, 1.1, pi_grid, mu_grid, ens,
                                 adjoint_mode=mode)
    ref = oracles.robust_saddle(model, pair, penalty, 1.1, pi_grid, mu_grid, ens)
    assert_values_match(sol.payoff, ref["payoff"], sol.payoff_se, ref["payoff_se"])
    jp, jm = ref["cell"]
    assert (sol.pi, sol.mu) == (pi_grid[jp], mu_grid[jm]) and sol.excluded == ref["excluded"]
    assert sol.is_saddle == ref["is_saddle"]
    assert_values_match([sol.gap, sol.minimax, sol.maximin],
                        [ref["gap"], ref["minimax"], ref["maximin"]])
    assert sol.grid_edge == (_on_edge(ref["cell"][0], pi_grid.size)
                             or _on_edge(ref["cell"][1], mu_grid.size))

    try:
        ref = oracles.dual_search(model, pair, 0.9, ens, th_grid, mu=-0.05)
    except ValueError:  # every scenario excluded
        with pytest.raises(ValueError, match="all scenario candidates inadmissible"):
            dl.solve_dual_search(model, pair, 0.9, ens, theta1_values=th_grid, mu=-0.05,
                                 adjoint_mode=mode, replicate=False)
    else:
        values, ses, excluded, j_star = ref
        sol = dl.solve_dual_search(model, pair, 0.9, ens, theta1_values=th_grid, mu=-0.05,
                                   adjoint_mode=mode, replicate=False)
        assert_values_match(sol.candidate_values, values, sol.candidate_se, ses)
        assert sol.excluded == excluded and sol.value == sol.candidate_values[j_star]
        assert sol.grid_edge == _on_edge(j_star, len(values))

    try:
        values, ses, j_star = oracles.robust_dual_search(model, pair, penalty, 0.9, ens, mu_grid,
                                                         th_grid)
    except ValueError:
        return
    sol = dl.solve_robust_dual(model, pair, penalty, 0.9, ens, mu_values=mu_grid,
                               theta1_values=th_grid, adjoint_mode=mode)
    assert_values_match(sol.candidate_values, values, sol.candidate_se, ses)
    assert sol.value == sol.candidate_values[j_star]
    n_theta = len(values) // mu_grid.size
    assert sol.grid_edge == (_on_edge(j_star // n_theta, mu_grid.size)
                             or _on_edge(j_star % n_theta, n_theta))


@pytest.mark.parametrize("constant", [True, False])
def test_only_time_dependent_coefficients_take_the_per_step_gemm(jump_model, log_pair, constant):
    model = jump_model if constant else dl.MarketModel(
        drift=lambda t: 0.1 + 0.05 * t, vol=0.2, jump_marks=(0.1,), jump_intensities=(1.0,))
    ens = make_ensemble(model, n_steps=20, n_paths=1_000, seed=99)
    with mock.patch.object(market, "_per_step_terminal_log",
                           wraps=market._per_step_terminal_log) as per_step:
        dl.solve_primal_search(model, log_pair, 1.0, MERTON_PI, ens, adjoint_mode="analytic")
        dl.solve_robust_saddle(model, log_pair, dl.make_quadratic_penalty(), 1.0, ROBUST_PI,
                               ROBUST_MU, ens, adjoint_mode="analytic")
        dl.solve_dual_search(model, log_pair, 1.0, ens, theta1_values=JUMP_THETA1,
                             adjoint_mode="analytic", replicate=False)
    # one block per search at 1k paths
    assert per_step.call_count == (0 if constant else 3)


def test_log_saddle_values_equal_the_closed_form_intercept(base_model, base_ens_50k, log_pair,
                                                           quad_penalty):
    # ln X(T) is affine in (1, B_T), so the control-variate intercept is
    # ln x + (pi (b + mu sigma) - pi^2 sigma^2 / 2) T, plus the penalty mu^2 T / 2
    sol = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0, ROBUST_PI, ROBUST_MU,
                                 base_ens_50k, adjoint_mode="analytic")
    pi, mu = ROBUST_PI[:, None], ROBUST_MU[None, :]
    b, s = base_model.drift, base_model.vol
    closed = pi * (b + mu * s) - 0.5 * pi**2 * s**2 + 0.5 * mu**2
    assert np.max(np.abs(sol.payoff - closed)) <= 1e-14
    assert np.max(sol.payoff_se) <= 1e-15


@pytest.mark.parametrize("theta1", [[-0.3], [0.2], [-0.95]])
def test_scenario_elimination_matches_loop(theta1):
    two_marks = dl.MarketModel(drift=0.05, vol=lambda t: 0.0 if 0.3 <= t < 0.6 else 0.2,
                               jump_marks=(0.1, -0.2), jump_intensities=(1.0, 0.5),
                               horizon=1.0)
    grid = dl.TimeGrid(50, 1.0)
    for mu in (None, -0.1):
        try:
            ref = oracles.scenario_from_theta1(two_marks, grid, theta1 * 2, 1.0, mu=mu)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                dl.scenario_from_theta1(two_marks, grid, theta1 * 2, 1.0, mu=mu)
            continue
        new = dl.scenario_from_theta1(two_marks, grid, theta1 * 2, 1.0, mu=mu)
        assert np.allclose(new.theta0, ref.theta0, rtol=1e-14, atol=1e-15)
        assert np.allclose(new.theta1, ref.theta1, rtol=1e-14, atol=1e-15)


def test_scenario_without_martingale_measure_raises_like_loop():
    stuck = dl.MarketModel(drift=0.05, vol=lambda t: 0.0 if t >= 0.5 else 0.2, horizon=1.0)
    grid = dl.TimeGrid(20, 1.0)
    with pytest.raises(ValueError) as ref:
        oracles.scenario_from_theta1(stuck, grid, np.zeros(0), 1.0)
    with pytest.raises(ValueError, match="no martingale measure at step 10") as new:
        dl.scenario_from_theta1(stuck, grid, np.zeros(0), 1.0)
    assert str(new.value) == str(ref.value)


# ---------------------------------------------------------- backward sweep

def _assert_sweep_matches(triple, ref, gate=1e-10):
    p, q, r, per_step = ref
    for new, old in ((triple.p, p), (triple.q, q), (triple.r, r)):
        if old.size:
            assert np.max(np.abs(new - old)) <= gate * np.max(np.abs(old))
    mine = triple.diagnostics["per_step"]
    assert [s["rank"] for s in mine] == [s["rank"] for s in per_step]
    for a, b in zip(mine, per_step):
        assert a["cond"] == pytest.approx(b["cond"], rel=1e-9)
        assert a["fit_rmse"] == pytest.approx(b["fit_rmse"], rel=1e-9, abs=1e-15)


def test_sweep_matches_lstsq_with_rank_one_start(base_model, base_ens_50k, log_pair):
    wealth = dl.wealth_paths(base_model, base_ens_50k, dl.Strategy.fraction(1.25), 1.0)
    args = (base_ens_50k, log_pair.u_prime(wealth[:, -1]))
    kwargs = {"state": {"X": wealth}, "basis": RegressionBasis(channels=("X",))}
    triple = dl.solve_linear_bsde(*args, **kwargs)
    ref = oracles.solve_linear_bsde(*args, **kwargs)
    assert ref[3][0]["rank"] == 1 and all(s["rank"] == 3 for s in ref[3][1:])
    _assert_sweep_matches(triple, ref)


def test_sweep_matches_lstsq_with_jumps_and_driver(jump_model, jump_ens_50k, log_pair):
    sol = dl.solve_dual_search(jump_model, log_pair, 1.0, jump_ens_50k,
                               theta1_values=JUMP_THETA1, adjoint_mode="analytic",
                               replicate=False)
    density = sol.density
    args = (jump_ens_50k, log_pair.inverse_marginal(density[:, -1]))
    kwargs = {"driver": dl.dual.dual_driver(jump_model, jump_ens_50k.grid),
              "state": {"G": density}, "basis": RegressionBasis(channels=("G",))}
    triple = dl.solve_linear_bsde(*args, **kwargs)
    ref = oracles.solve_linear_bsde(*args, **kwargs)
    assert np.max(np.abs(ref[2])) > 0
    _assert_sweep_matches(triple, ref)


@pytest.mark.parametrize("n_cpus, n_paths", [(1, 50_000), (2, 50_000), (1, 1_001)])
def test_ends_only_sweep_is_the_all_rows_sweep_at_its_ends(jump_model, jump_ens_50k, log_pair,
                                                           n_cpus, n_paths):
    """A sweep that keeps p at its two ends against the sweep that keeps every
    row, on a dual claim with its driver and a jump channel: p(t_0), p(T),
    q, r and the diagnostics bit for bit, inline on one CPU and with the
    factors computed ahead in a thread on two; and at a path count whose
    rows of p start at other offsets in the two layouts."""
    ens = jump_ens_50k if n_paths == 50_000 else make_ensemble(jump_model, n_paths=n_paths,
                                                                seed=97)
    threaded = n_cpus > 1
    assert ens.n_paths >= 2 * bsde.SWEEP_THREAD_MIN_PATHS or not threaded
    control = dl.scenario_from_theta1(jump_model, ens.grid, np.array([-0.15]), 1.0)
    density = dl.density_paths(ens, control)
    args = (ens, log_pair.inverse_marginal(density[:, -1]))
    kwargs = {"driver": dl.dual.dual_driver(jump_model, ens.grid),
              "state": {"G": density}, "basis": RegressionBasis(channels=("G",))}
    with mock.patch("os.sched_getaffinity", return_value=set(range(n_cpus))), \
            mock.patch("threading.Thread", wraps=threading.Thread) as started:
        whole = dl.solve_linear_bsde(*args, **kwargs)
        ends = dl.solve_linear_bsde(*args, keep="qr", **kwargs)
    assert started.call_count == 2 * threaded
    assert np.array_equal(ends.p_initial, whole.p[:, 0])
    assert np.array_equal(ends.p_terminal, whole.p[:, -1])
    assert np.array_equal(ends.q, whole.q) and np.array_equal(ends.r, whole.r)
    assert np.max(np.abs(ends.r)) > 0
    assert ends.diagnostics == whole.diagnostics
    with pytest.raises(ValueError, match=r"keeps p only at p\(t_0\) and p\(T\)"):
        ends.p


@pytest.mark.parametrize("n_cpus", [1, 3])
@pytest.mark.parametrize("n_marks", [0, 1, 2])
def test_sweep_keeping_means_is_the_keep_all_sweep(n_marks, n_cpus):
    """Sweeps that keep q or r as per-step means, or p at its ends, against
    the sweep that keeps every channel whole, with a driver in every
    coefficient: p(t_0), p(T), every kept channel and the diagnostics bit
    for bit, and the means bit for bit q.mean(axis=0) and r.mean(axis=0) of
    the keep-all sweep; inline on one CPU and with the factors computed
    ahead in a thread on three.  20k paths: more than one of numpy's 8,192-
    element reduction blocks per mean.  The keep-all sweep matches the
    ``lstsq`` sweep, which takes every driver term, the constant too: kills
    the mutants ``p_i -= c0[i]`` and ``p_i *= denom`` of the step update,
    which no other test's driver reaches."""
    model = dl.MarketModel(drift=0.1, vol=0.2, jump_marks=(0.1, -0.2)[:n_marks],
                           jump_intensities=(1.0, 3.0)[:n_marks], horizon=1.0)
    ens = make_ensemble(model, n_steps=20, n_paths=20_000, seed=113 + n_marks)
    s = ens.channel("S")
    args = (ens, 1.0 / s[:, -1])
    kwargs = {"driver": dl.DriverSpec(constant=0.01, p_coeff=-0.05, q_coeff=0.25, r_coeff=0.1),
              "state": {"S": s}}
    keeps = ("", "p", "q", "r", "qr")
    with mock.patch("os.sched_getaffinity", return_value=set(range(n_cpus))), \
            mock.patch.object(bsde, "SWEEP_THREAD_MIN_PATHS", 4_096), \
            mock.patch("threading.Thread", wraps=threading.Thread) as started:
        whole = dl.solve_linear_bsde(*args, **kwargs)
        partial = {keep: dl.solve_linear_bsde(*args, keep=keep, **kwargs) for keep in keeps}
    assert started.call_count == (1 + len(keeps)) * (n_cpus > 1)
    _assert_sweep_matches(whole, oracles.solve_linear_bsde(*args, **kwargs))
    q_mean, r_mean = whole.q.mean(axis=0), whole.r.mean(axis=0)
    assert q_mean.shape == (20,) and r_mean.shape == (20, n_marks)
    assert np.array_equal(whole.q_mean, q_mean) and np.array_equal(whole.r_mean, r_mean)
    assert np.all(q_mean != 0) and np.all(r_mean != 0)
    for keep, triple in partial.items():
        assert np.array_equal(triple.p_initial, whole.p[:, 0]), keep
        assert np.array_equal(triple.p_terminal, whole.p[:, -1]), keep
        assert np.array_equal(triple.q_mean, q_mean), keep
        assert np.array_equal(triple.r_mean, r_mean), keep
        assert triple.diagnostics == whole.diagnostics, keep
        for name in "pqr":
            if name in keep:
                assert np.array_equal(getattr(triple, name), getattr(whole, name)), (keep, name)
            else:
                with pytest.raises(ValueError, match=rf"{name!r} in keep"):
                    getattr(triple, name)


def test_sweep_refuses_an_unknown_channel_to_keep(base_ens_5k):
    with pytest.raises(ValueError, match="subset of 'pqr'"):
        dl.solve_linear_bsde(base_ens_5k, np.ones(base_ens_5k.n_paths), keep="pqx")


@pytest.mark.parametrize("robust", [False, True])
def test_dual_search_keeps_the_ends_of_its_evaluated_scenario(jump_model, jump_ens_50k, log_pair,
                                                              quad_penalty, robust):
    """A regression dual search keeps p2's ends and r2's per-step means only,
    and q2 whole only where a reader takes it path by path (the robust
    dual's penalty residual) and its per-step means otherwise; they and the
    first-order residuals are those of the all-channels evaluation of the
    scenario it found, bit for bit."""
    if robust:
        sol = dl.solve_robust_dual(jump_model, log_pair, quad_penalty, 1.0, jump_ens_50k,
                                   mu_values=[-0.2, -0.15], theta1_values=[-0.15, -0.1])
    else:
        sol = dl.solve_dual_search(jump_model, log_pair, 1.0, jump_ens_50k,
                                   theta1_values=JUMP_THETA1, replicate=False)
    whole = dl.evaluate_dual_scenario(jump_model, log_pair, sol.control, jump_ens_50k)
    assert np.array_equal(sol.density, whole.density)
    for name in ("p_initial", "p_terminal", "q_mean", "r_mean") + (("q",) if robust else ()):
        assert np.array_equal(getattr(sol.adjoints, name), getattr(whole.adjoints, name))
    assert np.array_equal(sol.adjoints.q_mean, whole.adjoints.q.mean(axis=0))
    assert np.array_equal(sol.adjoints.r_mean, whole.adjoints.r.mean(axis=0))
    assert np.max(np.abs(sol.adjoints.r_mean)) > 0
    assert sol.adjoints.diagnostics == whole.adjoints.diagnostics
    foc = dl.dual.dual_foc_residual(sol)
    assert all(np.array_equal(foc[key], value) for key, value in whole.foc.items())
    for name in ("p", "r") if robust else ("p", "q", "r"):
        with pytest.raises(ValueError, match="evaluate_dual_scenario"):
            getattr(sol.adjoints, name)


def test_sweep_matches_lstsq_on_collinear_state(base_model, base_ens_5k):
    s = base_ens_5k.channel("S")
    kwargs = {"state": {"S": s, "S2": s**2}}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = oracles.solve_linear_bsde(base_ens_5k, s[:, -1], **kwargs)
    with pytest.warns(RuntimeWarning, match="rank-deficient"):
        triple = dl.solve_linear_bsde(base_ens_5k, s[:, -1], **kwargs)
    assert all(step["rank"] < 6 for step in ref[3])
    _assert_sweep_matches(triple, ref)
    assert not math.isinf(max(step["cond"] for step in ref[3]))


def _degenerate_state_case(kind, eps, jumps, seed):
    """A 1k-path, 20-step ensemble, a regression state that is constant,
    exactly collinear, or near-collinear with relative noise ``eps``, and the
    excess return as the terminal value."""
    model = dl.MarketModel(drift=0.05, vol=0.2, jump_marks=(0.1,) if jumps else (),
                           jump_intensities=(1.0,) if jumps else (), horizon=1.0)
    ens = dl.simulate_drivers(model, dl.TimeGrid(20, 1.0), 1_000, seed)
    s = ens.channel("S")
    if kind == "constant":
        state = {"X": np.full_like(s, 2.0)}
    elif kind == "collinear":
        state = {"S": s, "S2": s**2}
    else:
        noise = np.random.default_rng(seed).normal(size=s.shape)
        state = {"S": s, "T": s * (1.0 + eps * noise)}
    # under a constant state p is constant after one step, and its
    # rounding-level fits stay below the 1e-15 floor of fit_rmse
    return ens, state, s[:, -1] - 1.0


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["constant", "collinear", "near"]), eps=st.floats(1.2e-3, 4e-3),
       jumps=st.booleans(), seed=st.integers(0, 2**31 - 1))
# the most and the least collinear draws, and two that broke a 1e-10 gate
# against lstsq: the first when steps above cond 1e6 took the Householder
# fallback, the second through lstsq's own error
@example(kind="near", eps=1.2e-3, jumps=True, seed=1)
@example(kind="near", eps=1.35e-3, jumps=False, seed=2)
@example(kind="near", eps=4e-3, jumps=True, seed=2)
@example(kind="near", eps=1.2e-3, jumps=True, seed=3904738)
@example(kind="near", eps=1.2e-3, jumps=True, seed=717)
def test_sweep_fallback_matches_lstsq(kind, eps, jumps, seed):
    # near-collinear log-states put the per-step condition number at about
    # 1.1e5 to 1.5e6 here, inside CholeskyQR2's accepted range, so only the
    # rank-deficient steps take the fallback.  There the sweep's values are
    # judged against the long-double sweep: a float64 Householder or SVD
    # fit, lstsq's included, is off the truth by up to about u * cond (lstsq
    # by 1.8e-10 at cond 1.4e6), while CholeskyQR2 stays within
    # LONG_DOUBLE_GATE (it fails that gate with CHOLQR_MAX_COND = 1e6)
    ens, state, terminal = _degenerate_state_case(kind, eps, jumps, seed)
    with warnings.catch_warnings(record=True) as ref_warned:
        warnings.simplefilter("always")
        ref = oracles.solve_linear_bsde(ens, terminal, state=state)
    with warnings.catch_warnings(record=True) as warned, \
            mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
        warnings.simplefilter("always")
        triple = dl.solve_linear_bsde(ens, terminal, state=state)
    if kind == "near":
        p, q, r, ranks = oracles.long_double_sweep(ens, terminal, state=state)
        assert ranks == [st["rank"] for st in ref[3]]
        _assert_sweep_matches(triple, (p, q, r, ref[3]), gate=LONG_DOUBLE_GATE)
    else:
        _assert_sweep_matches(triple, ref)
    # the steps that must take the Householder fallback: rank-deficient
    # (always t_0) or conditioned beyond CholeskyQR2's accepted range
    n_columns = triple.diagnostics["n_columns"]
    fallback = [st["step"] for st in ref[3]
                if st["rank"] < n_columns or st["cond"] > CHOLQR_MAX_COND]
    assert qr.call_count == len(fallback)
    assert fallback[0] == 0 and (kind == "near" or len(fallback) == 20)
    if kind == "constant":
        # counted, not warned about
        assert warned == [] and triple.diagnostics["constant_state_steps"] == 20
    else:
        assert [str(w.message) for w in warned] == [str(w.message) for w in ref_warned]
        assert len(warned) == (kind == "collinear")


@pytest.mark.parametrize("jumps, seed", [(True, 0), (False, 1), (True, 2)])
def test_sweep_above_cholqr_range_takes_householder(jumps, seed):
    # relative noise 1e-4 puts every step past t_0 at cond 1.5e8 to 2.1e8,
    # above CHOLQR_MAX_COND: each takes the Householder fallback, whose
    # error is that of any float64 least-squares fit, up to about u * cond
    # (at most 0.5 u * cond over 60 seeds)
    ens, state, terminal = _degenerate_state_case("near", 1e-4, jumps, seed)
    with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
        triple = dl.solve_linear_bsde(ens, terminal, state=state)
    per_step = triple.diagnostics["per_step"]
    p, q, r, ranks = oracles.long_double_sweep(ens, terminal, state=state)
    assert [step["rank"] for step in per_step] == ranks
    conds = [step["cond"] for step in per_step[1:]]
    assert min(conds) > CHOLQR_MAX_COND
    # one Householder QR per step: t_0 (rank-deficient) and every step above
    assert qr.call_count == 20
    gate = np.finfo(float).eps * max(conds)
    for new, truth in ((triple.p, p), (triple.q, q), (triple.r, r)):
        if truth.size:
            assert np.max(np.abs(new - truth)) <= gate * np.max(np.abs(truth))


# ----------------------------------------------------------- forward paths

@st.composite
def forward_cases(draw):
    """A small ensemble of a market with time-dependent drift and vol, sigma = 0
    on a sub-interval or not, and 0-3 marks; plus a generator for coefficients."""
    b0, b1 = draw(st.floats(-0.2, 0.2)), draw(st.floats(-0.2, 0.2))
    s0, s1 = draw(st.floats(0.05, 0.4)), draw(st.floats(-0.04, 0.04))
    flat = draw(st.sampled_from([None, (0.3, 0.6), (0.0, 0.5)]))
    marks = draw(st.lists(st.floats(-0.5, 0.5).filter(lambda g: abs(g) > 1e-3), max_size=3))
    intensities = draw(st.lists(st.floats(0.1, 2.0), min_size=len(marks), max_size=len(marks)))
    seed = draw(st.integers(0, 2**31 - 1))

    def vol(t):
        if flat is not None and flat[0] <= t < flat[1]:
            return 0.0
        return s0 + s1 * t

    model = dl.MarketModel(drift=lambda t: b0 + b1 * t, vol=vol, jump_marks=tuple(marks),
                           jump_intensities=tuple(intensities), horizon=1.0)
    ens = dl.simulate_drivers(model, dl.TimeGrid(20, 1.0), 200, seed)
    # a child of the seed, not the ensemble's own Philox key: drawn from that
    # key, the first coefficients would be the drivers' normals dB/sqrt(dt)
    coefficients = np.random.SeedSequence(seed).spawn(1)[0]
    return model, ens, np.random.Generator(np.random.Philox(coefficients))


def assert_rel(new, old, rel=1e-13):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.all(np.abs(new - old) <= rel * np.maximum(1.0, np.abs(old)))


def assert_same_outcome(new_fn, old_fn):
    """Both close to 1e-13, or both fail positivity at the same step."""
    try:
        old = old_fn()
    except ValueError as exc:
        step = re.search(r"at step \d+$", str(exc)).group()
        with pytest.raises(ValueError, match=step):
            new_fn()
        return
    assert_rel(new_fn(), old)


def _scenario(model, ens, rng, y=1.5):
    n = ens.grid.n_steps
    return dl.ScenarioControl(theta0=rng.uniform(-0.5, 0.5, size=n),
                              theta1=rng.uniform(-0.3, 0.3, size=(n, model.n_marks)), y=y)


@settings(max_examples=30, deadline=None)
@given(case=forward_cases())
def test_price_and_density_paths_bit_identical(case):
    model, ens, rng = case
    assert np.array_equal(dl.price_paths(model, ens), oracles.price_paths(model, ens))
    control = _scenario(model, ens, rng)
    assert np.array_equal(dl.density_paths(ens, control), oracles.density_paths(ens, control))
    assert_same_outcome(lambda: dl.density_paths(ens, control, scheme="euler"),
                        lambda: oracles.density_paths(ens, control, scheme="euler"))


@settings(max_examples=30, deadline=None)
@given(case=forward_cases(), per_path=st.booleans(), mu=st.sampled_from([None, -0.1, 0.05]))
def test_wealth_paths_match_step_loops(case, per_path, mu):
    model, ens, rng = case
    shape = (ens.n_paths, ens.grid.n_steps) if per_path else (ens.grid.n_steps,)
    pi = rng.uniform(-0.9, 0.9, size=shape)
    for scheme in ("exact", "euler"):
        assert_same_outcome(
            lambda: dl.wealth_paths(model, ens, dl.Strategy.fraction(pi), 1.2, mu=mu, scheme=scheme),
            lambda: oracles.wealth_paths(model, ens, "fraction", pi, 1.2, mu=mu, scheme=scheme))
    phi = rng.uniform(-0.5, 0.5, size=shape)
    assert_same_outcome(lambda: dl.wealth_paths(model, ens, dl.Strategy.units(phi), 1.2, mu=mu),
                        lambda: oracles.wealth_paths(model, ens, "units", phi, 1.2, mu=mu))


@settings(max_examples=30, deadline=None)
@given(case=forward_cases(), mu=st.sampled_from([None, -0.1, 0.05]))
def test_terminal_values_match_unbatched_arithmetic(case, mu):
    model, ens, rng = case
    for pi in (0.7, rng.uniform(-0.9, 0.9, size=ens.grid.n_steps)):
        assert_rel(dl.market.terminal_log_wealth(model, ens, pi, 1.3, mu=mu),
                   oracles.terminal_log_wealth(model, ens, pi, 1.3, mu=mu))
    control = _scenario(model, ens, rng)
    assert_rel(dl.market.terminal_log_density(ens, control),
               oracles.terminal_log_density(ens, control))


@settings(max_examples=30, deadline=None)
@given(case=forward_cases(), mu=st.sampled_from([None, -0.1, 0.05]), size=st.sampled_from([0.5, 20.0]))
def test_replication_check_matches_step_loop(case, mu, size):
    model, ens, rng = case
    phi = rng.uniform(-size, size, size=(ens.n_paths, ens.grid.n_steps))
    target = rng.uniform(0.5, 2.0, size=ens.n_paths)
    new = dl.replication_check(model, phi, 1.1, target, ens, mu=mu)
    old = oracles.replication_check(model, phi, 1.1, target, ens, mu=mu)
    assert new["n_nonpositive"] == old["n_nonpositive"]
    assert new["initial_value"] == old["initial_value"]
    assert_rel([new["rmse_rel"], new["max_rel"]], [old["rmse_rel"], old["max_rel"]])


def test_replication_check_counts_nonpositive_like_loop(jump_model):
    ens = make_ensemble(jump_model, n_steps=20, n_paths=500, seed=97)
    phi = np.full((ens.n_paths, ens.grid.n_steps), 30.0)
    target = np.ones(ens.n_paths)
    new = dl.replication_check(jump_model, phi, 1.0, target, ens)
    old = oracles.replication_check(jump_model, phi, 1.0, target, ens)
    assert new["n_nonpositive"] == old["n_nonpositive"] > 0
    with pytest.raises(dl.AdmissibilityError, match="non-positive"):
        dl.wealth_paths(jump_model, ens, dl.Strategy.units(phi), 1.0)


def test_strategy_function_of_time_matches_per_step_array(base_model, base_ens_5k):
    grid = base_ens_5k.grid
    per_step = 0.5 + grid.left_times
    by_time = dl.wealth_paths(base_model, base_ens_5k, dl.Strategy.fraction(lambda t: 0.5 + t), 1.0)
    assert np.array_equal(by_time, dl.wealth_paths(base_model, base_ens_5k,
                                                   dl.Strategy.fraction(per_step), 1.0))


@settings(max_examples=40, deadline=None)
@given(case=forward_cases(), mu=st.sampled_from([None, -0.1, 0.05]), size=st.sampled_from([0.9, 4.0]),
       block_bytes=st.sampled_from([2**10, market.FILL_BLOCK_BYTES]))
def test_per_path_fill_bit_identical_to_column_loop(case, mu, size, block_bytes):
    # 2**10 bytes is 2-6 paths per block, so 200 paths end on a partial block
    model, ens, rng = case
    grid = ens.grid
    pi = rng.uniform(-size, size, size=(ens.n_paths, grid.n_steps))
    coeffs = (model.drift_on(grid, mu), model.vol_on(grid), model.jump_sizes_on(grid))

    def new():
        with mock.patch.object(market, "FILL_BLOCK_BYTES", block_bytes):
            return dl.wealth_paths(model, ens, dl.Strategy.fraction(pi), 1.2, mu=mu)

    try:
        old = oracles.exp_paths_per_path(ens, 1.2, *coeffs, pi)
    except dl.AdmissibilityError as exc:
        with pytest.raises(dl.AdmissibilityError, match=re.escape(str(exc))):
            new()
        return
    assert np.array_equal(new(), old)


# ------------------------------------------------- the map back's fraction

# the map back forms q2/(sigma p2) one block of paths at a time inside its
# wealth fill: against the wealth of the whole fraction it replaced, on one
# CPU and on two ranges of THREAD_MIN_PATHS paths (CPUs pinned as in
# tests/test_threads.py)

@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("jumps", [False, True])
def test_block_fraction_fills_the_wealth_of_the_whole_array(base_model, jump_model, log_pair,
                                                            jumps, n_cpus):
    # regression adjoints, so that the fraction differs from path to path
    model = jump_model if jumps else base_model
    n_paths = 2 * market.THREAD_MIN_PATHS
    ens = make_ensemble(model, n_steps=20, n_paths=n_paths, seed=131)
    control = (dl.scenario_from_theta1(model, ens.grid, [-0.1], 1.0) if jumps
               else dl.unique_scenario_no_jumps(model, ens.grid, 1.0))
    sol = dl.evaluate_dual_scenario(model, log_pair, control, ens, adjoint_mode="regression")
    whole = oracles.bridged_fractions(sol)
    assert np.ptp(whole) > 0.1
    x0 = float(sol.adjoints.p[:, 0].mean())
    with mock.patch("os.sched_getaffinity", return_value=set(range(n_cpus))):
        assert len(market.path_ranges(n_paths)) == n_cpus
        by_blocks = dl.wealth_paths(model, ens, dl.Strategy.fraction(bridge._fraction_blocks(sol)),
                                    x0, mu=sol.mu)
        from_array = dl.wealth_paths(model, ens, dl.Strategy.fraction(whole), x0, mu=sol.mu)
        strategy, x_back, report = dl.dual_to_primal(sol)
    assert np.array_equal(by_blocks, from_array)
    # the returned portfolio is the whole fraction, bit for bit and in its layout
    assert np.array_equal(strategy.values, whole)
    assert strategy.values.T.flags.c_contiguous
    assert np.array_equal(bridge._bridged_fractions(sol), whole)
    assert x_back == x0
    link = report["process_link"]
    assert (link["max_abs"], link["max_rel"]) == bridge._abs_and_rel(from_array, sol.adjoints.p)


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("bad_path", [0, 2 * market.THREAD_MIN_PATHS - 1])
def test_block_fraction_refuses_a_bad_jump_ratio_like_the_whole_array(jump_model, n_cpus,
                                                                      bad_path):
    # 1 + pi*gamma <= 0 on one path of one step (gamma = 0.1): pi = -12 on
    # the first or the last path
    n_paths = 2 * market.THREAD_MIN_PATHS
    ens = make_ensemble(jump_model, n_steps=20, n_paths=n_paths, seed=137)
    grid = ens.grid
    p = np.ones((n_paths, grid.n_steps + 1))
    q = np.full((n_paths, grid.n_steps), 0.2 * 1.5)
    q[bad_path, 7] = 0.2 * -12.0
    r = np.zeros((n_paths, grid.n_steps, 1))
    sol = types.SimpleNamespace(model=jump_model, ensemble=ens, adjoints=dl.AdjointTriple(p, q, r))
    whole = oracles.bridged_fractions(sol)
    assert np.sum(whole * 0.1 <= -1.0) == 1
    with mock.patch("os.sched_getaffinity", return_value=set(range(n_cpus))):
        assert len(market.path_ranges(n_paths)) == n_cpus
        with pytest.raises(dl.AdmissibilityError) as from_array:
            dl.wealth_paths(jump_model, ens, dl.Strategy.fraction(whole), 1.0)
        with pytest.raises(dl.AdmissibilityError) as by_blocks:
            dl.wealth_paths(jump_model, ens, dl.Strategy.fraction(bridge._fraction_blocks(sol)),
                            1.0)
    assert type(by_blocks.value) is type(from_array.value)
    assert str(by_blocks.value) == str(from_array.value)


@pytest.mark.parametrize("block", [1, 3, 64, 200])
def test_block_extremes_are_the_whole_array_reductions(block):
    # NaN where only some paths are NaN is skipped; a step where every path
    # is NaN stays NaN; inf and signed zeros pass through; the first and the
    # last path hold extremes of their own
    rng = np.random.Generator(np.random.Philox(key=139))
    values = rng.uniform(-3.0, 3.0, size=(200, 9))
    values[rng.uniform(size=values.shape) < 0.1] = np.nan
    values[:, 4] = np.nan
    values[17, 2], values[150, 2], values[3, 6] = np.inf, -np.inf, -0.0
    values[0, 1], values[0, 3], values[199, 5], values[199, 7] = -10.0, 10.0, -10.0, 10.0
    lowest, highest = market._extremes(dl.PathBlocks.of(values), 9, 200, block)
    assert np.array_equal(lowest, np.fmin.reduce(values, axis=0), equal_nan=True)
    assert np.array_equal(highest, np.fmax.reduce(values, axis=0), equal_nan=True)


# ------------------------------------------------------------------ output

# shortest reprs in and out of Python's scientific range, signed zero, the
# smallest subnormal and the non-finite values
SPECIAL = [1e-05, 1e+16, 5e-324, -0.0, 0.1, 1e22, 123456789012345.67, 1 / 3, 0.0001,
           9999999999999998.0, -2.5e-8, float("nan"), float("inf"), float("-inf")]


FORK = multiprocessing.get_context("fork")
# 8 blocks of 4 paths, the last one of 3
SMALL_BLOCK, N_BLOCK_PATHS = 4, 31


def _csv_ensemble(n_paths, n_steps=6):
    model = dl.MarketModel(drift=0.05, vol=0.2)
    ens = dl.simulate_drivers(model, dl.TimeGrid(n_steps, 1.0), n_paths, seed=3)
    dl.price_paths(model, ens)
    ens.attach("X", dl.wealth_paths(model, ens, dl.Strategy.fraction(1.25), 1.0))
    cells = n_paths * (n_steps + 1)
    ens.attach("special", np.resize(np.array(SPECIAL), cells).reshape(n_paths, n_steps + 1))
    ens.attach("count", np.arange(cells).reshape(n_paths, n_steps + 1))
    return ens


def _csv_bytes(writer, ens, path, **kwargs):
    writer(ens, path, **kwargs)
    return path.read_bytes()


@pytest.mark.parametrize("n_paths, channels, header", [
    (300, ["S", "X", "special"], "config_hash=abc"),
    (1, None, None),
    (2 * market.CSV_BLOCK_PATHS, ["special"], "x"),
    (market.CSV_BLOCK_PATHS + 1, ["count", "S"], None),
    (3, [], "no channels"),
], ids=["several-300", "all-1-no-header", "special-block-multiple", "int-and-float", "none"])
def test_csv_bytes_identical_to_row_writer(tmp_path, n_paths, channels, header):
    ens = _csv_ensemble(n_paths)
    kwargs = {"channels": channels, "header_comment": header}
    new = _csv_bytes(dl.ensemble_to_csv, ens, tmp_path / "new.csv", **kwargs)
    old = _csv_bytes(oracles.ensemble_to_csv, ens, tmp_path / "old.csv", **kwargs)
    assert new == old
    if channels is None:
        assert new.splitlines()[0] == b"path,time,S,X,count,special"


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(width=64), min_size=4, max_size=4 * 11))
def test_csv_repr_of_any_float_identical_to_row_writer(tmp_path_factory, values):
    n_paths = len(values) // 4 + 1
    ens = _csv_ensemble(n_paths, n_steps=3)
    ens.attach("v", np.resize(np.array(values), 4 * n_paths).reshape(n_paths, 4))
    path = tmp_path_factory.mktemp("csv")
    # one block: formatted in this process, no worker is forked
    assert n_paths <= market.CSV_BLOCK_PATHS
    with mock.patch.object(FORK, "Pool", wraps=FORK.Pool) as pools:
        new = _csv_bytes(dl.ensemble_to_csv, ens, path / "new.csv", channels=["v", "S"])
    assert pools.call_count == 0
    old = _csv_bytes(oracles.ensemble_to_csv, ens, path / "old.csv", channels=["v", "S"])
    assert new == old


@pytest.mark.parametrize("cpus, workers", [(1, 0), (2, 2), (3, 3), (16, 8)],
                         ids=["one-cpu", "two", "three", "more-cpus-than-blocks"])
def test_csv_workers_write_the_row_writer_bytes(tmp_path, cpus, workers):
    ens = _csv_ensemble(N_BLOCK_PATHS)
    kwargs = {"channels": ["count", "S", "special"], "header_comment": "config_hash=abc"}
    with mock.patch.object(market, "CSV_BLOCK_PATHS", SMALL_BLOCK), \
            mock.patch("os.sched_getaffinity", return_value=set(range(cpus))), \
            mock.patch.object(FORK, "Pool", wraps=FORK.Pool) as pools:
        new = _csv_bytes(dl.ensemble_to_csv, ens, tmp_path / "new.csv", **kwargs)
    old = _csv_bytes(oracles.ensemble_to_csv, ens, tmp_path / "old.csv", **kwargs)
    assert new == old
    assert [c.args[0] for c in pools.call_args_list] == ([workers] if workers else [])


@pytest.mark.parametrize("patch", ["pool-start-fails", "no-fork"])
def test_csv_formats_in_process_when_no_worker_can_be_forked(tmp_path, patch):
    ens = _csv_ensemble(N_BLOCK_PATHS)
    kwargs = {"channels": ["S", "count"], "header_comment": None}
    no_workers = {
        "pool-start-fails": mock.patch.object(FORK, "Pool",
                                              side_effect=OSError(errno.EAGAIN, "fork failed")),
        "no-fork": mock.patch("multiprocessing.get_all_start_methods", return_value=["spawn"]),
    }[patch]
    with mock.patch.object(market, "CSV_BLOCK_PATHS", SMALL_BLOCK), \
            mock.patch("os.sched_getaffinity", return_value={0, 1}), no_workers, \
            mock.patch.object(market, "_csv_block", wraps=market._csv_block) as blocks:
        new = _csv_bytes(dl.ensemble_to_csv, ens, tmp_path / "new.csv", **kwargs)
    assert new == _csv_bytes(oracles.ensemble_to_csv, ens, tmp_path / "old.csv", **kwargs)
    # every block went through the one formatter in this process
    assert blocks.call_count == 8
    assert market._csv_job == (None, None)


class _Unprintable:
    def __repr__(self):
        raise RuntimeError("value cannot be formatted")


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "workers"])
def test_csv_error_in_a_block_reaches_the_caller(tmp_path, cpus):
    n_steps = 6
    ens = _csv_ensemble(N_BLOCK_PATHS, n_steps=n_steps)
    bad = ens.channels["S"].astype(object)
    bad[2 * SMALL_BLOCK + 1, 3] = _Unprintable()  # in the third block
    ens.attach("bad", bad)
    out = tmp_path / "paths.csv"
    with mock.patch.object(market, "CSV_BLOCK_PATHS", SMALL_BLOCK), \
            mock.patch("os.sched_getaffinity", return_value=set(range(cpus))), \
            pytest.raises(RuntimeError, match="value cannot be formatted"):
        dl.ensemble_to_csv(ens, out, channels=["bad"])
    # the blocks before the failing one, whole and in order, then nothing
    lines = out.read_bytes().splitlines()
    assert len(lines) == 1 + 2 * SMALL_BLOCK * (n_steps + 1)
    assert lines[-1].startswith(b"%d," % (2 * SMALL_BLOCK - 1))
