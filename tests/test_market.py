import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duallab as dl
from duallab import market
from duallab.market import terminal_log_wealth

from conftest import BASE_SEED, make_ensemble

SRC = Path(__file__).resolve().parents[1] / "src"


def test_drivers_deterministic(base_model, grid100):
    a = dl.simulate_drivers(base_model, grid100, 2, seed=7)
    b = dl.simulate_drivers(base_model, grid100, 2, seed=7)
    assert np.array_equal(a.brownian_increments, b.brownian_increments)
    assert np.array_equal(a.jump_counts, b.jump_counts)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    lam_dt=st.lists(st.sampled_from([0.003, 0.01, 0.4, 5.0, 10.0, 37.5]), max_size=3),
    n_paths=st.integers(1, 60),
    chunk=st.integers(1, 17),
)
def test_chunked_event_draw_equals_one_poisson_draw(seed, lam_dt, n_paths, chunk):
    # numpy draws lambda < 10 by multiplication and lambda >= 10 by PTRS; a
    # numpy whose stream changes fails here, not in a solver's figures
    n_steps = 7
    grid = dl.TimeGrid(n_steps, 1.0)
    model = dl.MarketModel(drift=0.1, vol=0.2, jump_marks=(0.1, -0.2, 0.3)[:len(lam_dt)],
                           jump_intensities=tuple(x * n_steps for x in lam_dt))
    with mock.patch.object(market, "POISSON_CHUNK_PATHS", chunk):
        ens = dl.simulate_drivers(model, grid, n_paths, seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    db = rng.normal(0.0, math.sqrt(grid.dt), size=(n_paths, n_steps))
    counts = (rng.poisson(lam=model.intensities * grid.dt, size=(n_paths, n_steps, len(lam_dt)))
              if lam_dt else np.zeros((n_paths, n_steps, 0)))
    assert np.array_equal(ens.brownian_increments, db)
    assert np.array_equal(ens.jump_counts, counts)
    events = ens.jumps
    assert events.paths.dtype == np.int32 and np.all(events.counts >= 1)
    assert events.paths.size == np.count_nonzero(counts)
    assert np.array_equal(dl.PathEnsemble(model, grid, n_paths, seed, db, counts).jump_counts,
                          counts)


def test_no_marks_means_no_jumps(base_model, grid100):
    ens = dl.simulate_drivers(base_model, grid100, 10, seed=1)
    assert ens.jump_counts.shape == (10, 100, 0)


def test_poisson_step_mean(grid100):
    # unit intensity, dt = 0.01: per-step count mean 0.01 over 1e5 samples
    model = dl.MarketModel(drift=0.0, vol=0.1, jump_marks=(0.1,),
                           jump_intensities=(1.0,), horizon=1.0)
    ens = dl.simulate_drivers(model, grid100, 1_000, seed=3)
    counts = ens.jump_counts[:, :, 0].ravel()
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - 0.01) < 3 * se


def test_default_jump_sizes_are_the_marks(grid100):
    marks = (0.1, -0.25, 0.4)
    default = dl.MarketModel(jump_marks=marks, jump_intensities=(1.0, 0.5, 0.2))
    explicit = dl.MarketModel(jump_marks=marks, jump_intensities=(1.0, 0.5, 0.2),
                              jump_size=lambda t, mark: mark)
    assert np.array_equal(default.jump_sizes_on(grid100), explicit.jump_sizes_on(grid100))
    assert dl.MarketModel().jump_sizes_on(grid100).shape == (100, 0)


def test_non_finite_coefficients_rejected(grid100):
    model = dl.MarketModel(drift=lambda t: math.inf, vol=0.2, horizon=1.0)
    with pytest.raises(ValueError, match="not finite"):
        dl.simulate_drivers(model, grid100, 2, seed=0)


def test_price_constant_without_dynamics(grid100):
    model = dl.MarketModel(drift=0.0, vol=0.0, horizon=1.0, s0=2.0)
    ens = dl.simulate_drivers(model, grid100, 5, seed=0)
    s = dl.price_paths(model, ens)
    assert np.allclose(s, 2.0, rtol=0, atol=0)


def test_price_mean_matches_lognormal(base_model, grid100):
    ens = dl.simulate_drivers(base_model, grid100, 100_000, seed=5)
    s = dl.price_paths(base_model, ens)
    ratio = s[:, -1] / base_model.s0
    se = ratio.std(ddof=1) / math.sqrt(ratio.size)
    assert abs(ratio.mean() - math.exp(0.05)) < 3 * se


def test_price_forced_jump_multiplies(grid100):
    model = dl.MarketModel(drift=0.0, vol=0.0, jump_marks=(0.1,),
                           jump_intensities=(1.0,), horizon=1.0)
    counts = np.zeros((1, 100, 1))
    quiet = dl.PathEnsemble(model, grid100, 1, 0, np.zeros((1, 100)), counts.copy())
    # the drivers are frozen once the ensemble is built: the jump goes in first
    counts[0, 40, 0] = 1.0
    jumped = dl.PathEnsemble(model, grid100, 1, 0, np.zeros((1, 100)), counts)
    assert np.array_equal(jumped.jump_counts, counts)
    s_quiet = dl.price_paths(model, quiet)
    s_jump = dl.price_paths(model, jumped)
    step_ratio = (s_jump[0, 41] / s_jump[0, 40]) / (s_quiet[0, 41] / s_quiet[0, 40])
    assert step_ratio == pytest.approx(1.1, abs=1e-15)


def test_wealth_riskless(base_model, base_ens_5k):
    x = dl.wealth_paths(base_model, base_ens_5k, dl.Strategy.fraction(0.0), 3.0)
    assert np.allclose(x, 3.0, rtol=0, atol=0)


def test_wealth_fully_invested_tracks_price(base_model, base_ens_5k):
    x = dl.wealth_paths(base_model, base_ens_5k, dl.Strategy.fraction(1.0), 1.0)
    s = base_ens_5k.channel("S")
    assert np.allclose(x / x[:, :1], s / s[:, :1], rtol=1e-12, atol=0)


def test_price_channel_built_on_first_read(jump_model, grid100):
    ens = dl.simulate_drivers(jump_model, grid100, 300, seed=11)
    assert "S" not in ens.channels
    s = ens.channel("S")
    assert ens.channels["S"] is s and ens.channel("S") is s
    fresh = dl.simulate_drivers(jump_model, grid100, 300, seed=11)
    assert np.array_equal(s, dl.price_paths(jump_model, fresh))
    # unit-count wealth reads the price the same way, built or attached
    lazy = dl.simulate_drivers(jump_model, grid100, 300, seed=11)
    phi = dl.Strategy.units(0.5)
    assert np.array_equal(dl.wealth_paths(jump_model, lazy, phi, 2.0),
                          dl.wealth_paths(jump_model, fresh, phi, 2.0))
    with pytest.raises(KeyError, match="'X' not attached"):
        ens.channel("X")


def test_wealth_log_mean_maximal_at_merton_fraction(base_model, base_ens_5k):
    # grid oracle: mean log-wealth peaks at b/sigma^2
    controls = base_ens_5k.terminal_design()[:, 1:]
    from duallab.mc import cv_mean

    grid_pi = np.round(np.arange(0.0, 2.51, 0.25), 10)
    values = [cv_mean(terminal_log_wealth(base_model, base_ens_5k, p, 1.0), controls)[0]
              for p in grid_pi]
    assert grid_pi[int(np.argmax(values))] == 1.25


def test_wealth_unit_count_positivity_signalled(base_model, base_ens_5k):
    with pytest.raises(dl.AdmissibilityError, match="non-positive"):
        dl.wealth_paths(base_model, base_ens_5k, dl.Strategy.units(500.0), 1.0)


def test_wealth_pathwise_fraction_values(base_model, base_ens_5k):
    pi = np.full((base_ens_5k.n_paths, 100), 0.5)
    x = dl.wealth_paths(base_model, base_ens_5k, dl.Strategy.fraction(pi), 1.0)
    x_const = dl.wealth_paths(base_model, base_ens_5k, dl.Strategy.fraction(0.5), 1.0)
    assert np.array_equal(x, x_const)


def test_density_trivial_control(base_model, base_ens_5k, grid100):
    control = dl.ScenarioControl(theta0=np.zeros(100), theta1=np.zeros((100, 0)), y=2.5)
    g = dl.density_paths(base_ens_5k, control)
    assert np.allclose(g, 2.5, rtol=0, atol=0)


def test_density_matches_exponential_closed_form(base_model, base_ens_5k, grid100):
    control = dl.unique_scenario_no_jumps(base_model, grid100, 1.0)
    g = dl.density_paths(base_ens_5k, control)
    b_total = base_ens_5k.brownian_increments.sum(axis=1)
    closed = np.exp(-0.25 * b_total - 0.5 * 0.25**2 * 1.0)
    assert np.allclose(g[:, -1], closed, rtol=1e-12, atol=0)


def test_density_martingale_at_all_grid_times(base_model, grid100):
    ens = make_ensemble(base_model, n_paths=100_000, seed=9)
    control = dl.unique_scenario_no_jumps(base_model, grid100, 1.0)
    g = dl.density_paths(ens, control)
    for j in range(0, 101, 10):
        se = g[:, j].std(ddof=1) / math.sqrt(ens.n_paths)
        assert abs(g[:, j].mean() - 1.0) <= 3 * se + 1e-12


def test_density_rejects_theta1_below_floor(jump_model, grid100):
    ens = make_ensemble(jump_model, n_paths=10, seed=1)
    control = dl.ScenarioControl(theta0=np.zeros(100),
                                 theta1=np.full((100, 1), -1.0), y=1.0)
    with pytest.raises(ValueError, match="theta1"):
        dl.density_paths(ens, control)


def test_elmm_residual_examples(base_model, jump_model, grid100):
    control = dl.ScenarioControl(theta0=np.full(100, -0.25), theta1=np.zeros((100, 0)), y=1.0)
    assert np.max(np.abs(dl.elmm_residual(base_model, grid100, control))) == 0.0

    control_j = dl.ScenarioControl(theta0=np.full(100, -0.25),
                                   theta1=np.full((100, 1), -0.5), y=1.0)
    assert np.max(np.abs(dl.elmm_residual(jump_model, grid100, control_j))) < 1e-16

    zero = dl.ScenarioControl(theta0=np.zeros(100), theta1=np.zeros((100, 0)), y=1.0)
    assert dl.elmm_residual(base_model, grid100, zero) == pytest.approx(np.full(100, 0.05))


def test_perturbed_model(base_model, grid100):
    # the perturbed drift b + mu*sigma
    same = base_model.drift_on(grid100, 0.0)
    assert np.array_equal(same, base_model.drift_on(grid100))

    flat = base_model.drift_on(grid100, -0.25)  # -b/sigma
    assert np.allclose(flat, 0.0, atol=1e-18)

    half = base_model.drift_on(grid100, -0.125)  # -b/(2 sigma)
    assert np.allclose(half, 0.025, rtol=1e-15)


def test_ensemble_exports(tmp_path, base_model):
    ens = make_ensemble(base_model, n_steps=4, n_paths=3, seed=2)
    out = tmp_path / "paths.csv"
    dl.ensemble_to_csv(ens, out, channels=["S"], header_comment="config_hash=abc")
    lines = out.read_text().splitlines()
    assert lines[0] == "# config_hash=abc"
    assert lines[1] == "path,time,S"
    assert len(lines) == 2 + 3 * 5
    spot = ens.channels["S"]
    for row, line in enumerate(lines[2:]):
        p, _, value = line.split(",")
        assert int(p) == row // 5 and float(value) == spot[row // 5, row % 5]
    summary = dl.ensemble_summary(ens)
    assert summary["n_paths"] == 3 and "S" in summary["channels"]


@pytest.mark.parametrize("shape", [(5, 10), (7, 11)], ids=["adjoint-shaped", "more-paths"])
def test_csv_refuses_a_channel_not_shaped_paths_by_times(tmp_path, base_model, shape):
    # 5 paths x 10 steps: every channel must be (5, 11)
    ens = make_ensemble(base_model, n_steps=10, n_paths=5, seed=2)
    ens.attach("q", np.zeros(shape))
    out = tmp_path / "paths.csv"
    with pytest.raises(ValueError, match=re.escape(f"channel 'q' has shape {shape}, "
                                                   "not (n_paths, n_steps + 1) = (5, 11)")):
        dl.ensemble_to_csv(ens, out, channels=["S", "q"])
    assert not out.exists()


def test_import_starts_no_process_machinery():
    # the path-range threads are started per call, never at import
    code = (
        "import sys, threading\n"
        "import duallab, duallab.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
        "print(threading.active_count())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=120)
    assert out.stdout.split() == ["[]", "1"]


@pytest.mark.parametrize("n_marks", [0, 1, 2])
def test_terminal_design_matches_summed_compensated_jumps(grid100, n_marks):
    model = dl.MarketModel(drift=0.1, vol=0.2, jump_marks=(0.1, -0.2)[:n_marks],
                           jump_intensities=(1.0, 3.0)[:n_marks])
    ens = dl.simulate_drivers(model, grid100, 2_000, seed=7)
    design = ens.terminal_design()
    assert design.shape == (2_000, 2 + n_marks)
    assert np.all(design[:, 0] == 1.0)
    assert np.array_equal(design[:, 1], ens.brownian_increments.sum(axis=1))
    # N_T - lambda T against the sum of the per-step Ntilde: rounding of lambda dt
    summed = ens.compensated_jumps.sum(axis=1)
    assert np.all(np.abs(design[:, 2:] - summed) <= 1e-12)


@settings(max_examples=20, deadline=None)
@given(
    b=st.floats(-0.2, 0.2),
    sigma=st.floats(0.05, 0.5),
    gamma=st.floats(-0.5, 0.5),
    seed=st.integers(0, 2**31 - 1),
)
def test_forward_positivity_property(b, sigma, gamma, seed):
    marks = (gamma,) if abs(gamma) > 1e-3 else ()
    model = dl.MarketModel(drift=b, vol=sigma, jump_marks=marks,
                           jump_intensities=(0.5,) * len(marks), horizon=0.5)
    grid = dl.TimeGrid(20, 0.5)
    ens = dl.simulate_drivers(model, grid, 50, seed=seed)
    s = dl.price_paths(model, ens)
    assert np.all(s > 0)
    x = dl.wealth_paths(model, ens, dl.Strategy.fraction(0.5), 1.0)
    assert np.all(x > 0)


def test_every_path_array_is_a_view_of_time_major_rows(jump_model, log_pair):
    # (n_paths, ...) arrays whose transposes are C-contiguous: one row of
    # paths per step (and mark)
    ens = make_ensemble(jump_model, n_steps=20, n_paths=300, seed=71)
    grid = ens.grid
    control = dl.scenario_from_theta1(jump_model, grid, np.array([-0.1]), 1.0)
    arrays = {
        "dB": ens.brownian_increments,
        "dB given path-major": dl.PathEnsemble(jump_model, grid, 300, 71,
                                               np.ascontiguousarray(ens.brownian_increments),
                                               ens.jump_counts).brownian_increments,
        "S": dl.price_paths(jump_model, ens),
        "exact wealth": dl.wealth_paths(jump_model, ens, dl.Strategy.fraction(0.5), 1.0),
        "Euler wealth, fraction": dl.wealth_paths(jump_model, ens, dl.Strategy.fraction(0.5),
                                                  1.0, scheme="euler"),
        "Euler wealth, units": dl.wealth_paths(jump_model, ens, dl.Strategy.units(0.3), 1.0),
        "density": dl.density_paths(ens, control),
        "Euler density": dl.density_paths(ens, control, scheme="euler"),
    }
    for mode in ("analytic", "regression"):
        primal = dl.solve_primal_search(jump_model, log_pair, 1.0, [0.5], ens, adjoint_mode=mode,
                                        keep="pqr")
        dual_sol = dl.evaluate_dual_scenario(jump_model, log_pair, control, ens, adjoint_mode=mode)
        for side, adj in (("primal", primal.adjoints), ("dual", dual_sol.adjoints)):
            arrays.update({f"{mode} {side} {c}": getattr(adj, c) for c in "pqr"})
    arrays["portfolio"] = dl.replicating_portfolio(dual_sol)[0]
    arrays["bridged fraction"] = dl.dual_to_primal(dual_sol)[0].values
    for name, values in arrays.items():
        assert values.shape[0] == 300, name
        assert values.T.flags.c_contiguous, name


def test_mark_of_size_zero_is_not_live():
    """Kills ``market.vanishing_vol``: ``gam != 0`` -> ``gam != 1``, and
    ``dual.dual_driver``: ``np.where(degenerate, 0.0, ...)`` -> ``1.0``.

    A mark of size 0 carries no exposure on a sigma = 0 step: it is not
    live, so with b = 0 the scenario keeps its theta1, where weighting it
    would divide 0 by 0."""
    three = dl.MarketModel(drift=0.0, vol=0.0, jump_marks=(0.0, 0.2, 1.0),
                           jump_intensities=(1.0, 2.0, 0.5), horizon=1.0)
    branch = market.vanishing_vol(three, dl.TimeGrid(2, 1.0))
    assert branch.steps.tolist() == [True, True]
    assert branch.live.tolist() == [[False, True, True]] * 2
    assert branch.weight[0].tolist() == pytest.approx([0.0, 0.4 / 0.58, 0.5 / 0.58])
    model = dl.MarketModel(drift=0.0, vol=0.0, jump_marks=(0.0,), jump_intensities=(1.0,),
                           horizon=1.0)
    grid = dl.TimeGrid(5, 1.0)
    control = dl.scenario_from_theta1(model, grid, [0.2], 1.0)
    assert np.all(control.theta0 == 0.0) and np.all(control.theta1 == 0.2)
    driver = dl.dual.dual_driver(model, grid)
    assert np.all(driver.r_coeff == 0.0) and np.all(driver.q_coeff == 0.0)
