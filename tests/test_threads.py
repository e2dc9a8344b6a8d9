"""The per-path layers split over threads against the same layers on one CPU,
and against the dense jump-count readers of ``oracles.dense_jumps``.

The forward kernels, the Euler scheme, the terminal design, the replicating
portfolio and the factor-ahead thread of the backward sweep must give the
same bits on any number of threads, and the same bits as when they read a
dense count array instead of the jump events.  The one-CPU side is pinned by
``os.sched_getaffinity``; the split thresholds and the block sizes are
lowered so that 200 paths make several ranges of several blocks each, the
last ones partial.
"""

import contextlib
import threading
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duallab as dl
from duallab import bsde, dual, market

import oracles
from test_differential import forward_cases

Thread = threading.Thread


@contextlib.contextmanager
def cpus(n):
    """``n`` usable CPUs, splits from 16 paths per thread and small blocks;
    yields a mock that counts the threads started."""
    with mock.patch("os.sched_getaffinity", return_value=set(range(n))), \
            mock.patch.object(market, "THREAD_MIN_PATHS", 16), \
            mock.patch.object(market, "BLOCK_PATHS", 24), \
            mock.patch.object(market, "FILL_BLOCK_BYTES", 2**12), \
            mock.patch.object(bsde, "SWEEP_THREAD_MIN_PATHS", 16), \
            mock.patch("threading.Thread", wraps=Thread) as started:
        yield started


def on_one_and_on_three_cpus(fn, prepare=lambda: None):
    """fn() on one CPU and on three, and on one CPU with the dense jump
    readers, each after ``prepare()`` on the same side; the outcomes, each a
    result or the exception raised, checked for leftover threads and for the
    threads fn() started."""
    outcomes = []
    for n, readers in ((1, contextlib.nullcontext), (3, contextlib.nullcontext),
                       (1, oracles.dense_jumps)):
        alive = threading.active_count()
        with cpus(n) as started, readers():
            assert len(market.path_ranges(200)) == n
            prepare()
            started.reset_mock()
            try:
                outcomes.append(fn())
            except Exception as exc:  # the same failure on every side
                outcomes.append(exc)
        # every thread is joined before the call returns, so that a fork of
        # the CSV writer never sees a live thread
        assert threading.active_count() == alive
        # an input refused up front starts none
        ran = not isinstance(outcomes[-1], Exception)
        assert (started.call_count > 0) == (n > 1 and ran)
    return outcomes


def assert_same(one, *others):
    for other in others:
        if isinstance(one, Exception):
            assert type(other) is type(one) and str(other) == str(one)
            continue
        assert len(one) == len(other)
        for a, b in zip(one, other):
            assert np.shape(a) == np.shape(b)
            assert np.array_equal(a, b, equal_nan=True)


@settings(max_examples=25, deadline=None)
@given(case=forward_cases(), mu=st.sampled_from([None, -0.1]), size=st.sampled_from([0.9, 4.0]))
def test_forward_and_euler_paths_bit_identical_on_every_cpu_count(case, mu, size):
    model, ens, rng = case
    grid = ens.grid
    per_path = rng.uniform(-size, size, size=(ens.n_paths, grid.n_steps))
    units = rng.uniform(-1.0, 1.0, size=(ens.n_paths, grid.n_steps))
    k = model.n_marks
    control = dl.ScenarioControl(theta0=rng.uniform(-0.5, 0.5, grid.n_steps),
                                 theta1=rng.uniform(-0.5, 0.5, (grid.n_steps, k)), y=1.3)

    def channels():
        ens.channels.clear()
        return (dl.price_paths(model, ens),
                dl.wealth_paths(model, ens, dl.Strategy.fraction(0.5), 1.2, mu=mu),
                dl.density_paths(ens, control),
                market._euler_wealth(model, ens, dl.Strategy.units(units), 1.2, mu=mu),
                market._euler_wealth(model, ens, dl.Strategy.fraction(0.5), 1.2, mu=mu),
                market._euler_paths(ens, 1.3, np.zeros(grid.n_steps), control.theta0,
                                    control.theta1, lambda i, g, paths, out: g),
                ens.terminal_design())

    def per_path_fraction():
        return (dl.wealth_paths(model, ens, dl.Strategy.fraction(per_path), 1.2, mu=mu),)

    assert_same(*on_one_and_on_three_cpus(channels))
    assert_same(*on_one_and_on_three_cpus(per_path_fraction))


@settings(max_examples=25, deadline=None)
@given(case=forward_cases(), consistent=st.booleans())
def test_replicating_portfolio_bit_identical_on_every_cpu_count(case, consistent):
    model, ens, rng = case
    grid = ens.grid
    k = model.n_marks
    q = rng.normal(size=(ens.n_paths, grid.n_steps))
    r = rng.normal(size=(ens.n_paths, grid.n_steps, k))
    if consistent:
        # where sigma vanishes without a live mark, consistent adjoints carry
        # no integrand; otherwise both sides raise
        flat = model.vol_on(grid) == 0.0
        q[:, flat] = 0.0
        r[:, flat] = 0.0
    p = rng.uniform(0.5, 1.5, size=(ens.n_paths, grid.n_steps + 1))
    solution = types.SimpleNamespace(model=model, ensemble=ens,
                                     adjoints=dl.AdjointTriple(p, q, r))

    def price():
        # the price S it reads is built anew on each side
        ens.channels.clear()
        dl.price_paths(model, ens)

    assert_same(*on_one_and_on_three_cpus(lambda: dual.replicating_portfolio(solution), price))


def replications(model, ens, adjoints, density, mu):
    """The replication dict of a dual solve with these adjoints and density
    paths (the adjoint solve replaced), then those of ``replication_check``
    on the portfolio array and of the step-loop oracle, each as a tuple."""
    pair = dl.make_log_utility()
    control = dl.ScenarioControl(theta0=np.zeros(ens.grid.n_steps),
                                 theta1=np.zeros((ens.grid.n_steps, model.n_marks)), y=1.0, mu=mu)
    with mock.patch.object(dual, "dual_adjoints", return_value=adjoints):
        solution = dual._dual_solution(
            model, ens, pair, control, "regression", None, True, foc=lambda solution: None,
            density=density, value=0.0, se=0.0, theta1_values=[], candidate_values=np.zeros(1),
            candidate_se=np.zeros(1))
    target = pair.inverse_marginal(density[:, -1])
    phi, x0 = dl.replicating_portfolio(solution)
    return tuple(tuple(stats.values()) for stats in (
        solution.replication,
        dl.replication_check(model, phi, x0, target, ens, mu=mu),
        oracles.replication_check(model, phi, x0, target, ens, mu=mu)))


@settings(max_examples=25, deadline=None)
@given(case=forward_cases(), consistent=st.booleans(), size=st.sampled_from([0.1, 30.0]),
       mu=st.sampled_from([None, -0.1]))
def test_streamed_replication_equals_the_portfolio_array_and_the_step_loop(case, consistent,
                                                                           size, mu):
    # where sigma vanishes, a market with marks takes the jump branch; one
    # without raises on inconsistent adjoints before any step is taken, so
    # no thread starts; integrands of size 30 drive wealth through zero
    model, ens, rng = case
    grid = ens.grid
    # p and G first: rng is keyed by the ensemble's seed, so normals drawn
    # first would be dB itself, scaled
    p = rng.uniform(0.5, 1.5, size=(ens.n_paths, grid.n_steps + 1))
    density = rng.uniform(0.5, 2.0, size=(ens.n_paths, grid.n_steps + 1))
    q = rng.normal(scale=size, size=(ens.n_paths, grid.n_steps))
    r = rng.normal(scale=size, size=(ens.n_paths, grid.n_steps, model.n_marks))
    flat = model.vol_on(grid) == 0.0
    if consistent:
        q[:, flat] = 0.0
    adjoints = dl.AdjointTriple(p, q, r)

    def price():
        ens.channels.clear()
        dl.price_paths(model, ens)

    outcomes = on_one_and_on_three_cpus(
        lambda: replications(model, ens, adjoints, density, mu), price)
    assert_same(*outcomes)
    if not consistent and model.n_marks == 0 and np.any(flat):
        assert isinstance(outcomes[0], ValueError)
        assert "inconsistent adjoints" in str(outcomes[0])
        return
    solved, from_array, from_loop = outcomes[0]
    assert solved == from_array == from_loop
    if size == 30.0:
        assert solved[3] > 0  # n_nonpositive


def test_streamed_replication_of_a_solved_jump_branch():
    # sigma = 0 on the first half: the claim is carried by the jump branch
    model = dl.MarketModel(drift=0.05, vol=lambda t: 0.0 if t < 0.5 else 0.2,
                           jump_marks=(0.1, -0.2), jump_intensities=(1.0, 0.5), horizon=1.0)
    ens = dl.simulate_drivers(model, dl.TimeGrid(20, 1.0), 200, seed=11)
    control = dl.scenario_from_theta1(model, ens.grid, [-0.3, 0.2], 1.0)

    def solve():
        ens.channels.clear()
        solution = dl.evaluate_dual_scenario(model, dl.make_log_utility(), control, ens,
                                             adjoint_mode="analytic", replicate=True)
        phi, x0 = dl.replicating_portfolio(solution)
        target = 1.0 / solution.density[:, -1]
        return (phi, tuple(solution.replication.values()),
                tuple(dl.replication_check(model, phi, x0, target, ens).values()),
                tuple(oracles.replication_check(model, phi, x0, target, ens).values()))

    outcomes = on_one_and_on_three_cpus(solve)
    assert_same(*outcomes)
    phi, solved, from_array, from_loop = outcomes[0]
    assert np.all(phi[:, :10] != 0.0)
    assert solved == from_array == from_loop


def test_inconsistent_adjoints_raise_before_any_step():
    # sigma = 0 and no marks: nonzero integrands contradict the market
    model = dl.MarketModel(drift=0.0, vol=lambda t: 0.0 if t < 0.5 else 0.2, horizon=1.0)
    ens = dl.simulate_drivers(model, dl.TimeGrid(20, 1.0), 200, seed=13)
    dl.price_paths(model, ens)
    q = np.full((200, 20), 0.3)
    adjoints = dl.AdjointTriple(np.ones((200, 21)), q, np.zeros((200, 20, 0)))
    with cpus(3), mock.patch.object(dual, "_euler_paths") as euler, \
            pytest.raises(ValueError, match="inconsistent adjoints at step 0"):
        replications(model, ens, adjoints, np.ones((200, 21)), None)
    assert euler.call_count == 0


@settings(max_examples=15, deadline=None)
@given(case=forward_cases(), driver=st.booleans(), collinear=st.booleans())
def test_sweeps_bit_identical_on_every_cpu_count(case, driver, collinear):
    # with and without a driver, jumps and the Householder fallback (the
    # collinear state makes every step rank-deficient, and warns once; so
    # can a price that takes few values on a step where sigma vanishes)
    model, ens, rng = case
    s = dl.price_paths(model, ens)
    state = {"S": s, "S2": s**2} if collinear else {"S": s}
    drivers = dl.DriverSpec(constant=0.1, p_coeff=0.2, q_coeff=0.25, r_coeff=0.1) if driver else None
    terminal = np.log(s[:, -1]) + rng.normal(scale=0.1, size=ens.n_paths)

    def sweep():
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            triple = dl.solve_linear_bsde(ens, terminal, drivers, state=state)
        report = dl.bsde_residual_report(triple, ens, drivers, state=state)
        return triple, [str(w.message) for w in warned], report

    (one, one_warned, one_report), *others = on_one_and_on_three_cpus(sweep)
    assert len(one_warned) >= collinear
    for other, warned, report in others:
        assert_same((one.p, one.q, one.r), (other.p, other.q, other.r))
        assert one.diagnostics == other.diagnostics
        assert one_warned == warned
        assert one_report == report


@pytest.mark.parametrize("per_range, threaded", [(bsde.SWEEP_THREAD_MIN_PATHS - 1, False),
                                                (bsde.SWEEP_THREAD_MIN_PATHS, True)])
def test_the_sweep_starts_its_thread_from_its_own_threshold(base_model, per_range, threaded):
    # below SWEEP_THREAD_MIN_PATHS paths per range the factor-ahead thread
    # costs more than it saves, though the forward kernels split there
    assert per_range >= market.THREAD_MIN_PATHS
    ens = dl.simulate_drivers(base_model, dl.TimeGrid(4, 1.0), 2 * per_range, seed=5)
    s = dl.price_paths(base_model, ens)
    with mock.patch("os.sched_getaffinity", return_value={0, 1}), \
            mock.patch("threading.Thread", wraps=Thread) as started:
        dl.solve_linear_bsde(ens, s[:, -1], state={"S": s})
    assert started.call_count == threaded


def test_an_error_in_a_later_range_reaches_the_caller():
    alive = threading.active_count()
    seen = []

    def fn(paths):
        seen.append(paths)
        if paths.start > 0:
            raise RuntimeError(f"range from {paths.start} failed")

    with cpus(3), pytest.raises(RuntimeError, match="range from 66 failed"):
        market._over_paths(fn, 200)
    assert sorted(p.start for p in seen) == [0, 66, 133]
    assert threading.active_count() == alive


def test_an_error_in_the_factor_thread_reaches_the_caller(base_model):
    ens = dl.simulate_drivers(base_model, dl.TimeGrid(20, 1.0), 200, seed=5)
    s = dl.price_paths(base_model, ens)
    alive = threading.active_count()
    real = bsde._BasisBuilder.factor_step

    def failing(self, step, scratch):
        if step == 7:
            raise FloatingPointError("factor failed at step 7")
        return real(self, step, scratch)

    with cpus(2), mock.patch.object(bsde._BasisBuilder, "factor_step", failing), \
            pytest.raises(FloatingPointError, match="at step 7"):
        dl.solve_linear_bsde(ens, s[:, -1])
    assert threading.active_count() == alive


def test_a_range_whose_thread_cannot_start_runs_here():
    out = np.zeros(200)

    def fill(paths):
        out[paths] = threading.get_ident()

    with cpus(2), mock.patch.object(Thread, "start",
                                    side_effect=RuntimeError("can't start new thread")):
        market._over_paths(fill, 200)
    assert np.all(out == threading.get_ident())
