"""Peak memory of the driver draw, the forward paths, the candidate search,
the backward sweep and the replication of a dual solve.

The driver draw keeps dB and the jump events, and holds one chunk of Poisson
counts at a time; no solver builds a dense count array.  Each forward
function writes its log increments into the output array and sums,
exponentiates and scales them there, so its peak allocation is the output
plus at most one (n_paths, n_steps) temporary.  A candidate search evaluates
every block of candidates into the same two block-sized buffers.  The
backward sweep allocates p, q, r and the time-major log-state, plus per-step
rows and one transposed block of dB.  The terminal design sums the drivers
into its own columns.  The replication of a dual solve forms the portfolio
one step at a time and keeps two Euler wealth rows, so it allocates a few
rows per path range and no (n_paths, n_steps) array.  numpy reports its buffers to ``tracemalloc``.  A run
fixes glibc's malloc thresholds, so that an array of a MiB or more goes back
to the system when it is freed.
"""

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml

import duallab as dl
from duallab import cli, dual, market, mc, primal, robust
from duallab.bsde import STEP_BLOCK
from duallab.config import validate_config

SRC = Path(__file__).resolve().parents[1] / "src"
N_PATHS, N_STEPS = 2_000, 100
# numpy's iterator buffers and the per-step coefficient vectors; the same at
# any n_paths (about 134 KB measured at 2k and at 5k paths)
FIXED_SLACK = 256 * 2**10


@pytest.fixture(scope="module")
def one_mark():
    model = dl.MarketModel(drift=0.1, vol=0.2, jump_marks=(0.1,), jump_intensities=(1.0,),
                           horizon=1.0)
    ens = dl.simulate_drivers(model, dl.TimeGrid(N_STEPS, 1.0), N_PATHS, seed=7)
    dl.price_paths(model, ens)
    return model, ens


def _nbytes(events):
    return sum(a.nbytes for a in (events.offsets, events.paths, events.counts, *events.cells))


def test_driver_draw_peak_is_db_plus_events_plus_one_chunk():
    model = dl.MarketModel(drift=0.1, vol=0.2, jump_marks=(0.1,), jump_intensities=(1.0,))
    grid = dl.TimeGrid(N_STEPS, 1.0)
    # numpy.random imports its modules on first use: not part of the draw
    dl.simulate_drivers(model, grid, 1, seed=0)
    chunk = 256
    with mock.patch.object(market, "POISSON_CHUNK_PATHS", chunk):
        peak, ens = _peak(lambda: dl.simulate_drivers(model, grid, N_PATHS, seed=7))
    events = ens.jumps
    assert events.paths.size == np.count_nonzero(ens.jump_counts)
    # the int64 counts of one chunk, and the events with the temporaries of
    # their sort: under 64 bytes per event (about 40 measured); a dense draw
    # and its float copy would take 2 * 8 bytes per (path, step)
    one_chunk = chunk * N_STEPS * 8
    assert _nbytes(events) <= 40 * events.paths.size + 8 * (N_STEPS + 1)
    assert peak <= ens.brownian_increments.nbytes + one_chunk + 64 * events.paths.size \
        + FIXED_SLACK


def test_a_jump_dual_run_builds_no_dense_counts(tmp_path):
    with open(Path(__file__).resolve().parents[1] / "configs" / "jump_dual.yaml") as fh:
        raw = yaml.safe_load(fh)
    raw["mc"]["paths"] = 1_000
    raw["out"] = str(tmp_path / "run")

    def refuse(*args):
        raise AssertionError("a solver built a dense jump-count array")

    with mock.patch.object(market.JumpEvents, "dense", refuse), \
            mock.patch.object(market.PathEnsemble, "jump_counts", property(refuse)), \
            mock.patch.object(market.PathEnsemble, "compensated_jumps", property(refuse)):
        cli.run_experiment(validate_config(raw))
    assert (tmp_path / "run" / "solution.json").exists()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
@pytest.mark.parametrize("fixed, kept_mib", [(False, 8), (True, 0)])
def test_a_run_returns_freed_arrays_to_the_system(fixed, kept_mib):
    # a freed 16 MiB block raises glibc's dynamic mmap threshold to 16 MiB,
    # so a touched and freed 8 MiB array stays resident in the heap, unless
    # the thresholds were fixed, as a run fixes them
    code = (
        "import os, numpy as np\n"
        "from duallab import cli\n"
        f"if {fixed}: cli._map_large_arrays()\n"
        "def rss(): return int(open('/proc/self/statm').read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
        "np.ones(2 * 2**20).sum()\n"
        "before = rss()\n"
        "np.ones(2**20).sum()\n"
        "print((rss() - before) / 2**20)\n"
    )
    # glibc's defaults: no MALLOC_* tunable from the environment
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**env, "PYTHONPATH": str(SRC)}, timeout=120)
    assert abs(float(out.stdout) - kept_mib) < 1


def _peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", ["price", "density", "wealth_per_step", "wealth_per_path"])
def test_forward_peak_is_output_plus_one_array(one_mark, case):
    model, ens = one_mark
    per_path = np.full((N_PATHS, N_STEPS), 0.5)
    control = dl.ScenarioControl(theta0=np.full(N_STEPS, -0.3),
                                 theta1=np.full((N_STEPS, 1), 0.1), y=1.0)
    run = {
        "price": lambda: dl.price_paths(model, ens),
        "density": lambda: dl.density_paths(ens, control),
        "wealth_per_step": lambda: dl.wealth_paths(model, ens, dl.Strategy.fraction(0.5), 1.0),
        "wealth_per_path": lambda: dl.wealth_paths(model, ens, dl.Strategy.fraction(per_path), 1.0),
    }[case]
    peak, out = _peak(run)
    assert out.shape == (N_PATHS, N_STEPS + 1)
    assert peak <= out.nbytes + N_PATHS * N_STEPS * 8 + FIXED_SLACK


def test_sweep_peak_is_outputs_plus_log_state_plus_step_rows(one_mark):
    model, ens = one_mark
    wealth = dl.wealth_paths(model, ens, dl.Strategy.fraction(0.5), 1.0)
    # the regression reads X only: the F thunk is never evaluated
    state = {"X": wealth, "F": lambda: 1.0 / wealth}
    peak, triple = _peak(lambda: dl.solve_linear_bsde(
        ens, 1.0 / wealth[:, -1], driver=dl.DriverSpec(q_coeff=0.25, r_coeff=0.1),
        state=state, basis=dl.RegressionBasis(channels=("X",))))
    log_state = wealth.nbytes
    # one transposed block of dB and one compensated-jump row per mark, each
    # allocated once per sweep, and about ten per-step rows: design, its
    # factors, fits and targets
    rows = STEP_BLOCK + model.n_marks + 16
    budget = rows * N_PATHS * 8 + FIXED_SLACK
    assert peak <= triple.p.nbytes + triple.q.nbytes + triple.r.nbytes + log_state + budget


@pytest.mark.parametrize("n_marks", [0, 1, 2])
def test_terminal_design_peak_is_design_plus_one_jump_total(n_marks):
    model = dl.MarketModel(drift=0.1, vol=0.2, jump_marks=(0.1, -0.2)[:n_marks],
                           jump_intensities=(1.0, 3.0)[:n_marks])
    ens = dl.simulate_drivers(model, dl.TimeGrid(N_STEPS, 1.0), N_PATHS, seed=7)
    peak, design = _peak(ens.terminal_design)
    assert design.shape == (N_PATHS, 2 + n_marks)
    # no (n_paths, n_steps, n_marks) array: at most one (n_paths, n_marks) temporary
    assert peak <= design.nbytes + N_PATHS * n_marks * 8 + FIXED_SLACK


class _SearchDone(Exception):
    pass


@pytest.mark.parametrize("solver", ["robust_saddle", "primal_search"])
def test_search_peak_is_two_block_buffers_plus_design(solver):
    model = dl.MarketModel(drift=0.05, vol=0.2, horizon=1.0)
    n_paths = 4_000
    ens = dl.simulate_drivers(model, dl.TimeGrid(N_STEPS, 1.0), n_paths, seed=11)
    log_pair = dl.make_log_utility()
    # the shipped 21 x 21 saddle grid and the 51-point Merton grid
    module, n_blocks, run = {
        "robust_saddle": (robust, 11, lambda: dl.solve_robust_saddle(
            model, log_pair, dl.make_quadratic_penalty(), 1.0, np.linspace(0.125, 1.125, 21),
            np.linspace(-0.25, 0.0, 21), ens, adjoint_mode="analytic")),
        "primal_search": (primal, 2, lambda: dl.solve_primal_search(
            model, log_pair, 1.0, 0.05 * np.arange(51), ens, adjoint_mode="analytic")),
    }[solver]
    # blocks of 41 candidates, as at 50k paths
    block = 41

    def stop(*args, **kwargs):
        # the first call after the search builds the chosen wealth paths
        raise _SearchDone

    def search():
        with pytest.raises(_SearchDone):
            run()

    with mock.patch.object(mc, "BLOCK_BYTES", block * 8 * n_paths), \
            mock.patch.object(module, "wealth_paths", stop), \
            mock.patch.object(mc, "cv_mean", wraps=mc.cv_mean) as blocks:
        peak, _ = _peak(search)
    assert blocks.call_count == n_blocks
    design = ens.terminal_design()
    buffers = 2 * n_paths * block * 8
    # the design [1, B_T] and its SVD factor u, the same size
    assert peak <= buffers + 2 * design.nbytes + FIXED_SLACK


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_replication_streams_a_few_rows_per_range(one_mark, n_cpus):
    # the replication of a dual solve, as the solve runs it, after the
    # adjoints: phi is formed step by step and each range keeps two wealth
    # rows, so no (n_paths, n_steps) array is allocated
    model, ens = one_mark
    pair = dl.make_log_utility()
    sol = dl.solve_dual_search(model, pair, 1.0, ens, theta1_values=[-0.2, -0.1, 0.0],
                               replicate=False)
    fields = dict(value=sol.value, se=sol.se, theta1_values=sol.theta1_values,
                  candidate_values=sol.candidate_values, candidate_se=sol.candidate_se)
    with mock.patch("os.sched_getaffinity", return_value=set(range(n_cpus))), \
            mock.patch.object(market, "THREAD_MIN_PATHS", N_PATHS // 2), \
            mock.patch.object(dual, "dual_adjoints", return_value=sol.adjoints):
        assert len(market.path_ranges(N_PATHS)) == n_cpus
        peak, solved = _peak(lambda: dual._dual_solution(
            model, ens, pair, sol.control, "regression", None, True, foc=lambda s: None,
            density=sol.density, **fields))
    phi, x0 = dl.replicating_portfolio(sol)
    assert solved.replication == dl.replication_check(
        model, phi, x0, pair.inverse_marginal(sol.density[:, -1]), ens)
    # two wealth rows, the claim and the relative errors (with their
    # temporaries), and per range a jump row per mark, an exposure row and a
    # bool row; an (n_paths, n_steps) array alone is N_STEPS rows
    rows = 2 + 4 + n_cpus * (model.n_marks + 2)
    assert peak <= rows * N_PATHS * 8 + FIXED_SLACK
