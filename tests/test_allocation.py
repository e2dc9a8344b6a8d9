"""Peak memory of the forward paths, the candidate search and the backward sweep.

Each forward function writes its log increments into the output array and
sums, exponentiates and scales them there, so its peak allocation is the
output plus at most one (n_paths, n_steps) temporary: the jump term of a
per-step fill.  A candidate search evaluates every block of candidates into
the same two block-sized buffers.  The backward sweep allocates p, q, r and
the time-major log-state, plus per-step rows and transposed blocks of the
drivers.  numpy reports its buffers to ``tracemalloc``.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

import duallab as dl
from duallab import mc, primal, robust
from duallab.bsde import STEP_BLOCK

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
    # the current and the next transposed block of dB and of the jump counts
    # (the rows of the current one stay referenced until the next is built),
    # and about ten per-step rows: design, its factors, fits and targets
    rows = 2 * STEP_BLOCK * (1 + model.n_marks) + 16
    budget = rows * N_PATHS * 8 + FIXED_SLACK
    assert peak <= triple.p.nbytes + triple.q.nbytes + triple.r.nbytes + log_state + budget


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
