"""Peak memory of the driver draw, the forward paths, the candidate search,
the backward sweep and the replication of a dual solve.

The driver draw keeps dB and the jump events, and holds one chunk of Poisson
counts at a time; no solver builds a dense count array.  Each forward
function writes its log increments into the output array and sums,
exponentiates and scales them there, so its peak allocation is the output
plus at most one (n_paths, n_steps) temporary.  A candidate search evaluates
every block of candidates into the same two block-sized buffers.  The
backward sweep allocates p, q and r, plus per-step rows: it logs each step's
state into a row and reads dB's own rows; a search keeps q and r as one
reused row (per mark) and a mean per step where no reader takes them path by
path, and a dual search keeps only p's first and last rows.  The terminal
design sums the drivers
into its own columns.  The replication of a dual solve forms the portfolio
one step at a time and keeps two Euler wealth rows, so it allocates a few
rows per path range and no (n_paths, n_steps) array.  A bridge check lets
each stage's arrays go once the next map has read them, and its map back
forms the bridged fraction block by block inside the wealth fill.  numpy reports its
buffers to ``tracemalloc``.  A run
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
from duallab import bridge, bsde, cli, dual, market, mc, primal
from duallab.config import validate_config

import oracles

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


@pytest.mark.parametrize("case", ["price", "density", "wealth_per_step", "wealth_per_path",
                                  "wealth_path_blocks"])
def test_forward_peak_is_output_plus_one_array(one_mark, case):
    model, ens = one_mark
    per_path = np.full((N_PATHS, N_STEPS), 0.5)
    control = dl.ScenarioControl(theta0=np.full(N_STEPS, -0.3),
                                 theta1=np.full((N_STEPS, 1), 0.1), y=1.0)
    # a per-path fraction formed block by block, as the map back forms q2/(sigma p2)
    blocks = dl.PathBlocks(lambda cols, out: np.multiply(0.25, per_path.T[:, cols], out=out))
    run = {
        "price": lambda: dl.price_paths(model, ens),
        "density": lambda: dl.density_paths(ens, control),
        "wealth_per_step": lambda: dl.wealth_paths(model, ens, dl.Strategy.fraction(0.5), 1.0),
        "wealth_per_path": lambda: dl.wealth_paths(model, ens, dl.Strategy.fraction(per_path), 1.0),
        "wealth_path_blocks": lambda: dl.wealth_paths(model, ens, dl.Strategy.fraction(blocks),
                                                      1.0),
    }[case]
    peak, out = _peak(run)
    assert out.shape == (N_PATHS, N_STEPS + 1)
    assert peak <= out.nbytes + N_PATHS * N_STEPS * 8 + FIXED_SLACK
    if case == "wealth_path_blocks":
        # the output, the fill's three work arrays and one block-sized
        # temporary (the buffer of the in-place exponential on the strided
        # block), each of at most FILL_BLOCK_BYTES; the dt-term is scaled in
        # place, and each block's jump-ratio check reduces its work array in
        # place.  No (n_paths, n_steps) array: that is 12 FILL_BLOCK_BYTES
        # here
        assert peak <= out.nbytes + 4 * market.FILL_BLOCK_BYTES + FIXED_SLACK
        # FIXED_SLACK is two blocks, so the bound above passes a fifth: the
        # same fill at twice the block size, less this one, is those four
        # blocks alone, the output and the fixed buffers cancelling
        with mock.patch.object(market, "FILL_BLOCK_BYTES", 2 * market.FILL_BLOCK_BYTES):
            doubled, _ = _peak(run)
        assert doubled - peak <= 4 * market.FILL_BLOCK_BYTES + 8 * 2**10


def test_sweep_peak_is_outputs_plus_step_rows(one_mark):
    model, ens = one_mark
    wealth = dl.wealth_paths(model, ens, dl.Strategy.fraction(0.5), 1.0)
    # the regression reads X only: the F thunk is never evaluated
    state = {"X": wealth, "F": lambda: 1.0 / wealth}
    peak, triple = _peak(lambda: dl.solve_linear_bsde(
        ens, 1.0 / wealth[:, -1], driver=dl.DriverSpec(q_coeff=0.25, r_coeff=0.1),
        state=state, basis=dl.RegressionBasis(channels=("X",))))
    # no copy of the state and no block of dB: one compensated-jump row per
    # mark, allocated once per sweep, and about ten per-step rows: the
    # logged state, the design, its factors, fits and targets
    rows = model.n_marks + 16
    budget = rows * N_PATHS * 8 + FIXED_SLACK
    assert peak <= triple.p.nbytes + triple.q.nbytes + triple.r.nbytes + budget


def test_sweep_peak_is_the_same_on_one_and_on_two_cpus():
    # the sweep runs in its caller's thread on any number of CPUs, so it
    # holds one set of step rows; 33k paths make two ranges of 16,384, where
    # a thread factoring the designs ahead would add a design, its Q1, a
    # work row and a state row
    model = dl.MarketModel(drift=0.1, vol=0.2, horizon=1.0)
    ens = dl.simulate_drivers(model, dl.TimeGrid(4, 1.0), 33_000, seed=7)
    s = dl.price_paths(model, ens)
    peaks = {}
    for n_cpus in (1, 2):
        with mock.patch("os.sched_getaffinity", return_value=set(range(n_cpus))):
            dl.solve_linear_bsde(ens, 1.0 / s[:, -1], state={"S": s})
            peaks[n_cpus] = _peak(lambda: dl.solve_linear_bsde(ens, 1.0 / s[:, -1],
                                                               state={"S": s}))[0]
    assert abs(peaks[2] - peaks[1]) <= 8 * 2**10


@pytest.mark.parametrize("keep", ["", "p", "q", "qr"])
@pytest.mark.parametrize("n_marks", [0, 1, 2])
def test_sweep_keeping_means_drops_all_but_a_row_of_each_channel(n_marks, keep):
    # the same sweep keeping every channel whole, less what ``keep`` leaves
    # out: p but for its two ends and a ring of two rows, and q and r but
    # for one reused row (per mark); the per-step means and the rounding of
    # tracemalloc's counts take a few KB, a row 16 KB
    model = dl.MarketModel(drift=0.1, vol=0.2, jump_marks=(0.1, -0.2)[:n_marks],
                           jump_intensities=(1.0, 3.0)[:n_marks], horizon=1.0)
    ens = dl.simulate_drivers(model, dl.TimeGrid(N_STEPS, 1.0), N_PATHS, seed=7)
    wealth = dl.wealth_paths(model, ens, dl.Strategy.fraction(0.5), 1.0)

    def sweep(kept):
        return dl.solve_linear_bsde(
            ens, 1.0 / wealth[:, -1], driver=dl.DriverSpec(q_coeff=0.25, r_coeff=0.1),
            state={"X": wealth}, basis=dl.RegressionBasis(channels=("X",)), keep=kept)

    peaks = {}
    for kept in ("pqr", keep):
        sweep(kept)
        peaks[kept] = _peak(lambda: sweep(kept))[0]
    row = N_PATHS * 8
    dropped = ((0 if "p" in keep else N_STEPS + 1 - 4) + (0 if "q" in keep else N_STEPS - 1)
               + (0 if "r" in keep else (N_STEPS - 1) * n_marks)) * row
    assert peaks[keep] <= peaks["pqr"] - dropped + 8 * 2**10


def test_dual_search_peak_is_its_solution_plus_step_rows(one_mark):
    # a regression dual search keeps p2(t_0) and p2(T), and passes the steps
    # between through a ring of two rows, and, as it does not replicate,
    # keeps q2 and r2 as one reused row (per mark) and a mean per step: its
    # peak is the density it returns plus the sweep's per-step rows, three
    # path arrays below a search that keeps p2, q2 and r2 whole
    model, priced = one_mark
    ens = dl.simulate_drivers(model, priced.grid, N_PATHS, seed=7)
    pair = dl.make_log_utility()

    def search():
        return dl.solve_dual_search(model, pair, 1.0, ens, theta1_values=[-0.2, -0.1, 0.0],
                                    replicate=False)

    # first calls import modules and fill caches: not part of the check
    search()
    peak, sol = _peak(search)
    adj = sol.adjoints
    # the sweep's rows, as in test_sweep_peak_is_outputs_plus_step_rows, the
    # four rows of p and the reused rows of q and r
    rows = model.n_marks + 16 + 4 + 1 + model.n_marks
    assert peak <= sol.density.nbytes + rows * N_PATHS * 8 + FIXED_SLACK
    with pytest.raises(ValueError, match="'q' in keep"):
        adj.q


def test_convergence_ladder_peak_is_its_largest_rung_alone(tmp_path):
    # each rung's ensemble and solution are let go before the next rung
    # simulates, so the ladder holds no more than its last search does alone
    with open(Path(__file__).resolve().parents[1] / "configs" / "convergence_bsde.yaml") as fh:
        raw = yaml.safe_load(fh)
    raw["convergence"]["paths"] = [N_PATHS // 2, N_PATHS]
    cfg = validate_config(raw)
    model, pair = cfg.market_model(), cfg.utility()

    def rung():
        ens = dl.simulate_drivers(model, cfg.time_grid(), N_PATHS, cfg.seed)
        return dl.solve_dual_search(model, pair, cfg.y, ens, replicate=False).adjoints.p_initial

    # first calls import modules and fill caches: not part of the check
    cli.run_convergence(cfg)
    rung()
    ladder, files = _peak(lambda: cli.run_convergence(cfg))
    alone, _ = _peak(rung)
    assert [row[0] for row in files["convergence.csv"][1]] == [N_PATHS // 2, N_PATHS]
    assert ladder <= alone + FIXED_SLACK


@pytest.mark.parametrize("n_marks", [0, 1])
def test_primal_search_peak_is_its_wealth_and_p1_plus_step_rows(n_marks):
    # a regression primal search keeps p1 whole, which the robust residual
    # reads against X, and q1 and r1 as one reused row (per mark) and a mean
    # per step: its peak is the wealth and p1 it returns plus the sweep's
    # per-step rows, with no q1 (one path array) and no r1 (one per mark)
    model = dl.MarketModel(drift=0.1, vol=0.2, jump_marks=(0.1,)[:n_marks],
                           jump_intensities=(1.0,)[:n_marks], horizon=1.0)
    ens = dl.simulate_drivers(model, dl.TimeGrid(N_STEPS, 1.0), N_PATHS, seed=7)
    pair = dl.make_log_utility()

    def search():
        return dl.solve_primal_search(model, pair, 1.0, np.linspace(0.0, 1.0, 5), ens)

    search()
    peak, sol = _peak(search)
    adj = sol.adjoints
    # the sweep's rows, as in test_sweep_peak_is_outputs_plus_step_rows, and
    # the reused rows of q and r
    rows = model.n_marks + 16 + 1 + model.n_marks
    assert peak <= sol.wealth.nbytes + adj.p.nbytes + rows * N_PATHS * 8 + FIXED_SLACK


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
    n_blocks, run = {
        "robust_saddle": (11, lambda: dl.solve_robust_saddle(
            model, log_pair, dl.make_quadratic_penalty(), 1.0, np.linspace(0.125, 1.125, 21),
            np.linspace(-0.25, 0.0, 21), ens, adjoint_mode="analytic")),
        "primal_search": (2, lambda: dl.solve_primal_search(
            model, log_pair, 1.0, 0.05 * np.arange(51), ens, adjoint_mode="analytic")),
    }[solver]
    # blocks of 41 candidates, as at 50k paths
    block = 41

    def stop(*args, **kwargs):
        # the first call after the search builds the chosen wealth paths, in
        # primal for both solvers
        raise _SearchDone

    def search():
        with pytest.raises(_SearchDone):
            run()

    with mock.patch.object(mc, "BLOCK_BYTES", block * 8 * n_paths), \
            mock.patch.object(primal, "wealth_paths", stop), \
            mock.patch.object(mc, "cv_mean", wraps=mc.cv_mean) as blocks:
        peak, _ = _peak(search)
    assert blocks.call_count == n_blocks
    design = ens.terminal_design()
    buffers = 2 * n_paths * block * 8
    # the design [1, B_T] and its SVD factor u, the same size
    assert peak <= buffers + 2 * design.nbytes + FIXED_SLACK


@pytest.mark.parametrize("budget, n_candidates", [("below one column", 5), ("default", 1)])
def test_search_block_holds_no_more_than_the_budget_or_the_candidates(budget, n_candidates):
    # a block holds at least one candidate, however small the byte budget,
    # and no more candidates than there are: the two buffers hold one column
    n_paths = 50_000
    rng = np.random.Generator(np.random.Philox(key=3))
    design = np.column_stack([np.ones(n_paths), rng.normal(size=n_paths)])
    block_bytes = 8 * n_paths - 8 if budget == "below one column" else mc.BLOCK_BYTES

    def samples(idx, out):
        return np.multiply(design[:, 1:], idx + 1.0, out=out)

    with mock.patch.object(mc, "BLOCK_BYTES", block_bytes), \
            mock.patch.object(mc, "cv_mean", wraps=mc.cv_mean) as blocks:
        peak, search = _peak(lambda: mc.grid_search((n_candidates,), samples,
                                                    np.ones(n_candidates, bool), design, n_paths))
    assert blocks.call_count == n_candidates
    assert np.allclose(search.values, 0.0, atol=1e-12)
    # the two one-column buffers and the design's SVD factor u, the design's size
    assert peak <= 2 * 8 * n_paths + design.nbytes + FIXED_SLACK


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_replication_streams_a_few_rows_per_range(one_mark, n_cpus):
    # the replication of a dual solve, as the solve runs it, after the
    # adjoints: the amount held in the stock is formed step by step and each
    # range keeps two wealth rows, so no (n_paths, n_steps) array is
    # allocated; on an ensemble without the price, which it never builds
    model, priced = one_mark
    ens = dl.simulate_drivers(model, priced.grid, N_PATHS, seed=7)
    pair = dl.make_log_utility()
    search = dl.solve_dual_search(model, pair, 1.0, ens, theta1_values=[-0.2, -0.1, 0.0],
                                  replicate=False)
    # the search keeps q2 as means only, as it does not replicate
    sol = dl.evaluate_dual_scenario(model, pair, search.control, ens)
    fields = dict(value=search.value, se=search.se, theta1_values=search.theta1_values,
                  candidate_values=search.candidate_values, candidate_se=search.candidate_se)
    with mock.patch("os.sched_getaffinity", return_value=set(range(n_cpus))), \
            mock.patch.object(market, "THREAD_MIN_PATHS", N_PATHS // 2), \
            mock.patch.object(dual, "dual_adjoints", return_value=sol.adjoints):
        assert len(market.path_ranges(N_PATHS)) == n_cpus
        peak, solved = _peak(lambda: dual._dual_solution(
            model, ens, pair, sol.control, "regression", None, True, foc=lambda s: None,
            density=sol.density, **fields))
    assert "S" not in ens.channels
    amount, x0 = dual._portfolio_rows(sol)
    exposure = np.empty((N_STEPS, N_PATHS))
    for i, row in enumerate(exposure):
        amount(i, None, slice(0, N_PATHS), row)
    wealth = oracles.exposure_wealth(model, exposure.T, x0, ens)
    assert solved.replication == oracles.replication_stats(
        wealth, x0, pair.inverse_marginal(sol.density[:, -1]))
    # two wealth rows, the claim and the relative errors (with their
    # temporaries), and per range a jump row per mark, an exposure row and a
    # bool row; an (n_paths, n_steps) array alone is N_STEPS rows
    rows = 2 + 4 + n_cpus * (model.n_marks + 2)
    assert peak <= rows * N_PATHS * 8 + FIXED_SLACK


@pytest.mark.parametrize("name, case", [("merton_log.yaml", "merton_log"),
                                        ("robust_merton.yaml", "robust_merton")])
def test_bridge_check_peak_is_the_dual_and_its_map_back(tmp_path, name, case):
    # closed-form adjoints keep no channel whole: each map forms the rows of
    # p and q it reads from the wealth or the density.  The product identity
    # is taken while the primal solution is alive, which is then let go, and
    # the dual reuses the forward density; the map back forms the bridged
    # fraction one block at a time inside its wealth fill and the whole
    # fraction only after the wealth is let go.  So the forward map holds
    # three path arrays (dB, the wealth and the density) and the map back
    # three (dB, the density and the wealth), plus rows and the fill's
    # blocks: 3.04 path arrays at 50k x 100.  With p and q kept whole each
    # map held five (5.04 at 50k x 100), a whole fraction beside the wealth
    # 6.66 here, and a primal kept to the end and a second density fill
    # about ten
    n_paths, n_steps = 4_000, 20
    with open(Path(__file__).resolve().parents[1] / "configs" / name) as fh:
        raw = yaml.safe_load(fh)
    raw["mc"]["paths"], raw["grid"]["steps"] = n_paths, n_steps
    raw.update(mode="bridge-check", bridge={"case": case, "adjoints": "analytic"},
               out=str(tmp_path))
    cfg = validate_config(raw)
    # first calls import modules and fill caches: not part of the check
    cli.run_bridge_check(cfg)
    peak, files = _peak(lambda: cli.run_bridge_check(cfg))
    report = files["report.json"]
    assert report["product_identity_max_dev"] < 1e-12
    path_array = n_paths * (n_steps + 1) * 8
    assert peak <= 3.5 * path_array + FIXED_SLACK


@pytest.fixture
def whole_channels():
    """The channels a closed-form adjoint triple forms whole, in call order."""
    formed = []
    real = bsde.ClosedFormAdjoints._whole

    def counting(self, channel):
        formed.append(channel)
        return real(self, channel)

    with mock.patch.object(bsde.ClosedFormAdjoints, "_whole", counting):
        yield formed


def _config(tmp_path, name, n_paths, n_steps, **top):
    """The bundled config ``name`` at ``n_paths`` x ``n_steps``, with the
    top-level entries ``top``."""
    with open(Path(__file__).resolve().parents[1] / "configs" / name) as fh:
        raw = yaml.safe_load(fh)
    raw["mc"]["paths"], raw["grid"]["steps"] = n_paths, n_steps
    raw.update(top, out=str(tmp_path))
    return validate_config(raw)


@pytest.mark.parametrize("case", ["merton_log", "robust_merton"])
def test_bridge_maps_form_no_whole_closed_form_channel(tmp_path, whole_channels, case):
    # the maps read closed-form adjoints a step row or a block of rows at a
    # time; only the robust saddle's penalty residual forms p1 whole, beside
    # the wealth, before the forward map
    inside = []

    def counted(fn):
        def wrapper(*args):
            before = len(whole_channels)
            out = fn(*args)
            inside.append(whole_channels[before:])
            return out
        return wrapper

    cfg = _config(tmp_path, f"{case}.yaml", 2_000, 20, mode="bridge-check",
                  bridge={"case": case, "adjoints": "analytic"})
    with mock.patch.object(cli, "primal_to_dual", counted(bridge.primal_to_dual)), \
            mock.patch.object(cli, "dual_to_primal", counted(bridge.dual_to_primal)):
        report = cli.run_bridge_check(cfg)["report.json"]
    assert inside == [[], []]
    assert whole_channels == ([] if case == "merton_log" else ["p"])
    assert report["product_identity_max_dev"] < 1e-12


def test_analytic_dual_run_forms_whole_channels_independent_of_steps(tmp_path, whole_channels):
    # an analytic jump_dual run with replication: its first-order residual
    # and its replication read q2 and r2 one step row at a time, so the
    # count of whole channels does not grow with the steps
    counts = []
    for steps in (20, 40):
        cfg = _config(tmp_path, "jump_dual.yaml", 2_000, steps, adjoints="analytic")
        before = len(whole_channels)
        solution = cli.run_dual(cfg)["solution.json"]
        counts.append(len(whole_channels) - before)
        assert solution["adjoints"] == "analytic"
        assert solution["replication"]["rmse_rel"] < 0.1
    assert counts[0] == counts[1]
