"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The heavy ensembles are shared session fixtures.
"""

import math
import time

import numpy as np
import pytest

import duallab as dl
import oracles
from duallab.preferences import ORACLE_GRID

from conftest import make_ensemble

PI_GRID = np.round(np.arange(0.0, 2.501, 0.05), 10)
PHI_GRID = np.linspace(0.125, 1.125, 21)
MU_GRID = np.linspace(-0.25, 0.0, 21)

DEGEN_THETA1_STAR = (-5.5 + math.sqrt(5.5**2 - 2.0)) / 2.0
JUMP_THETA1_STAR = -3.0 + 2.0 * math.sqrt(2.0)
RJ_THETA1_STAR = -5.0 + math.sqrt(24.0)
RJ_MU_STAR = -(0.5 + 0.5 * RJ_THETA1_STAR) / 2.0


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def ens_10k(base_model):
    return make_ensemble(base_model, n_paths=10_000, seed=20240601)


def test_criterion_1_merton_fraction(base_model, base_ens_50k, log_pair):
    t0 = time.perf_counter()
    sol = dl.solve_primal_search(base_model, log_pair, 1.0, PI_GRID, base_ens_50k)
    check = dl.hamiltonian_derivative_check(sol)
    deriv, se = check["estimate"], check["se"]
    elapsed = time.perf_counter() - t0
    ok = (
        sol.pi == 1.25
        and abs(deriv) <= 3 * se + 1e-10
        and elapsed < 60.0
    )
    report(1, "Merton fraction by grid search", ok,
           f"argmax pi = {sol.pi}, derivative = {deriv:.2e} (3se = {3*se:.2e}), "
           f"runtime {elapsed:.1f}s")


def test_criterion_2_robust_half_merton(base_model, base_ens_50k, log_pair, quad_penalty):
    t0 = time.perf_counter()
    pi_cf, mu_cf = dl.robust_log_closed_form(base_model, quad_penalty)
    merton = dl.merton_log_closed_form(base_model).values
    sol = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0,
                                 PHI_GRID, MU_GRID, base_ens_50k)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(mu_cf - (-0.125)) < 1e-12
        and abs(pi_cf - 0.625) < 1e-12
        and sol.is_saddle
        and sol.pi == 0.625
        and sol.mu == -0.125
        and pi_cf / merton == 0.5
        and elapsed < 300.0
    )
    report(2, "robust half-Merton saddle", ok,
           f"closed form (mu, pi) = ({mu_cf:.6g}, {pi_cf:.6g}), "
           f"saddle ({sol.mu}, {sol.pi}), ratio = {pi_cf / merton}, "
           f"runtime {elapsed:.1f}s")


def test_criterion_3_bridge_identities(base_model, ens_10k, log_pair, quad_penalty):
    devs = {}
    # plain log case
    primal = dl.solve_primal_search(base_model, log_pair, 1.0, [1.25], ens_10k,
                                    adjoint_mode="analytic")
    control, y, rep_fwd = dl.primal_to_dual(primal)
    dual = dl.evaluate_dual_scenario(base_model, log_pair, control, ens_10k,
                                     adjoint_mode="analytic")
    _, x_back, rep_back = dl.dual_to_primal(dual)
    devs["terminal"] = rep_fwd["terminal_link"]["max_abs"]
    devs["wealth_vs_p2"] = rep_back["process_link"]["max_abs"]
    devs["density_vs_p1"] = rep_fwd["process_link"]["max_abs"]
    devs["product"] = dl.verify_product_identity(primal.wealth, primal.adjoints.p, 1.0, y)
    # robust log case
    rob = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0,
                                 [0.625], [-0.125], ens_10k, adjoint_mode="analytic")
    r_ctrl, r_mu, r_y, r_fwd = dl.robust_primal_to_dual(rob)
    r_dual = dl.solve_robust_dual(base_model, log_pair, quad_penalty, r_y, ens_10k,
                                  mu_values=[r_mu], adjoint_mode="analytic")
    _, _, r_x, r_back = dl.robust_dual_to_primal(r_dual)
    devs["terminal_robust"] = r_fwd["terminal_link"]["max_abs"]
    devs["wealth_vs_p2_robust"] = r_back["process_link"]["max_abs"]
    devs["density_vs_p1_robust"] = r_fwd["process_link"]["max_abs"]
    devs["product_robust"] = dl.verify_product_identity(rob.wealth, rob.adjoints.p, 1.0, r_y)
    worst = max(devs.values())
    ok = worst < 1e-12
    report(3, "bridge identities (analytic mode)", ok,
           f"max pathwise deviation {worst:.2e} over {len(devs)} identities")


def test_criterion_4_bsde_benchmark(base_model, base_ens_50k, grid100, log_pair):
    t0 = time.perf_counter()
    control = dl.unique_scenario_no_jumps(base_model, grid100, 1.0)
    density = dl.density_paths(base_ens_50k, control)
    triple = dl.solve_linear_bsde(
        base_ens_50k,
        log_pair.inverse_marginal(density[:, -1]),
        driver=dl.DriverSpec(q_coeff=0.25),
        state={"G": density},
        basis=dl.RegressionBasis(degree=2),
    )
    elapsed = time.perf_counter() - t0
    p0 = float(triple.p[:, 0].mean())
    p_mean = triple.p[:, :-1].mean(axis=0)
    q_mean = triple.q.mean(axis=0)
    ratios = q_mean[10:90] / p_mean[10:90]
    ratio_dev = float(np.max(np.abs(ratios - 0.25)))
    ok = abs(p0 - 1.0) < 0.02 and ratio_dev < 0.05 and elapsed < 120.0
    report(4, "backward-solver benchmark", ok,
           f"p2(0) = {p0:.5f} (target 1), interior max |q/p - 0.25| = {ratio_dev:.4f}, "
           f"runtime {elapsed:.1f}s")


def test_criterion_5_replication(base_model, base_ens_50k, log_pair):
    plain = dl.solve_dual_search(base_model, log_pair, 1.0, base_ens_50k,
                                 adjoint_mode="regression")
    rmse_plain = plain.replication["rmse_rel"]

    # the degenerate-volatility case checks the jump branch of the portfolio
    # formula itself, so the adjoints are taken in closed form; the covariance
    # extraction of the jump integrand is exercised (more noisily) in the
    # module suite
    degen = dl.MarketModel(
        drift=0.05, vol=lambda t: 0.0 if t < 0.5 else 0.2,
        jump_marks=(0.1,), jump_intensities=(1.0,), horizon=1.0,
    )
    grid = dl.TimeGrid(100, 1.0)
    control = dl.scenario_from_theta1(degen, grid, np.array([DEGEN_THETA1_STAR]), 1.0)
    ens = make_ensemble(degen, n_paths=50_000, seed=20240603)
    sol = dl.evaluate_dual_scenario(degen, log_pair, control, ens,
                                    adjoint_mode="analytic", replicate=True)
    rmse_degen = sol.replication["rmse_rel"]
    # the portfolio must actually use the jump branch where sigma vanishes
    phi, _ = dl.replicating_portfolio(sol)
    branch_used = bool(np.all(np.abs(phi[:, :50]) > 0))
    ok = rmse_plain < 0.02 and rmse_degen < 0.05 and branch_used
    report(5, "claim replication", ok,
           f"log no-jump RMSE {rmse_plain:.4f} (< 0.02), "
           f"degenerate-vol jump RMSE {rmse_degen:.4f} (< 0.05)")


def test_criterion_6_constraint_exactness(base_model, jump_model, grid100, log_pair,
                                          base_ens_5k):
    residuals = {}
    control = dl.unique_scenario_no_jumps(base_model, grid100, 1.0)
    residuals["no_jump"] = np.max(np.abs(dl.elmm_residual(base_model, grid100, control)))

    jump_ctrl = dl.scenario_from_theta1(jump_model, grid100, np.array([-0.5]), 1.0)
    residuals["jump_instance"] = np.max(np.abs(dl.elmm_residual(jump_model, grid100, jump_ctrl)))
    theta0_ok = np.allclose(jump_ctrl.theta0, -0.25, atol=1e-15)

    robust_ctrl = dl.scenario_from_theta1(base_model, grid100, np.zeros(0), 1.0, mu=-0.125)
    residuals["robust"] = np.max(np.abs(dl.elmm_residual(base_model, grid100, robust_ctrl)))

    primal = dl.solve_primal_search(base_model, log_pair, 1.0, [1.25], base_ens_5k,
                                    adjoint_mode="analytic")
    bridged, _, _ = dl.primal_to_dual(primal)
    residuals["bridge_emitted"] = np.max(np.abs(dl.elmm_residual(base_model, grid100, bridged)))

    worst = max(residuals.values())
    ok = worst <= 1e-12 and theta0_ok
    report(6, "martingale-constraint exactness", ok,
           f"max pointwise residual {worst:.2e}; jump instance theta0 = "
           f"{jump_ctrl.theta0[0]:.6g} (target -0.25)")


def test_criterion_7_conjugacy_suite(log_pair):
    worst_bi, worst_inv = 0.0, 0.0
    x_grid = np.geomspace(0.1, 10.0, 13)
    y_grid = np.geomspace(0.1, 10.0, 13)
    pairs = [log_pair] + [dl.make_power_utility(a) for a in (0.3, 0.5, 0.7)]
    for pair in pairs:
        for x in x_grid:
            ref = oracles.biconjugate_by_grid(pair.v, float(x), ORACLE_GRID)
            worst_bi = max(worst_bi, abs(pair.u(x) - ref))
        inv = pair.u_prime(pair.inverse_marginal(y_grid))
        worst_inv = max(worst_inv, float(np.max(np.abs(inv - y_grid))))
    ok = worst_bi < 1e-6 and worst_inv < 1e-6
    report(7, "conjugacy suite", ok,
           f"biconjugacy residual {worst_bi:.2e}, inversion residual {worst_inv:.2e} "
           f"over log and power(0.3, 0.5, 0.7)")


def test_criterion_8_martingale_and_foc(base_model, jump_model, base_ens_50k,
                                        jump_ens_50k, log_pair, quad_penalty):
    details = []
    ok = True

    def check(name, at_opt, off_opt=None):
        nonlocal ok
        good = at_opt < 0.1 and (off_opt is None or off_opt >= 3 * at_opt)
        ok = ok and good
        details.append(f"{name}: {at_opt:.3f}" + (f" / off {off_opt:.3f}" if off_opt is not None else ""))

    # martingale property of the driver-free adjoint
    primal = dl.solve_primal_search(base_model, log_pair, 1.0, [1.25], base_ens_50k)
    means = primal.adjoints.p.mean(axis=0)
    se = primal.adjoints.p[:, -1].std(ddof=1) / math.sqrt(base_ens_50k.n_paths)
    mart_ok = np.max(np.abs(means - means[-1])) <= 3 * se
    ok = ok and mart_ok
    details.append(f"p-martingale within 3se: {mart_ok}")

    # primal drift condition, at and off the optimum
    off = dl.solve_primal_search(base_model, log_pair, 1.0, [2.5], base_ens_50k)
    check("primal-drift", primal.foc["mean_normalized"], off.foc["mean_normalized"])

    # dual jump condition
    grid_vals = np.round(np.arange(-0.30, 0.001, 0.01), 10)
    dual = dl.solve_dual_search(jump_model, log_pair, 1.0, jump_ens_50k,
                                theta1_values=grid_vals, replicate=False)
    off_ctrl = dl.scenario_from_theta1(jump_model, jump_ens_50k.grid,
                                       dual.control.theta1[0] + 0.2, 1.0)
    dual_off = dl.evaluate_dual_scenario(jump_model, log_pair, off_ctrl, jump_ens_50k,
                                         replicate=False)
    check("dual-jump", dual.foc["mean_normalized"], dual_off.foc["mean_normalized"])

    # robust primal conditions at and off the saddle
    saddle = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0,
                                    [0.625], [-0.125], base_ens_50k)
    off_pi = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0,
                                    [1.25], [-0.125], base_ens_50k)
    off_mu = dl.solve_robust_saddle(base_model, log_pair, quad_penalty, 1.0,
                                    [0.625], [0.0], base_ens_50k)
    check("robust-drift", saddle.foc["drift_mean_normalized"],
          off_pi.foc["drift_mean_normalized"])
    check("robust-penalty", saddle.foc["penalty_mean_normalized"],
          off_mu.foc["penalty_mean_normalized"])

    # robust dual conditions: perturbation and jump ratios
    rdual = dl.solve_robust_dual(base_model, log_pair, quad_penalty, 1.0, base_ens_50k,
                                 mu_values=MU_GRID)
    rdual_off = dl.solve_robust_dual(base_model, log_pair, quad_penalty, 1.0,
                                     base_ens_50k, mu_values=[0.0])
    check("robust-dual-penalty", rdual.foc["penalty_mean_normalized"],
          rdual_off.foc["penalty_mean_normalized"])

    mu_grid = np.round(np.arange(-0.24, -0.20, 0.0025), 10)
    th_grid = np.round(np.arange(-0.12, -0.079, 0.0025), 10)
    rj = dl.solve_robust_dual(jump_model, log_pair, quad_penalty, 1.0, jump_ens_50k,
                              mu_values=mu_grid, theta1_values=th_grid)
    rj_off_ctrl = dl.scenario_from_theta1(jump_model, jump_ens_50k.grid,
                                          rj.control.theta1[0] + 0.2, 1.0, mu=rj.mu)
    rj_off = dl.evaluate_dual_scenario(jump_model, log_pair, rj_off_ctrl, jump_ens_50k,
                                       replicate=False)
    check("robust-dual-jump", rj.foc["jump_mean_normalized"],
          rj_off.foc["mean_normalized"])

    report(8, "martingale and first-order conditions", ok, "; ".join(details))
