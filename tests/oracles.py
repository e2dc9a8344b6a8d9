"""Reference implementations kept for differential tests.

These are the straightforward forms the library's batched searches,
CholeskyQR2 backward sweep, shared forward kernels and output writer
replace: one candidate at a time, a fresh ``lstsq`` control-variate fit per
candidate, a per-step Python loop for the theta0 elimination, two SVD
``lstsq`` fits per backward step on path-major designs (and the same sweep
in long double, as an accuracy reference), a separate forward loop per
process (price and density from whole-array log factors, wealth and
replication one step at a time), the per-path exact fill one column at a
time, the map back's bridged fraction as one whole array, the closed-form
log adjoints as three whole time-major arrays, the sigma = 0 jump
branch recomputed step by step by each of its readers, and a
``csv.writer`` call per CSV row, and the conjugacy oracle polished one test
point at a time by scipy's bounded Brent search.  They stay out of the package on
purpose; the tests compare the package against them.  The out-of-sample
BSDE residual report (one ``lstsq`` fit per step) and the scalar grid
conjugates have no twin in the package: the tests use them as they are.

:func:`dense_jumps` puts back the dense-count readers that the jump events
replaced (the exact fill's einsum over the counts of every (path, step),
the per-step compensated counts of the Euler loop and of the backward sweep,
and the summed counts of the terminal design), so that the package can be
run once on each and compared bit for bit.
"""

from __future__ import annotations

import contextlib
import csv
import math
import warnings
from unittest import mock

import numpy as np
from scipy.optimize import minimize_scalar

from duallab import market
from duallab.bsde import AdjointTriple, DriverSpec, RegressionBasis, _monomial_exponents
from duallab.dual import ScenarioControl
from duallab.market import (
    DEGENERATE_VOL,
    THETA1_FLOOR,
    AdmissibilityError,
    PathEnsemble,
    _mu_on_grid,
)


# ------------------------------------------------------- dense jump readers

def _dense_add_jumps(dest, ensemble, cols, ratio):
    # dest holds the (n_steps, paths) rows of the paths ``cols``
    counts = ensemble.jump_counts[cols].transpose(1, 0, 2)
    dest += np.einsum("...k,...k->...", counts, np.log1p(ratio))


def _dense_compensated_step(ensemble, i, out, paths=None):
    lam = ensemble.model.intensities * ensemble.grid.dt
    out[...] = np.subtract(ensemble.jump_counts[paths or slice(None), i], lam).T
    return out


def _dense_terminal_design(ensemble):
    design = np.empty((ensemble.n_paths, 2 + ensemble.model.n_marks))
    design[:, 0] = 1.0
    ensemble.brownian_increments.sum(axis=1, out=design[:, 1])
    jumps = design[:, 2:]
    ensemble.jump_counts.sum(axis=1, out=jumps)
    jumps -= ensemble.model.intensities * ensemble.grid.horizon
    return design


@contextlib.contextmanager
def dense_jumps():
    """The package's jump readers replaced by the dense-count forms they
    replaced, each reading ``ensemble.jump_counts``."""
    with mock.patch.object(market, "_add_jumps", _dense_add_jumps), \
            mock.patch.object(PathEnsemble, "compensated_step", _dense_compensated_step), \
            mock.patch.object(PathEnsemble, "terminal_design", _dense_terminal_design):
        yield


# ------------------------------------------------------------ forward paths

def _compensated_step(ensemble, i):
    """Ntilde increments of step ``i``, (n_paths, n_marks)."""
    return ensemble.jump_counts[:, i] - ensemble.model.intensities * ensemble.grid.dt


def log_factors(drift_arr, diff_arr, jump_ratio, intensities, ensemble):
    """Per-step log increments of a stochastic exponential, as a new array."""
    dt = ensemble.grid.dt
    comp = jump_ratio @ intensities if jump_ratio.size else np.zeros_like(drift_arr)
    ln = (drift_arr - 0.5 * diff_arr**2 - comp)[None, :] * dt
    ln = ln + diff_arr[None, :] * ensemble.brownian_increments
    if jump_ratio.size:
        if np.any(jump_ratio <= -1.0):
            raise ValueError("jump ratio <= -1 would break positivity")
        ln = ln + np.einsum("pik,ik->pi", ensemble.jump_counts, np.log1p(jump_ratio))
    return ln


def price_paths(model, ensemble):
    """Price paths; unlike the package function, nothing is attached."""
    grid = ensemble.grid
    ln = log_factors(model.drift_on(grid), model.vol_on(grid), model.jump_sizes_on(grid),
                     model.intensities, ensemble)
    out = np.empty((ensemble.n_paths, grid.n_steps + 1))
    out[:, 0] = model.s0
    out[:, 1:] = model.s0 * np.exp(np.cumsum(ln, axis=1))
    return out


def density_paths(ensemble, control, scheme="exact"):
    grid = ensemble.grid
    y0 = float(control.y)
    theta0 = np.broadcast_to(np.asarray(control.theta0, dtype=float), (grid.n_steps,))
    k = ensemble.model.n_marks
    theta1 = (np.asarray(control.theta1, dtype=float).reshape(grid.n_steps, k)
              if k else np.zeros((grid.n_steps, 0)))
    g = np.empty((ensemble.n_paths, grid.n_steps + 1))
    g[:, 0] = y0
    if scheme == "exact":
        ln = log_factors(np.zeros(grid.n_steps), theta0, theta1,
                         ensemble.model.intensities, ensemble)
        g[:, 1:] = y0 * np.exp(np.cumsum(ln, axis=1))
        return g
    for i in range(grid.n_steps):
        inc = theta0[i] * ensemble.brownian_increments[:, i]
        if k:
            inc = inc + _compensated_step(ensemble, i) @ theta1[i]
        g[:, i + 1] = g[:, i] * (1.0 + inc)
        if np.any(g[:, i + 1] <= 0):
            raise ValueError(f"Euler density lost positivity at step {i + 1}")
    return g


def exp_paths_per_path(ensemble, x0, drift, diff, ratio, frac):
    """Stochastic exponential of frac * (drift dt + diff dB + ratio . dNtilde)
    for a per-path (n_paths, n_steps) ``frac``, one step (column) at a time."""
    n_steps = ensemble.grid.n_steps
    dt = ensemble.grid.dt
    nu = ensemble.model.intensities
    out = np.empty((ensemble.n_paths, n_steps + 1))
    out[:, 0] = x0
    ln = out[:, 1:]
    for i in range(n_steps):
        f = frac[:, i]
        d, s, r = f * drift[i], f * diff[i], f[:, None] * ratio[i]
        col = ln[:, i]
        np.multiply(s, ensemble.brownian_increments[:, i], out=col)
        col += (d - 0.5 * s**2 - r @ nu) * dt
        if r.size:
            if np.any(r <= -1.0):
                raise AdmissibilityError("jump ratio <= -1 (1 + pi*gamma <= 0 for a fraction); "
                                         "the exponential would lose positivity")
            col += np.einsum("...k,...k->...", ensemble.jump_counts[:, i], np.log1p(r))
    np.cumsum(ln, axis=1, out=ln)
    np.exp(ln, out=ln)
    ln *= x0
    return out


def bridged_fractions(solution):
    """The bridged fraction q2/(sigma*p2(t-)) as one whole time-major
    product of sigma and p2, divided into q2 in place: the map back's
    fraction before it was formed block by block."""
    adj = solution.adjoints
    s = solution.model.vol_on(solution.ensemble.grid)
    if np.any(np.abs(s) < DEGENERATE_VOL):
        raise ValueError("sigma vanishes on the grid; use the replication branch instead")
    pi_path = s[:, None] * adj.p.T[:-1]
    return np.divide(adj.q.T, pi_path, out=pi_path).T


def log_adjoints(grid, rate, process, q_ratio, r_ratio, family):
    """The closed-form log adjoints p = C/X, q = q_ratio*p(t-) and r_k =
    r_ratio_k*p(t-) as three whole time-major arrays, kept in a triple: the
    closed form before it formed its rows on demand."""
    tail = np.concatenate([np.cumsum((rate * grid.dt)[::-1])[::-1], [0.0]])
    p = np.exp(tail)[:, None] / process.T
    q = q_ratio[:, None] * p[:-1]
    r = r_ratio[:, :, None] * p[:-1, None, :]
    return AdjointTriple(p.T, q.T, r.transpose(2, 0, 1), mode="analytic",
                         diagnostics={"family": family})


def _at_step(values, i, n_paths):
    """Strategy values of step ``i`` per path: scalar, per-step or per-path input."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        return np.full(n_paths, float(arr))
    if arr.ndim == 1:
        return np.full(n_paths, arr[i])
    return arr[:, i]


def _check_positive(col, step):
    bad = int(np.sum(col <= 0.0))
    if bad:
        raise AdmissibilityError(f"wealth non-positive on {bad} path(s) at step {step + 1}")


def wealth_paths(model, ensemble, kind, values, x0, mu=None, scheme="exact"):
    """Wealth of a "fraction" or "units" strategy with array ``values``, one step at a time."""
    grid = ensemble.grid
    dt = grid.dt
    b = model.drift_on(grid) + _mu_on_grid(mu, grid) * model.vol_on(grid)
    s = model.vol_on(grid)
    gam = model.jump_sizes_on(grid)
    nu = model.intensities
    spot = ensemble.channels.get("S")
    if spot is None:
        spot = price_paths(model, ensemble)
    x = np.empty((ensemble.n_paths, grid.n_steps + 1))
    x[:, 0] = x0
    for i in range(grid.n_steps):
        vals = _at_step(values, i, ensemble.n_paths)
        if kind == "fraction":
            pi = vals
            if gam.size:
                ratio = pi[:, None] * gam[i][None, :]
                if np.any(ratio <= -1.0):
                    raise AdmissibilityError(
                        f"1 + pi*gamma <= 0 at step {i}; fraction strategy inadmissible"
                    )
            if scheme == "exact":
                ln = ((pi * b[i] - 0.5 * pi**2 * s[i] ** 2) * dt
                      + pi * s[i] * ensemble.brownian_increments[:, i])
                if gam.size:
                    ln = ln - pi * (gam[i] @ nu) * dt
                    ln = ln + np.einsum("pk,pk->p", ensemble.jump_counts[:, i], np.log1p(ratio))
                x[:, i + 1] = x[:, i] * np.exp(ln)
            else:
                inc = pi * (b[i] * dt + s[i] * ensemble.brownian_increments[:, i])
                if gam.size:
                    inc = inc + pi * (_compensated_step(ensemble, i) @ gam[i])
                x[:, i + 1] = x[:, i] * (1.0 + inc)
                _check_positive(x[:, i + 1], i)
        else:
            inc = b[i] * dt + s[i] * ensemble.brownian_increments[:, i]
            if gam.size:
                inc = inc + _compensated_step(ensemble, i) @ gam[i]
            x[:, i + 1] = x[:, i] + vals * spot[:, i] * inc
            _check_positive(x[:, i + 1], i)
    return x


def exposure_wealth(model, exposure, x0, ensemble, mu=None):
    """Euler wealth of the amount ``exposure`` held in the stock, an
    (n_paths, n_steps) array: X(t_{i+1}) = X(t_i) + e_i * (b_i dt +
    sigma_i dB_i + gamma_i . dNtilde_i), one step at a time; returns the
    (n_paths, n_steps + 1) paths, unchecked."""
    grid = ensemble.grid
    b = model.drift_on(grid) + _mu_on_grid(mu, grid) * model.vol_on(grid)
    s = model.vol_on(grid)
    gam = model.jump_sizes_on(grid)
    x = np.empty((ensemble.n_paths, grid.n_steps + 1))
    x[:, 0] = x0
    for i in range(grid.n_steps):
        inc = b[i] * grid.dt + s[i] * ensemble.brownian_increments[:, i]
        if model.n_marks:
            inc = inc + _compensated_step(ensemble, i) @ gam[i]
        x[:, i + 1] = x[:, i] + exposure[:, i] * inc
    return x


def replication_stats(wealth, x0, target):
    """The replication report of Euler wealth paths against the claim."""
    rel = (wealth[:, -1] - target) / target
    return {
        "rmse_rel": float(np.sqrt(np.mean(rel**2))),
        "max_rel": float(np.max(np.abs(rel))),
        "initial_value": float(x0),
        "n_nonpositive": int(np.sum(wealth[:, 1:] <= 0)),
    }


def replication_check(model, phi, x0, target, ensemble, mu=None):
    """The replication report of the unit counts ``phi``: exposure phi*S."""
    spot = ensemble.channels.get("S")
    if spot is None:
        spot = price_paths(model, ensemble)
    wealth = exposure_wealth(model, phi * spot[:, :-1], x0, ensemble, mu=mu)
    return replication_stats(wealth, x0, target)


# ----------------------------------------------------------- preferences

def conjugate_by_grid(u, y, grid):
    """sup_x {u(x) - x*y}: grid argmax, then Brent's bounded search in its bracket."""
    vals = u(grid) - grid * y
    j = int(np.argmax(vals))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, len(grid) - 1)]
    res = minimize_scalar(lambda x: -(u(x) - x * y), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(max(vals[j], -res.fun))


def biconjugate_by_grid(v, x, grid):
    """inf_y {v(y) + x*y}: grid argmin, then Brent's bounded search in its bracket."""
    vals = v(grid) + grid * x
    j = int(np.argmin(vals))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, len(grid) - 1)]
    res = minimize_scalar(lambda y: v(y) + x * y, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(min(vals[j], res.fun))


# ------------------------------------------------------------------ output

def ensemble_to_csv(ensemble, path, channels=None, header_comment=None):
    """One ``csv.writer`` row per (path, time) with the selected channels."""
    names = list(channels) if channels is not None else sorted(ensemble.channels)
    stamps = [f"{t:.10g}" for t in ensemble.grid.times]
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(["path", "time", *names])
        for p in range(ensemble.n_paths):
            columns = (ensemble.channels[c][p].tolist() for c in names)
            for stamp, values in zip(stamps, zip(*columns)):
                writer.writerow([p, stamp, *map(repr, values)])


# ---------------------------------------------------------------- searches


def cv_mean(values, controls=None):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if controls is None or controls.size == 0:
        return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n))
    a = np.column_stack([np.ones(n), controls])
    coef, *_ = np.linalg.lstsq(a, values, rcond=None)
    resid = values - a @ coef
    dof = max(n - a.shape[1], 1)
    se = float(np.sqrt(resid @ resid / dof) / math.sqrt(n))
    return float(coef[0]), se


def terminal_log_wealth(model, ensemble, pi, x0, mu=None):
    grid = ensemble.grid
    dt = grid.dt
    b = model.drift_on(grid) + _mu_on_grid(mu, grid) * model.vol_on(grid)
    s = model.vol_on(grid)
    pi_arr = np.broadcast_to(np.asarray(pi, dtype=float), (grid.n_steps,))
    drift_sum = float(np.sum((pi_arr * b - 0.5 * pi_arr**2 * s**2) * dt))
    ln = drift_sum + ensemble.brownian_increments @ (pi_arr * s)
    if model.n_marks:
        gam = model.jump_sizes_on(grid)
        ratio = pi_arr[:, None] * gam
        if np.any(ratio <= -1.0):
            raise AdmissibilityError("1 + pi*gamma <= 0; candidate inadmissible")
        ln = ln - float(np.sum(ratio @ model.intensities) * dt)
        ln = ln + np.einsum("pik,ik->p", ensemble.jump_counts, np.log1p(ratio))
    return math.log(x0) + ln


def terminal_log_density(ensemble, control):
    grid = ensemble.grid
    dt = grid.dt
    theta0 = np.broadcast_to(np.asarray(control.theta0, dtype=float), (grid.n_steps,))
    ln = float(np.sum(-0.5 * theta0**2 * dt)) + ensemble.brownian_increments @ theta0
    k = ensemble.model.n_marks
    if k:
        theta1 = np.asarray(control.theta1, dtype=float).reshape(grid.n_steps, k)
        if np.any(theta1 < THETA1_FLOOR):
            raise ValueError("theta1 below -1 + eps")
        ln = ln - float(np.sum(theta1 @ ensemble.model.intensities) * dt)
        ln = ln + np.einsum("pik,ik->p", ensemble.jump_counts, np.log1p(theta1))
    return math.log(float(control.y)) + ln


def scenario_from_theta1(model, grid, theta1, y, mu=None):
    b = model.drift_on(grid)
    s = model.vol_on(grid)
    mu_arr = _mu_on_grid(mu, grid)
    k = model.n_marks
    theta1 = (np.broadcast_to(np.asarray(theta1, dtype=float), (grid.n_steps, k)).copy()
              if k else np.zeros((grid.n_steps, 0)))
    gam = model.jump_sizes_on(grid)
    nu = model.intensities
    rhs = -(b + mu_arr * s)
    theta0 = np.zeros(grid.n_steps)
    degenerate = np.abs(s) < DEGENERATE_VOL
    for i in range(grid.n_steps):
        jump_term = float(gam[i] @ (theta1[i] * nu)) if k else 0.0
        if not degenerate[i]:
            theta0[i] = (rhs[i] - jump_term) / s[i]
        else:
            if k == 0 or not np.any(np.abs(gam[i]) > 0):
                if abs(rhs[i]) > 1e-14:
                    raise ValueError(
                        f"no martingale measure at step {i}: sigma = 0, no jumps, drift != 0"
                    )
                continue
            lam = (rhs[i] - jump_term) / float(gam[i] @ (gam[i] * nu))
            theta1[i] = theta1[i] + lam * gam[i]
    if theta1.size and np.any(theta1 < THETA1_FLOOR):
        raise ValueError("theta1 below -1 + eps after constraint elimination")
    return ScenarioControl(theta0=theta0, theta1=theta1, y=float(y), mu=mu)


# ------------------------------------------------- the sigma = 0 jump branch

def jump_branch(gam, nu):
    """The jump-branch weighting of one step where sigma vanishes, for its
    (n_marks,) jump sizes ``gam``: the live marks, gamma_k != 0 and
    nu_k > 0, and their weights w_k = gamma_k nu_k / sum_live gamma^2 nu."""
    live = (gam != 0) & (nu > 0)
    weight = gam[live] * nu[live]
    return live, weight / np.dot(gam[live], weight)


def jump_branches(model, grid):
    """{step: (live, weight)} of :func:`jump_branch` over the steps where
    sigma vanishes, as each reader recomputed it step by step."""
    gam = model.jump_sizes_on(grid)
    return {int(i): jump_branch(gam[i], model.intensities)
            for i in np.flatnonzero(np.abs(model.vol_on(grid)) < DEGENERATE_VOL)}


def eliminate_theta0(model, grid, theta1, y, mu=None):
    """The theta0 elimination with its per-step loop over the steps where
    sigma vanishes."""
    s, gam, rhs = model.vol_on(grid), model.jump_sizes_on(grid), -model.drift_on(grid, mu)
    k = model.n_marks
    theta1 = (np.broadcast_to(np.asarray(theta1, dtype=float), (grid.n_steps, k)).copy()
              if k else np.zeros((grid.n_steps, 0)))
    nu = model.intensities
    jump_term = np.einsum("ik,ik->i", gam, theta1 * nu)
    theta0 = np.zeros(grid.n_steps)
    degenerate = np.abs(s) < DEGENERATE_VOL
    theta0[~degenerate] = (rhs[~degenerate] - jump_term[~degenerate]) / s[~degenerate]
    for i in np.flatnonzero(degenerate):
        live, weight = jump_branch(gam[i], nu)
        if np.any(live):
            theta1[i, live] += (rhs[i] - jump_term[i]) * weight / nu[live]
        elif abs(rhs[i]) > 1e-14:
            raise ValueError(f"no martingale measure at step {i}: sigma = 0, no jumps, drift != 0")
    if theta1.size and np.any(theta1 < THETA1_FLOOR):
        raise ValueError("theta1 below -1 + eps after constraint elimination")
    return ScenarioControl(theta0=theta0, theta1=theta1, y=float(y), mu=mu)


def dual_driver(model, grid, mu=None):
    """The dual driver with its per-step loop over the steps where sigma
    vanishes."""
    b = model.drift_on(grid, mu)
    s = model.vol_on(grid)
    degenerate = np.abs(s) < DEGENERATE_VOL
    q_coeff = np.where(degenerate, 0.0, b / np.where(degenerate, 1.0, s))
    gam = model.jump_sizes_on(grid)
    r_coeff = np.zeros(gam.shape)
    for i in np.flatnonzero(degenerate):
        live, weight = jump_branch(gam[i], model.intensities)
        r_coeff[i, live] = b[i] * weight
    return DriverSpec(q_coeff=q_coeff, r_coeff=r_coeff)


def primal_search(model, utility, x0, pi_values, ensemble, mu=None):
    """Values, SEs, exclusions and argmax of the per-candidate primal loop."""
    pi_values = np.asarray(list(pi_values), dtype=float)
    controls = ensemble.terminal_design()[:, 1:]
    values = np.full(pi_values.shape, -np.inf)
    ses = np.zeros(pi_values.shape)
    excluded = []
    for j, pi in enumerate(pi_values):
        try:
            ln_xt = terminal_log_wealth(model, ensemble, pi, x0, mu=mu)
        except AdmissibilityError as exc:
            excluded.append({"pi": float(pi), "reason": str(exc)})
            continue
        values[j], ses[j] = cv_mean(utility.u(np.exp(ln_xt)), controls)
    best = np.flatnonzero(values == np.max(values))
    j_star = best[np.argmin(np.abs(pi_values[best]))]
    return values, ses, excluded, int(j_star)


def dual_search(model, pair, y, ensemble, theta1_values=None, mu=None):
    grid = ensemble.grid
    if model.n_marks == 0:
        candidates = [np.zeros(0)]
    else:
        candidates = [np.broadcast_to(np.asarray(t, dtype=float), (model.n_marks,))
                      for t in theta1_values]
    controls_cv = ensemble.terminal_design()[:, 1:]
    values = np.full(len(candidates), -np.inf)
    ses = np.zeros(len(candidates))
    excluded = []
    for j, th1 in enumerate(candidates):
        try:
            control = scenario_from_theta1(model, grid, th1, y, mu=mu)
        except ValueError as exc:
            excluded.append({"theta1": np.asarray(th1).tolist(), "reason": str(exc)})
            continue
        ln_gt = terminal_log_density(ensemble, control)
        values[j], ses[j] = cv_mean(-pair.v(np.exp(ln_gt)), controls_cv)
    best = np.flatnonzero(values == np.max(values))
    norms = [float(np.linalg.norm(candidates[j])) for j in best]
    j_star = best[int(np.argmin(norms))]
    return values, ses, excluded, int(j_star)


def robust_saddle(model, utility, penalty, x0, pi_values, mu_values, ensemble):
    grid = ensemble.grid
    pi_values = np.asarray(list(pi_values), dtype=float)
    mu_values = np.asarray(list(mu_values), dtype=float)
    controls_cv = ensemble.terminal_design()[:, 1:]
    payoff = np.full((pi_values.size, mu_values.size), -np.inf)
    payoff_se = np.zeros_like(payoff)
    excluded = []
    dt = grid.dt
    for jm, mu in enumerate(mu_values):
        pen = float(np.sum(penalty.rho(np.full(grid.n_steps, mu)) * dt))
        for jp, pi in enumerate(pi_values):
            try:
                ln_xt = terminal_log_wealth(model, ensemble, pi, x0, mu=mu)
            except AdmissibilityError as exc:
                excluded.append({"pi": float(pi), "mu": float(mu), "reason": str(exc)})
                continue
            est, se = cv_mean(utility.u(np.exp(ln_xt)), controls_cv)
            payoff[jp, jm] = est + pen
            payoff_se[jp, jm] = se
    col_max = payoff.max(axis=0)
    row_min = payoff.min(axis=1)
    cells = [
        (jp, jm)
        for jp in range(pi_values.size)
        for jm in range(mu_values.size)
        if payoff[jp, jm] == col_max[jm] and payoff[jp, jm] == row_min[jp]
    ]
    minimax = float(col_max.min())
    maximin = float(row_min.max())
    if cells:
        cells.sort(key=lambda c: (abs(pi_values[c[0]]), abs(mu_values[c[1]])))
        jp, jm = cells[0]
        is_saddle, gap = True, 0.0
    else:
        jm = int(np.argmin(col_max))
        jp = int(np.argmax(payoff[:, jm]))
        is_saddle, gap = False, minimax - maximin
    return {"payoff": payoff, "payoff_se": payoff_se, "excluded": excluded,
            "cell": (int(jp), int(jm)), "is_saddle": is_saddle, "gap": gap,
            "minimax": minimax, "maximin": maximin}


def robust_dual_search(model, pair, penalty, y, ensemble, mu_values, theta1_values=None):
    grid = ensemble.grid
    dt = grid.dt
    mu_values = np.asarray(list(mu_values), dtype=float)
    if model.n_marks == 0:
        theta1_candidates = [np.zeros(0)]
    else:
        theta1_candidates = [np.broadcast_to(np.asarray(t, dtype=float), (model.n_marks,))
                             for t in theta1_values]
    controls_cv = ensemble.terminal_design()[:, 1:]
    combos = [(mu, th1) for mu in mu_values for th1 in theta1_candidates]
    values = np.full(len(combos), -np.inf)
    ses = np.zeros(len(combos))
    for j, (mu, th1) in enumerate(combos):
        try:
            control = scenario_from_theta1(model, grid, th1, y, mu=float(mu))
        except ValueError:
            continue
        ln_gt = terminal_log_density(ensemble, control)
        pen = float(np.sum(penalty.rho(np.full(grid.n_steps, mu)) * dt))
        est, se = cv_mean(-pair.v(np.exp(ln_gt)), controls_cv)
        values[j] = est - pen
        ses[j] = se
    best = np.flatnonzero(values == np.max(values))
    sizes = [abs(float(combos[j][0])) + float(np.linalg.norm(combos[j][1])) for j in best]
    j_star = best[int(np.argmin(sizes))]
    return values, ses, int(j_star)


class PathsMajorDesign:
    """Log-state monomial designs built path-major, (n_paths, n_columns) per
    step, from (n_paths, n_steps + 1) state arrays or thunks returning them."""

    def __init__(self, ensemble, state=None, basis=None):
        basis = basis or RegressionBasis()
        state = state or {"S": ensemble.channel("S")}
        names = basis.channels if basis.channels is not None else tuple(sorted(state))
        values = [state[n]() if callable(state[n]) else state[n] for n in names]
        if basis.transform == "log":
            self.logs = [np.log(v) for v in values]
        else:
            self.logs = [np.asarray(v, dtype=float) for v in values]
        self.exponents = _monomial_exponents(len(self.logs), basis.degree)
        self.warned = False

    def design(self, step):
        cols = np.empty((self.logs[0].shape[0], len(self.exponents)))
        for j, expo in enumerate(self.exponents):
            col = np.ones(cols.shape[0])
            for z, e in zip(self.logs, expo):
                if e:
                    col = col * z[:, step] ** e
            cols[:, j] = col
        return cols


def _lstsq_fit(builder, a, targets, warn=True):
    coef, _, rank, sv = np.linalg.lstsq(a, targets, rcond=None)
    if warn and rank < a.shape[1] and not builder.warned:
        warnings.warn(
            "design matrix rank-deficient; dependent basis columns ignored "
            f"(rank {rank} of {a.shape[1]})",
            RuntimeWarning,
            stacklevel=3,
        )
        builder.warned = True
    cond = float(sv[0] / sv[rank - 1]) if rank else math.inf
    return a @ coef, rank, cond


def solve_linear_bsde(ensemble, terminal, driver=None, state=None, basis=None):
    """Backward sweep with two SVD ``lstsq`` fits per step; returns (p, q, r, per_step)."""
    terminal = np.asarray(terminal, dtype=float)
    grid, model = ensemble.grid, ensemble.model
    dt = grid.dt
    k = model.n_marks
    driver = driver or DriverSpec()
    c0, cp, cq, cr = driver.on_grid(grid, k)
    builder = PathsMajorDesign(ensemble, state, basis)
    nu = model.intensities
    dnt = ensemble.jump_counts - (nu * dt)[None, None, :]

    p = np.empty((ensemble.n_paths, grid.n_steps + 1))
    q = np.zeros((ensemble.n_paths, grid.n_steps))
    r = np.zeros((ensemble.n_paths, grid.n_steps, k))
    p[:, -1] = terminal
    per_step = []
    for i in range(grid.n_steps - 1, -1, -1):
        a = builder.design(i)
        fitted, rank, cond = _lstsq_fit(builder, a, p[:, i + 1], warn=i > 0)
        centered = p[:, i + 1] - fitted
        targets = [centered * ensemble.brownian_increments[:, i] / dt]
        active = []
        for kk in range(k):
            lam = nu[kk] * dt
            if lam > 0:
                targets.append(centered * dnt[:, i, kk] / lam)
                active.append(kk)
        stacked, _, _ = _lstsq_fit(builder, a, np.column_stack(targets), warn=i > 0)
        q[:, i] = stacked[:, 0]
        for j, kk in enumerate(active, start=1):
            r[:, i, kk] = stacked[:, j]
        drift = c0[i] + cq[i] * q[:, i] + (r[:, i] @ cr[i] if k else 0.0)
        p[:, i] = (fitted - dt * drift) / (1.0 + dt * cp[i])
        per_step.append({"step": i, "rank": int(rank), "cond": cond,
                         "fit_rmse": float(np.sqrt(np.mean(centered**2)))})
    per_step.reverse()
    return p, q, r, per_step


def _long_double_basis(a):
    """Orthonormal columns spanning the columns of ``a``, in ``np.longdouble``:
    modified Gram-Schmidt, run twice per column; a column whose remainder
    falls to 1e-13 of its norm is dependent and dropped."""
    kept = []
    for column in a.T:
        v = column.astype(np.longdouble)
        norm = np.sqrt(v @ v)
        for _ in range(2):
            for u in kept:
                v -= (u @ v) * u
        rest = np.sqrt(v @ v)
        if rest > 1e-13 * norm:
            kept.append(v / rest)
    return np.stack(kept, axis=1)


def long_double_sweep(ensemble, terminal, state=None, basis=None):
    """The driver-free backward sweep in ``np.longdouble`` (about 1e-19 on
    x86-64), on the float64 path-major designs; numpy's ``linalg`` refuses
    long double, so the fits are projections on :func:`_long_double_basis`.
    Returns (p, q, r, ranks)."""
    grid, model = ensemble.grid, ensemble.model
    builder = PathsMajorDesign(ensemble, state, basis)
    dt = np.longdouble(grid.dt)
    lam = (model.intensities * grid.dt).astype(np.longdouble)
    dnt = ensemble.jump_counts - lam
    db = ensemble.brownian_increments.astype(np.longdouble)
    p = np.empty((ensemble.n_paths, grid.n_steps + 1), dtype=np.longdouble)
    q = np.zeros((ensemble.n_paths, grid.n_steps), dtype=np.longdouble)
    r = np.zeros((ensemble.n_paths, grid.n_steps, model.n_marks), dtype=np.longdouble)
    p[:, -1] = terminal
    ranks = []
    for i in range(grid.n_steps - 1, -1, -1):
        u = _long_double_basis(builder.design(i))
        ranks.append(u.shape[1])
        fitted = u @ (u.T @ p[:, i + 1])
        centered = p[:, i + 1] - fitted
        q[:, i] = u @ (u.T @ (centered * db[:, i] / dt))
        for kk in np.flatnonzero(lam > 0):
            r[:, i, kk] = u @ (u.T @ (centered * dnt[:, i, kk] / lam[kk]))
        p[:, i] = fitted
    return p, q, r, ranks[::-1]


def _split_indices(n_paths, split_seed):
    """Deterministic 50/50 train/test split of path indices (Philox keyed by the seed)."""
    perm = np.random.Generator(np.random.Philox(key=split_seed)).permutation(n_paths)
    return perm[:n_paths // 2], perm[n_paths // 2:]


def bsde_residual_report(triple, ensemble, driver=None, state=None, basis=None, split_seed=0):
    """Out-of-sample one-step residual statistics for a solved (or injected) triple.

    The pathwise residual of step i is

        rho = p_{i+1} - p_i - f(t_i, p_i, q_i, r_i) dt - q_i dB_i - sum_k r_ik dNtilde_ik.

    The ensemble is split 50/50; the conditional-mean component of rho is
    fitted by ``lstsq`` on the train half and evaluated on the test half,
    while the q/r components are read off covariances on the test half.  All
    figures are normalized by the mean magnitude of the terminal value.
    """
    grid, model = ensemble.grid, ensemble.model
    dt = grid.dt
    k = model.n_marks
    driver = driver or DriverSpec()
    c0, cp, cq, cr = driver.on_grid(grid, k)
    builder = PathsMajorDesign(ensemble, state, basis)
    train, test = _split_indices(ensemble.n_paths, split_seed)
    nu = model.intensities
    scale = float(np.mean(np.abs(triple.p[:, -1])))
    scale = scale if scale > 0 else 1.0
    per_step = []
    pathwise_max = 0.0
    for i in range(grid.n_steps):
        f = c0[i] + cp[i] * triple.p[:, i] + cq[i] * triple.q[:, i]
        if k:
            f = f + triple.r[:, i] @ cr[i]
        rho = triple.p[:, i + 1] - triple.p[:, i] - f * dt
        rho = rho - triple.q[:, i] * ensemble.brownian_increments[:, i]
        if k:
            dnt = ensemble.jump_counts[:, i] - nu * dt
            rho = rho - np.einsum("pk,pk->p", triple.r[:, i], dnt)
        pathwise_max = max(pathwise_max, float(np.max(np.abs(rho[test]))) / scale)
        a = builder.design(i)
        coef, *_ = np.linalg.lstsq(a[train], rho[train], rcond=None)
        cond_rms = float(np.sqrt(np.mean((a[test] @ coef) ** 2))) / scale
        q_res = float(np.mean(rho[test] * ensemble.brownian_increments[test, i])) / dt / scale
        r_res = 0.0
        for kk in range(k):
            lam = nu[kk] * dt
            if lam > 0:
                r_res = max(r_res, abs(float(np.mean(rho[test] * dnt[test, kk])) / lam) / scale)
        per_step.append({"step": i, "value_residual": cond_rms, "q_residual": q_res,
                         "r_residual": r_res})
    combined = [max(s["value_residual"], abs(s["q_residual"]), s["r_residual"]) for s in per_step]
    return {"pathwise_max": pathwise_max, "max_residual": float(np.max(combined)),
            "mean_residual": float(np.mean(combined)), "per_step": per_step, "scale": scale,
            "split_seed": split_seed}
