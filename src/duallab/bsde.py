"""Least-squares Monte Carlo solver for linear BSDEs with jumps.

One backward sweep per solve: at each step the conditional expectation of the
next value is fitted on a polynomial basis in log-state, the Brownian
integrand q is read off the centered covariance with the Brownian increment,
and the per-mark jump integrands r from the centered covariances with the
compensated jump counts.  Drivers affine in (p, q, r) are folded in with an
implicit affine solve in p.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .market import PathEnsemble, TimeGrid, eval_on_grid

IMPLICIT_STEP_TOL = 1e-8


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomials up to ``degree`` in transforms of the state channels.

    The default is log-state (degree-2 polynomials in ln of the channels the
    caller provides).  ``transform="raw"`` uses the channels untransformed,
    which is the payoff-basis idiom: passing the claim transform itself as a
    state channel puts the terminal condition in the span of the basis.
    """

    degree: int = 2
    channels: tuple[str, ...] | None = None
    transform: str = "log"

    def __post_init__(self) -> None:
        if self.transform not in ("log", "raw"):
            raise ValueError("transform must be 'log' or 'raw'")


@dataclass(frozen=True)
class DriverSpec:
    """dt-term f(t,p,q,r) = constant + p_coeff*p + q_coeff*q + sum_k r_coeff_k*r_k.

    Coefficients may be scalars, callables of time, or per-step arrays;
    ``r_coeff`` may additionally be an (n_steps, n_marks) array.
    """

    constant: object = 0.0
    p_coeff: object = 0.0
    q_coeff: object = 0.0
    r_coeff: object = 0.0

    def on_grid(self, grid: TimeGrid, n_marks: int):
        c0 = eval_on_grid(self.constant, grid.left_times)
        cp = eval_on_grid(self.p_coeff, grid.left_times)
        cq = eval_on_grid(self.q_coeff, grid.left_times)
        r = np.asarray(self.r_coeff, dtype=float) if not callable(self.r_coeff) else None
        if callable(self.r_coeff):
            cr = np.tile(eval_on_grid(self.r_coeff, grid.left_times)[:, None], (1, n_marks))
        elif r.ndim == 2:
            cr = r
        else:
            cr = np.broadcast_to(r, (grid.n_steps, n_marks)).copy() if n_marks else np.zeros((grid.n_steps, 0))
        return c0, cp, cq, cr

    @classmethod
    def zero(cls) -> "DriverSpec":
        return cls()


@dataclass
class AdjointTriple:
    """Discrete (p, q, r): value process, Brownian and per-mark jump integrands.

    ``p`` has shape (n_paths, n_steps+1); ``q`` and ``r`` live on steps.
    ``mode`` records whether the channels are closed-form or regression
    estimates, since downstream tolerances differ by orders of magnitude.
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    mode: str = "regression"
    diagnostics: dict = field(default_factory=dict)


def _default_state(ensemble: PathEnsemble) -> dict[str, np.ndarray]:
    return {"S": ensemble.channel("S")}


def _monomial_exponents(n_vars: int, degree: int):
    out = [(0,) * n_vars]
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_vars), d):
            expo = [0] * n_vars
            for c in combo:
                expo[c] += 1
            out.append(tuple(expo))
    return out


class _BasisBuilder:
    """Design matrices of log-state monomials, with rank diagnostics."""

    def __init__(self, state: dict[str, np.ndarray], basis: RegressionBasis):
        names = basis.channels if basis.channels is not None else tuple(sorted(state))
        missing = [n for n in names if n not in state]
        if missing:
            raise KeyError(f"basis channels {missing} not in state {sorted(state)}")
        if basis.transform == "log":
            self.logs = [np.log(state[n]) for n in names]
        else:
            self.logs = [np.asarray(state[n], dtype=float) for n in names]
        self.exponents = _monomial_exponents(len(self.logs), basis.degree)
        self.n_columns = len(self.exponents)
        self.warned = False

    def design(self, step: int) -> np.ndarray:
        cols = np.empty((self.logs[0].shape[0], self.n_columns))
        for j, expo in enumerate(self.exponents):
            col = np.ones(cols.shape[0])
            for z, e in zip(self.logs, expo):
                if e:
                    col = col * z[:, step] ** e
            cols[:, j] = col
        return cols

    def constant(self, step: int) -> bool:
        """Whether every state channel takes one value across paths at ``step``
        (a deterministic state: the design has rank 1 by construction)."""
        return all(np.all(z[:, step] == z[0, step]) for z in self.logs)

    def factor(self, a: np.ndarray, warn: bool = True):
        """Orthonormal basis of the fitted span of ``a``; returns (basis, rank, cond).

        One thin QR of the design plus an SVD of its small triangular factor
        give the singular values ``numpy.linalg.lstsq`` computes, and the same
        rank cutoff eps*max(M, N)*s_max.  Rank deficiency (collinear or
        constant state) drops the dependent directions, reducing the effective
        basis degree rather than failing a step.  The least-squares fit of any
        right-hand side is its projection onto the returned basis.
        """
        q, r = np.linalg.qr(a)
        u, sv, _ = np.linalg.svd(r)
        rank = int(np.sum(sv > np.finfo(float).eps * max(a.shape) * sv[0]))
        if warn and rank < a.shape[1] and not self.warned:
            warnings.warn(
                "design matrix rank-deficient; dependent basis columns ignored "
                f"(rank {rank} of {a.shape[1]})",
                RuntimeWarning,
                stacklevel=3,
            )
            self.warned = True
        cond = float(sv[0] / sv[rank - 1]) if rank else math.inf
        return q @ u[:, :rank], rank, cond


def solve_linear_bsde(
    ensemble: PathEnsemble,
    terminal: np.ndarray,
    driver: DriverSpec | None = None,
    state: dict[str, np.ndarray] | None = None,
    basis: RegressionBasis | None = None,
) -> AdjointTriple:
    """Backward sweep producing a regression-mode :class:`AdjointTriple`.

    The terminal condition is matched pathwise exactly.  Per step, with
    m = E[p_{i+1} | F_i] fitted on the basis,

        q_i = E[(p_{i+1} - m) dB_i | F_i] / dt
        r_ik = E[(p_{i+1} - m) dNtilde_ik | F_i] / (nu_k dt)
        p_i = (m - dt*(c0 + cq*q_i + sum_k cr_k*r_ik)) / (1 + dt*cp)

    Centering by m removes the dominant variance from the covariance targets.
    """
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (ensemble.n_paths,):
        raise ValueError("terminal must be a per-path vector")
    if not np.all(np.isfinite(terminal)):
        raise ValueError("terminal values must be finite")
    grid, model = ensemble.grid, ensemble.model
    dt = grid.dt
    k = model.n_marks
    driver = driver or DriverSpec.zero()
    c0, cp, cq, cr = driver.on_grid(grid, k)
    builder = _BasisBuilder(state or _default_state(ensemble), basis or RegressionBasis())
    nu = model.intensities

    p = np.empty((ensemble.n_paths, grid.n_steps + 1))
    q = np.zeros((ensemble.n_paths, grid.n_steps))
    r = np.zeros((ensemble.n_paths, grid.n_steps, k))
    p[:, -1] = terminal
    per_step = []
    constant_steps = 0
    for i in range(grid.n_steps - 1, -1, -1):
        # a deterministic state (always at t_0) is rank-deficient by
        # construction: counted in the diagnostics instead of warned about
        constant = builder.constant(i)
        constant_steps += constant
        span, rank, cond = builder.factor(builder.design(i), warn=i > 0 and not constant)
        fitted = span @ (span.T @ p[:, i + 1])
        centered = p[:, i + 1] - fitted
        targets = [centered * ensemble.brownian_increments[:, i] / dt]
        active = []
        dnt = ensemble.compensated_step(i) if k else None
        for kk in range(k):
            lam = nu[kk] * dt
            if lam > 0:
                targets.append(centered * dnt[:, kk] / lam)
                active.append(kk)
        stacked = span @ (span.T @ np.column_stack(targets))
        q[:, i] = stacked[:, 0]
        for j, kk in enumerate(active, start=1):
            r[:, i, kk] = stacked[:, j]
        denom = 1.0 + dt * cp[i]
        if abs(denom) < IMPLICIT_STEP_TOL:
            raise ValueError(f"implicit step near-singular at step {i} (denominator {denom:g})")
        drift = c0[i] + cq[i] * q[:, i] + (r[:, i] @ cr[i] if k else 0.0)
        p[:, i] = (fitted - dt * drift) / denom
        per_step.append(
            {
                "step": i,
                "t": float(grid.left_times[i]),
                "rank": int(rank),
                "cond": cond,
                "fit_rmse": float(np.sqrt(np.mean(centered**2))),
            }
        )
    per_step.reverse()
    diagnostics = {
        "basis_degree": (basis or RegressionBasis()).degree,
        "n_columns": builder.n_columns,
        "rank_deficient": builder.warned,
        "constant_state_steps": constant_steps,
        "per_step": per_step,
    }
    return AdjointTriple(p, q, r, mode="regression", diagnostics=diagnostics)


def martingale_representation(
    ensemble: PathEnsemble,
    terminal: np.ndarray,
    state: dict[str, np.ndarray] | None = None,
    basis: RegressionBasis | None = None,
) -> AdjointTriple:
    """Driver-free representation: p(t) = E[terminal | F_t], q and r its integrands."""
    return solve_linear_bsde(ensemble, terminal, DriverSpec.zero(), state, basis)


def bsde_residual_report(
    triple: AdjointTriple,
    ensemble: PathEnsemble,
    driver: DriverSpec | None = None,
    state: dict[str, np.ndarray] | None = None,
    basis: RegressionBasis | None = None,
    split_seed: int = 0,
) -> dict:
    """Out-of-sample one-step residual statistics for a solved (or injected) triple.

    The pathwise residual of step i is

        rho = p_{i+1} - p_i - f(t_i, p_i, q_i, r_i) dt - q_i dB_i - sum_k r_ik dNtilde_ik.

    The ensemble is split 50/50; the conditional-mean component of rho is
    fitted on the train half and evaluated on the test half, while the q/r
    components are read off covariances on the test half.  All figures are
    normalized by the mean magnitude of the terminal value.
    """
    grid, model = ensemble.grid, ensemble.model
    dt = grid.dt
    k = model.n_marks
    driver = driver or DriverSpec.zero()
    c0, cp, cq, cr = driver.on_grid(grid, k)
    builder = _BasisBuilder(state or _default_state(ensemble), basis or RegressionBasis())
    train, test = ensemble.split_indices(split_seed)
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
            dnt = ensemble.compensated_step(i)
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
                r_res = max(
                    r_res,
                    abs(float(np.mean(rho[test] * dnt[test, kk])) / lam) / scale,
                )
        per_step.append(
            {
                "step": i,
                "value_residual": cond_rms,
                "q_residual": q_res,
                "r_residual": r_res,
            }
        )
    combined = [
        max(s["value_residual"], abs(s["q_residual"]), s["r_residual"]) for s in per_step
    ]
    return {
        "pathwise_max": pathwise_max,
        "max_residual": float(np.max(combined)),
        "mean_residual": float(np.mean(combined)),
        "per_step": per_step,
        "scale": scale,
        "split_seed": split_seed,
    }


def diagnostics_json(triple: AdjointTriple) -> str:
    """Solver diagnostics (residuals, condition numbers, basis) as JSON."""
    return json.dumps({"mode": triple.mode, **triple.diagnostics}, sort_keys=True)
