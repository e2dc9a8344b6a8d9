"""Least-squares Monte Carlo solver for linear BSDEs with jumps.

One backward sweep per solve: at each step the conditional expectation of the
next value is fitted on a polynomial basis in log-state, the Brownian
integrand q is read off the centered covariance with the Brownian increment,
and the per-mark jump integrands r from the centered covariances with the
compensated jump counts.  Drivers affine in (p, q, r) are folded in with an
implicit affine solve in p.

The sweep works on contiguous per-step rows.  Like every path array, the
state, dB, p, q and r are stored time-major, one row per step, and p, q and
r are returned as transposed views of shape (n_paths, ...).  A sweep may
keep p at its two ends only, since each step reads p at the next step alone,
and q and r as their per-step means over paths only.
Each step's state is logged into a scratch row, and its compensated jumps
are built from its events.
Each step's design A is factored once by CholeskyQR2 (Fukaya, Nakatsukasa,
Yanagisawa and Yamamoto 2014): the Cholesky factor R1 of the Gram matrix,
Q1 = A R1^-1, the same once more for R2, and an SVD of R2 R1 for rank and
condition number.  CholeskyQR2 is accurate only while cond(A) stays
well below u^(-1/2), about 1e8, so a step falls back to a Householder thin QR
plus an SVD of its triangular factor when the Cholesky factorisation fails,
the rank is below the column count, or the condition number exceeds
:data:`CHOLQR_MAX_COND`.  The deterministic state at t_0 always takes the
fallback.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .market import PathEnsemble, TimeGrid, eval_on_grid

IMPLICIT_STEP_TOL = 1e-8
# condition number above which a step's CholeskyQR2 factor is replaced by the
# Householder fallback: inside CholeskyQR2's accurate range (about 1e8); below
# it, CholeskyQR2 is closer to a long-double sweep than the fallback
CHOLQR_MAX_COND = 1e7


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


class AdjointTriple:
    """Discrete (p, q, r): value process, Brownian and per-mark jump integrands.

    ``p`` has shape (n_paths, n_steps+1); ``q`` (n_paths, n_steps) and ``r``
    (n_paths, n_steps, n_marks) live on steps.  Each is a transposed view of
    time-major storage, one contiguous row of paths per step (and mark);
    :meth:`rows` reads a channel a step row, or a block of rows, at a time.
    ``mode`` records whether the channels are closed-form or regression
    estimates, since downstream tolerances differ by orders of magnitude.
    The closed forms keep no channel whole (:class:`ClosedFormAdjoints`).

    A sweep may keep a channel in part (``keep`` of
    :func:`solve_linear_bsde`): p at its two ends only (``ends`` = (p(t_0),
    p(T)), shape (2, n_paths)), and q and r as their per-step means over
    paths only (``q_mean``, ``r_mean``).  Reading a channel that was not kept
    whole raises ValueError.  :attr:`p_initial`, :attr:`p_terminal`,
    :attr:`q_mean` (n_steps,) and :attr:`r_mean` (n_steps, n_marks) read
    either form; a kept channel's mean is ``q.mean(axis=0)`` or
    ``r.mean(axis=0)``, bit for bit what a sweep records for a dropped one.
    """

    def __init__(self, p: np.ndarray | None, q: np.ndarray | None, r: np.ndarray | None,
                 mode: str = "regression", diagnostics: dict | None = None, *,
                 ends: np.ndarray | None = None, q_mean: np.ndarray | None = None,
                 r_mean: np.ndarray | None = None):
        self._p, self._q, self._r = p, q, r
        self._ends, self._q_mean, self._r_mean = ends, q_mean, r_mean
        self.mode = mode
        self.diagnostics = {} if diagnostics is None else diagnostics

    # what a triple keeps of a channel it does not keep whole
    _PARTIAL = {"p": "at p(t_0) and p(T) (read p_initial and p_terminal)",
                "q": "as its per-step mean over paths (read q_mean)",
                "r": "as its per-step mean over paths (read r_mean)"}

    def _whole(self, channel: str) -> np.ndarray:
        kept = getattr(self, "_" + channel)
        if kept is None:
            raise ValueError(
                f"this adjoint triple keeps {channel} only {self._PARTIAL[channel]}; a sweep or "
                f"a primal search with {channel!r} in keep=..., or evaluate_dual_scenario for a "
                f"dual, keeps {channel} whole")
        return kept

    @property
    def p(self) -> np.ndarray:
        return self._whole("p")

    @property
    def q(self) -> np.ndarray:
        return self._whole("q")

    @property
    def r(self) -> np.ndarray:
        return self._whole("r")

    @property
    def p_initial(self) -> np.ndarray:
        """p(t_0), one value per path."""
        return self.rows("p", 0) if self._ends is None else self._ends[0]

    @property
    def p_terminal(self) -> np.ndarray:
        """p(T), one value per path."""
        return self.rows("p", -1) if self._ends is None else self._ends[1]

    @property
    def q_mean(self) -> np.ndarray:
        """Per-step mean of q over paths, (n_steps,)."""
        return self._q_mean if self._q is None else self._q.mean(axis=0)

    @property
    def r_mean(self) -> np.ndarray:
        """Per-step, per-mark mean of r over paths, (n_steps, n_marks)."""
        return self._r_mean if self._r is None else self._r.mean(axis=0)

    def rows(self, channel: str, steps, paths: slice = slice(None)) -> np.ndarray:
        """The channel ``channel`` ("p", "q" or "r") at the step ``steps`` on
        the paths ``paths``, time-major: a row (paths,) of p or q, (n_marks,
        paths) of r; a slice of steps adds a leading axis over them.  A kept
        channel's rows are views of its storage."""
        return np.moveaxis(getattr(self, channel), 0, -1)[steps, ..., paths]


class ClosedFormAdjoints(AdjointTriple):
    """Closed-form adjoints p = C/Z, q = q_ratio*p(t-) and r_k =
    r_ratio_k*p(t-), formed on demand.

    The triple keeps the deterministic tail factor C (n_steps + 1,), the
    time-major rows of the forward process Z it divides (alive anyway: the
    wealth or the density), and the per-step ratios ``q_ratio`` (n_steps,)
    and ``r_ratio`` (n_steps, n_marks).  :meth:`rows` forms a row, or a
    block of rows over a range of paths, when a reader asks; each value is
    the one a whole channel holds, bit for bit.  The whole ``p``, ``q`` and
    ``r`` are formed on each read and never kept, and :attr:`q_mean` and
    :attr:`r_mean` are pairwise means of rows, ``q.mean(axis=0)`` and
    ``r.mean(axis=0)`` bit for bit.
    """

    def __init__(self, tail_factor: np.ndarray, process: np.ndarray, q_ratio: np.ndarray,
                 r_ratio: np.ndarray, family: str):
        super().__init__(None, None, None, mode="analytic", diagnostics={"family": family})
        self._c, self._process = tail_factor, process.T
        self._q_ratio, self._r_ratio = q_ratio, r_ratio

    def rows(self, channel: str, steps, paths: slice = slice(None)) -> np.ndarray:
        """As :meth:`AdjointTriple.rows`, formed here; q and r read p at
        the left endpoint of each step, a slice of steps in increasing
        order."""
        if channel == "p":
            return self._p_rows(steps, paths)
        if channel not in ("q", "r"):
            raise ValueError(f"channel must be 'p', 'q' or 'r', not {channel!r}")
        n_steps = len(self._q_ratio)
        steps = slice(*steps.indices(n_steps)) if isinstance(steps, slice) else range(n_steps)[steps]
        p = self._p_rows(steps, paths)
        if channel == "q":
            return np.multiply(self._q_ratio[steps][..., None], p, out=p)
        return self._r_ratio[steps][..., None] * p[..., None, :]

    def _p_rows(self, steps, paths: slice) -> np.ndarray:
        return np.divide(self._c[steps][..., None], self._process[steps, paths])

    def _whole(self, channel: str) -> np.ndarray:
        """The whole channel in the layout of a kept one, formed on this call."""
        return np.moveaxis(self.rows(channel, slice(None)), -1, 0)

    @property
    def q_mean(self) -> np.ndarray:
        return np.array([self.rows("q", i).mean() for i in range(len(self._q_ratio))])

    @property
    def r_mean(self) -> np.ndarray:
        return np.array([self.rows("r", i).mean(axis=1) for i in range(len(self._q_ratio))]
                        ).reshape(self._r_ratio.shape)


def log_adjoints(grid: TimeGrid, rate: np.ndarray, process: np.ndarray, q_ratio: np.ndarray,
                 r_ratio: np.ndarray, family: str) -> ClosedFormAdjoints:
    """Closed-form adjoints of a log problem: p = C/X for the forward
    ``process`` X, with the deterministic tail factor C(t_i) = exp(sum_{j>=i}
    rate_j dt), C(T) = 1; then q = q_ratio*p(t-) and r_k = r_ratio_k*p(t-)
    per step (and mark), with p at the left endpoint of each step as p(t-).
    The triple keeps C, the time-major rows of ``process`` and the ratios,
    and forms the channels row by row on demand (:class:`ClosedFormAdjoints`).
    """
    tail = np.concatenate([np.cumsum((rate * grid.dt)[::-1])[::-1], [0.0]])
    return ClosedFormAdjoints(np.exp(tail), process, q_ratio, r_ratio, family)


def _default_state(ensemble: PathEnsemble) -> dict:
    return {"S": lambda: ensemble.channel("S")}


def _monomial_exponents(n_vars: int, degree: int):
    out = [(0,) * n_vars]
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_vars), d):
            expo = [0] * n_vars
            for c in combo:
                expo[c] += 1
            out.append(tuple(expo))
    return out


def _rank_cond(sv: np.ndarray, shape) -> tuple[int, float]:
    """Rank at the cutoff eps*max(M, N)*s_max of ``numpy.linalg.lstsq``, and
    the condition number s_max / s_rank."""
    rank = int(np.sum(sv > np.finfo(float).eps * max(shape) * sv[0]))
    return rank, (float(sv[0] / sv[rank - 1]) if rank else math.inf)


def _gram(a: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """a @ a.T, each entry a pairwise sum of the products of two rows of
    ``a``, formed in the scratch row ``tmp``.

    The orthogonality of CholeskyQR2's Q is set by the rounding of the Gram
    sums.  On a 3 x 50k design, |Q^T Q - I| is 4e-16 with pairwise sums,
    2e-15 with numpy's ``a @ a.T`` and 2e-14 with BLAS row dot products; with
    the last, the sweep's p(t_0) drifted 2e-12 from a Householder sweep's
    over 100 steps, against 6e-13 with pairwise sums.
    """
    n = a.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(i + 1):
            out[i, j] = out[j, i] = np.sum(np.multiply(a[i], a[j], out=tmp))
    return out


class _Cholqr2(NamedTuple):
    """The small factors of a CholeskyQR2 step: Q1 = inv_r1.T @ A and
    Q = inv_r2.T @ Q1, R = R2 R1, and the rank and condition number of A."""

    inv_r1: np.ndarray
    inv_r2: np.ndarray
    r: np.ndarray
    rank: int
    cond: float


def _cholqr2(a: np.ndarray, q1: np.ndarray, tmp: np.ndarray) -> _Cholqr2 | None:
    """CholeskyQR2 of the (n_columns, n) design ``a``, with Q1 written into
    ``q1`` and the Gram products into the row ``tmp``; None when a Cholesky
    factorisation fails, the rank is below the column count or the condition
    number exceeds :data:`CHOLQR_MAX_COND`."""
    try:
        r1 = np.linalg.cholesky(_gram(a, tmp)).T
        inv_r1 = np.linalg.inv(r1)
        np.matmul(inv_r1.T, a, out=q1)
        r2 = np.linalg.cholesky(_gram(q1, tmp)).T
        r = r2 @ r1
        rank, cond = _rank_cond(np.linalg.svd(r, compute_uv=False), a.shape)
    except np.linalg.LinAlgError:
        return None
    if rank < a.shape[0] or cond > CHOLQR_MAX_COND:
        return None
    return _Cholqr2(inv_r1, np.linalg.inv(r2), r, rank, cond)


def _driver_rows(ensemble: PathEnsemble, steps):
    """(i, dB_i, dNtilde_i) for each step i of ``steps``, as contiguous rows
    (n_paths,) and (n_marks, n_paths): dB_i is a row of dB, and dNtilde_i is
    built from the step's jump events into one buffer, valid until the next
    step is read."""
    db = ensemble.brownian_increments.T
    dnt = np.empty((ensemble.model.n_marks, ensemble.n_paths))
    for i in steps:
        yield i, db[i], ensemble.compensated_step(i, dnt)


class _BasisBuilder:
    """Design matrices of log-state monomials, with rank diagnostics.

    A state value is a (n_paths, n_steps + 1) array or a zero-argument
    callable returning one; only the channels of the basis are evaluated.
    Each is read one step row at a time, through its time-major transpose,
    and logged into a scratch row; no channel is copied whole.
    """

    def __init__(self, state: dict, basis: RegressionBasis):
        names = basis.channels if basis.channels is not None else tuple(sorted(state))
        missing = [n for n in names if n not in state]
        if missing:
            raise KeyError(f"basis channels {missing} not in state {sorted(state)}")
        self.rows = [np.asarray(state[name]() if callable(state[name]) else state[name],
                                dtype=float).T for name in names]
        self.log = basis.transform == "log"
        self.exponents = _monomial_exponents(len(self.rows), basis.degree)
        self.n_columns = len(self.exponents)
        self.warned = False

    def design(self, step: int, out: np.ndarray, tmp: np.ndarray,
               state: np.ndarray) -> list[np.ndarray]:
        """Write the (n_columns, n_paths) design of ``step`` into ``out``, one
        row per monomial, with the work row ``tmp``; return the step's state,
        one row per channel (logged into the rows of ``state`` under the log
        transform)."""
        z = ([np.log(rows[step], out=row) for rows, row in zip(self.rows, state)] if self.log
             else [rows[step] for rows in self.rows])
        out.fill(1.0)
        for row, expo in zip(out, self.exponents):
            for zc, e in zip(z, expo):
                if e == 1:
                    row *= zc
                elif e:
                    row *= np.power(zc, e, out=tmp)
        return z

    def householder(self, a: np.ndarray, warn: bool = True):
        """The fallback of a step's CholeskyQR2 factors: a Householder thin QR
        of the (n_columns, n) design ``a.T`` plus an SVD of its triangular
        factor.  Returns (basis, rank, cond): ``basis`` (rank, n) has
        orthonormal rows spanning the rows of ``a``, so the least-squares fit
        of a right-hand side b is (basis @ b) @ basis.  Rank deficiency
        (collinear or constant state) drops the dependent directions, reducing
        the effective basis degree rather than failing a step; it is warned
        about once per builder.
        """
        n_columns = a.shape[0]
        q, r = np.linalg.qr(a.T)
        u, sv, _ = np.linalg.svd(r)
        rank, cond = _rank_cond(sv, a.shape)
        if warn and rank < n_columns and not self.warned:
            warnings.warn(
                "design matrix rank-deficient; dependent basis columns ignored "
                f"(rank {rank} of {n_columns})",
                RuntimeWarning,
                stacklevel=3,
            )
            self.warned = True
        return (q @ u[:, :rank]).T, rank, cond


def solve_linear_bsde(
    ensemble: PathEnsemble,
    terminal: np.ndarray,
    driver: DriverSpec | None = None,
    state: dict | None = None,
    basis: RegressionBasis | None = None,
    keep: str = "pqr",
) -> AdjointTriple:
    """Backward sweep producing a regression-mode :class:`AdjointTriple`.

    The terminal condition is matched pathwise exactly.  Per step, with
    m = E[p_{i+1} | F_i] fitted on the basis,

        q_i = E[(p_{i+1} - m) dB_i | F_i] / dt
        r_ik = E[(p_{i+1} - m) dNtilde_ik | F_i] / (nu_k dt)
        p_i = (m - dt*(c0 + cq*q_i + sum_k cr_k*r_ik)) / (1 + dt*cp)

    Centering by m removes the dominant variance from the covariance targets.
    ``state`` maps channel names to (n_paths, n_steps + 1) arrays or to
    zero-argument callables returning one (the price S by default); only the
    channels the basis reads are evaluated.  The per-step rows are allocated
    once per sweep, and the sweep runs in the calling thread.

    ``keep`` names the channels kept whole, a subset of "pqr".  Step i reads
    p only at i + 1, so without "p" the sweep keeps p(t_0) and p(T) and
    passes the steps between through a ring of two rows.  Without "q" (or
    "r"), each step writes its integrand into one reused row (one row per
    mark), which the step's p update reads, and records the row's pairwise
    mean over paths in :attr:`AdjointTriple.q_mean` (``r_mean``).  Whatever
    it keeps, the triple has the same p(t_0), p(T), kept channels, means and
    diagnostics, bit for bit, as one that keeps every channel.
    """
    if not set(keep) <= set("pqr"):
        raise ValueError(f"keep must be a subset of 'pqr', not {keep!r}")
    terminal = np.asarray(terminal, dtype=float)
    if terminal.shape != (ensemble.n_paths,):
        raise ValueError("terminal must be a per-path vector")
    if not np.all(np.isfinite(terminal)):
        raise ValueError("terminal values must be finite")
    grid, model = ensemble.grid, ensemble.model
    dt = grid.dt
    k = model.n_marks
    driver = driver or DriverSpec()
    c0, cp, cq, cr = driver.on_grid(grid, k)
    builder = _BasisBuilder(state or _default_state(ensemble), basis or RegressionBasis())
    lam = model.intensities * dt
    active = np.flatnonzero(lam > 0)

    # time-major: one contiguous row per step, returned transposed; p_rows[i]
    # holds p at step i, without "p" in keep a row of p(t_0) and p(T) each
    # and, for the steps between, a row of a ring of two; q and r not kept
    # are one reused row (per mark) and a mean per step
    n_paths = ensemble.n_paths
    n_steps = grid.n_steps
    if "p" in keep:
        p = np.empty((n_steps + 1, n_paths))
        p_rows = list(p)
    else:
        p, ring = np.empty((2, n_paths)), np.empty((2, n_paths))
        p_rows = [p[0], *(ring[i % 2] for i in range(1, n_steps)), p[1]]
    q = np.zeros((n_steps if "q" in keep else 1, n_paths))
    r = np.zeros((n_steps if "r" in keep else 1, k, n_paths))
    q_mean = None if "q" in keep else np.empty(n_steps)
    r_mean = None if "r" in keep else np.empty((n_steps, k))
    # the per-step work rows, allocated once per sweep: the design and its
    # Q1, a work row, the logged state and the fit's rows
    design, q1 = np.empty((2, builder.n_columns, n_paths))
    work = np.empty(n_paths)
    state_rows = np.empty((len(builder.rows), n_paths))
    fitted, centered = np.empty((2, n_paths))
    targets, stacked = np.empty((2, 1 + active.size, n_paths))
    p_rows[-1][:] = terminal
    per_step = []
    constant_steps = 0
    for i, db, dnt in _driver_rows(ensemble, range(n_steps - 1, -1, -1)):
        z = builder.design(i, design, work, state_rows)
        # a deterministic state (always at t_0) is rank-deficient by
        # construction: counted in the diagnostics instead of warned about
        constant = all(np.all(zc == zc[0]) for zc in z)
        constant_steps += constant
        p_next, p_i = p_rows[i + 1], p_rows[i]
        fac = _cholqr2(design, q1, work)
        if fac is None:
            span, rank, cond = builder.householder(design, warn=i > 0 and not constant)
        else:
            span = np.matmul(fac.inv_r2.T, q1, out=design)
            rank, cond = fac.rank, fac.cond
        np.matmul(span @ p_next, span, out=fitted)
        np.subtract(p_next, fitted, out=centered)
        np.multiply(centered, db, out=targets[0])
        targets[0] /= dt
        for row, kk in zip(targets[1:], active):
            np.multiply(centered, dnt[kk], out=row)
            row /= lam[kk]
        np.matmul(targets @ span.T, span, out=stacked)
        q_i, r_i = q[i if q_mean is None else 0], r[i if r_mean is None else 0]
        q_i[:] = stacked[0]
        r_i[active] = stacked[1:]
        if q_mean is not None:
            q_mean[i] = q_i.mean()
        if r_mean is not None:
            r_mean[i] = r_i.mean(axis=1)
        denom = 1.0 + dt * cp[i]
        if abs(denom) < IMPLICIT_STEP_TOL:
            raise ValueError(f"implicit step near-singular at step {i} (denominator {denom:g})")
        # p_i = (fitted - dt * (c0 + cq q + cr . r)) / denom, the drift in p_i
        np.multiply(q_i, cq[i], out=p_i)
        p_i += c0[i]
        if k:
            p_i += np.matmul(cr[i], r_i, out=work)
        p_i *= dt
        np.subtract(fitted, p_i, out=p_i)
        p_i /= denom
        per_step.append(
            {
                "step": i,
                "t": float(grid.left_times[i]),
                "rank": int(rank),
                "cond": cond,
                "fit_rmse": float(np.sqrt(np.mean(np.square(centered, out=work)))),
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
    return AdjointTriple(
        p.T if "p" in keep else None, q.T if q_mean is None else None,
        r.transpose(2, 0, 1) if r_mean is None else None, diagnostics=diagnostics,
        ends=None if "p" in keep else p, q_mean=q_mean, r_mean=r_mean)
