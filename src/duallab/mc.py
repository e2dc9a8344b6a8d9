"""Monte Carlo estimation helpers shared by the solvers: control-variate means,
the grid search and the interior-window summary of first-order residuals."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

# Bytes of one (n_paths, block) float64 array of candidate samples.  Blocks of
# candidates are sized from it, so a larger grid costs time, not memory.
BLOCK_BYTES = 16 * 2**20


def cv_mean(values: np.ndarray, controls: np.ndarray | None = None):
    """Mean estimate with linear control variates of known zero mean.

    Regressing the samples on the controls and reading off the intercept is
    the standard control-variate estimator; it is unbiased and collapses the
    variance entirely when the samples are affine in the controls (the log
    utility cases), which makes grid argmaxes deterministic at desk scale.
    Returns (estimate, standard error).  For (n_paths, C) values, one column
    per candidate, the design [1, controls] is factored once (SVD, with the
    rank cutoff of ``numpy.linalg.lstsq``) and both are length-C arrays.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    cols = values.reshape(n, -1)
    if controls is None or controls.size == 0:
        est = cols.mean(axis=0)
        se = cols.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        a = np.column_stack([np.ones(n), controls])
        u, sv, vt = np.linalg.svd(a, full_matrices=False)
        keep = sv > np.finfo(float).eps * max(a.shape) * sv[0]
        coef = vt[keep].T @ ((u[:, keep].T @ cols) / sv[keep, None])
        resid = cols - a @ coef
        dof = max(n - a.shape[1], 1)
        est = coef[0]
        se = np.sqrt(np.einsum("pc,pc->c", resid, resid) / dof) / math.sqrt(n)
    if values.ndim == 1:
        return float(est[0]), float(se[0])
    return est, se


class SearchResult(NamedTuple):
    values: np.ndarray   # flat, -inf where the candidate was excluded
    ses: np.ndarray
    best: int | None     # flat index of the tie-broken argmax, if selected
    grid_edge: bool      # the argmax lies on an edge of the grid


def on_grid_edge(pos: tuple[int, ...], shape: tuple[int, ...]) -> bool:
    """Whether a grid position is the first or last value of an axis that has
    at least 3 values, where the optimum may lie beyond the grid."""
    return any(n >= 3 and p in (0, n - 1) for p, n in zip(pos, shape))


def grid_search(
    shape: tuple[int, ...],
    samples: Callable[[np.ndarray], np.ndarray],
    admissible: np.ndarray,
    controls: np.ndarray | None,
    n_paths: int,
    offset: np.ndarray | float = 0.0,
    size: np.ndarray | None = None,
    what: str = "candidates",
) -> SearchResult:
    """Evaluate every admissible candidate of a grid, a block at a time.

    Candidates are flat C-order indices into ``shape``.  ``samples(idx)``
    returns the (n_paths, len(idx)) per-path payoffs of a block; a candidate's
    value is their control-variate mean plus ``offset[idx]``.  Inadmissible
    candidates keep the value -inf.  With ``size`` given, the argmax is
    selected, ties going to the smallest size, and an empty admissible set
    raises.
    """
    n = math.prod(shape)
    values = np.full(n, -np.inf)
    ses = np.zeros(n)
    offset = np.broadcast_to(np.asarray(offset, dtype=float), (n,))
    live = np.flatnonzero(admissible)
    block = max(1, BLOCK_BYTES // (8 * n_paths))
    for start in range(0, live.size, block):
        idx = live[start:start + block]
        est, se = cv_mean(samples(idx), controls)
        values[idx] = est + offset[idx]
        ses[idx] = se
    if size is None:
        return SearchResult(values, ses, None, False)
    if not np.any(np.isfinite(values)):
        raise ValueError(f"all {what} inadmissible")
    top = np.flatnonzero(values == np.max(values))
    best = int(top[np.argmin(np.asarray(size)[top])])
    return SearchResult(values, ses, best, on_grid_edge(np.unravel_index(best, shape), shape))


def interior_window(n_steps: int) -> slice:
    """Interior grid times, where first-order residuals are summarized: all
    but the first and last 10% of the steps (at least one step each)."""
    cut = max(1, n_steps // 10)
    return slice(cut, n_steps - cut)


def interior_summary(raw: np.ndarray, scale: float, mask: np.ndarray | None = None):
    """Mean and max of |raw|/scale over the interior rows of ``raw`` (one row
    per grid step), restricted to the rows where ``mask`` holds.  A zero scale
    leaves |raw| unnormalized; an empty selection gives (0.0, 0.0).
    """
    window = interior_window(raw.shape[0])
    interior = np.abs(raw[window] if mask is None else raw[window][mask[window]])
    normalized = interior / scale if scale > 0 else interior
    if not normalized.size:
        return 0.0, 0.0
    return float(np.mean(normalized)), float(np.max(normalized))
