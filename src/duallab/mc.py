"""Monte Carlo estimation helpers shared by the solvers: control-variate means,
the grid search and the interior-window summary of first-order residuals.

A grid search factors its control-variate design once and evaluates every
block of candidates into the same two block-sized buffers."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

# Bytes of one (n_paths, block) float64 array of candidate samples.  Blocks of
# candidates are sized from it, so a larger grid costs time, not memory.
BLOCK_BYTES = 16 * 2**20


class Design(NamedTuple):
    """A control-variate design [1, controls] with its SVD, truncated at the
    rank cutoff of ``numpy.linalg.lstsq``: ``matrix = u @ diag(sv) @ vt``."""

    matrix: np.ndarray  # (n_paths, 1 + n_controls)
    u: np.ndarray
    sv: np.ndarray
    vt: np.ndarray


def factor_design(matrix: np.ndarray) -> Design:
    """Factor a design whose first column is the constant."""
    u, sv, vt = np.linalg.svd(matrix, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(matrix.shape) * sv[0]
    if not np.all(keep):
        u, sv, vt = u[:, keep], sv[keep], vt[keep]
    return Design(matrix, u, sv, vt)


def cv_mean(values: np.ndarray, controls: np.ndarray | None = None,
            design: Design | None = None, resid: np.ndarray | None = None):
    """Mean estimate with linear control variates of known zero mean.

    Regressing the samples on the controls and reading off the intercept is
    the standard control-variate estimator; it is unbiased and collapses the
    variance entirely when the samples are affine in the controls (the log
    utility cases), which makes grid argmaxes deterministic at desk scale.
    Returns (estimate, standard error).  For (n_paths, C) values, one column
    per candidate, the design [1, controls] is factored once
    (:func:`factor_design`) and both are length-C arrays.  A design factored
    by the caller may be passed instead of the controls, and ``resid``, an
    array shaped like the values, receives the regression residuals.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    cols = values.reshape(n, -1)
    if design is None:
        design = factor_design(np.column_stack([np.ones(n), controls]))
    coef = design.vt.T @ ((design.u.T @ cols) / design.sv[:, None])
    resid = np.matmul(design.matrix, coef, out=resid)
    np.subtract(cols, resid, out=resid)
    dof = max(n - design.matrix.shape[1], 1)
    est = coef[0]
    se = np.sqrt(np.einsum("pc,pc->c", resid, resid) / dof) / math.sqrt(n)
    if values.ndim == 1:
        return float(est[0]), float(se[0])
    return est, se


def on_grid_edge(pos: tuple[int, ...], shape: tuple[int, ...]) -> bool:
    """Whether a grid position is the first or last value of an axis that has
    at least 3 values, where the optimum may lie beyond the grid."""
    return any(n >= 3 and p in (0, n - 1) for p, n in zip(pos, shape))


class SearchResult(NamedTuple):
    values: np.ndarray   # flat, -inf where the candidate was excluded
    ses: np.ndarray
    shape: tuple[int, ...]
    best: int | None     # flat index of the tie-broken argmax, if selected

    def fields(self, j: int | None = None) -> dict:
        """The solution fields of candidate ``j``, by default the argmax: its
        value and se, every candidate's, and whether it lies on a grid edge."""
        j = self.best if j is None else j
        return {"value": float(self.values[j]), "se": float(self.ses[j]),
                "candidate_values": self.values, "candidate_se": self.ses,
                "grid_edge": on_grid_edge(np.unravel_index(j, self.shape), self.shape)}


def grid_search(
    shape: tuple[int, ...],
    samples: Callable[[np.ndarray, np.ndarray], np.ndarray],
    admissible: np.ndarray,
    design: np.ndarray,
    n_paths: int,
    offset: np.ndarray | float = 0.0,
    size: np.ndarray | None = None,
    what: str = "candidates",
) -> SearchResult:
    """Evaluate every admissible candidate of a grid, a block at a time.

    Candidates are flat C-order indices into ``shape``.  ``samples(idx, out)``
    writes the (n_paths, len(idx)) per-path payoffs of a block into ``out``
    and returns them; a candidate's value is their control-variate mean over
    ``design`` (the terminal design [1, controls], factored once here) plus
    ``offset[idx]``.  Two block-sized buffers, the samples and the
    residuals, serve every block.  Inadmissible candidates keep the value
    -inf, and a grid where no candidate gets a finite value raises.  With
    ``size`` given, the argmax is selected, ties going to the smallest size.
    """
    n = math.prod(shape)
    values = np.full(n, -np.inf)
    ses = np.zeros(n)
    offset = np.broadcast_to(np.asarray(offset, dtype=float), (n,))
    live = np.flatnonzero(admissible)
    block = min(max(1, BLOCK_BYTES // (8 * n_paths)), max(live.size, 1))
    factored = factor_design(design)
    # two allocations, not one of twice the size: freeing a large mapped block
    # raises glibc's mmap threshold to its size, and later arrays below it then
    # come from the heap, which keeps freed pages resident (+13 MB peak RSS)
    buffers = [np.empty(n_paths * block) for _ in range(2)]
    for start in range(0, live.size, block):
        idx = live[start:start + block]
        out, resid = (b[:n_paths * idx.size].reshape(n_paths, idx.size) for b in buffers)
        est, se = cv_mean(samples(idx, out), design=factored, resid=resid)
        values[idx] = est + offset[idx]
        ses[idx] = se
    if not np.any(np.isfinite(values)):
        raise ValueError(f"all {what} inadmissible")
    if size is None:
        return SearchResult(values, ses, shape, None)
    top = np.flatnonzero(values == np.max(values))
    return SearchResult(values, ses, shape, int(top[np.argmin(np.asarray(size)[top])]))


def product_means(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column means of a * b over the paths of two (n_paths, m) arrays,
    one einsum; path arrays share one time-major layout, so neither is read
    with a stride across its whole extent."""
    return np.einsum("pi,pi->i", a, b) / a.shape[0]


def interior_window(n_steps: int) -> slice:
    """Interior grid times, where first-order residuals are summarized: all
    but the first and last 10% of the steps (at least one step each)."""
    cut = max(1, n_steps // 10)
    return slice(cut, n_steps - cut)


def interior_summary(raw: np.ndarray, reference, mask: np.ndarray | None = None) -> dict:
    """The residual report of ``raw`` (one row per grid step): ``raw``, the
    ``scale`` mean |reference| (0.0 if empty), and the mean and max of
    |raw|/scale over the interior rows where ``mask`` holds
    (``mean_normalized``, ``max_normalized``).  A zero or subnormal scale
    (where the quotient would overflow) leaves |raw| unnormalized; an empty
    selection gives 0.0 for both."""
    scale = float(np.mean(np.abs(reference))) if np.size(reference) else 0.0
    window = interior_window(raw.shape[0])
    interior = np.abs(raw[window] if mask is None else raw[window][mask[window]])
    normalized = interior / scale if scale >= np.finfo(float).tiny else interior
    empty = not normalized.size
    return {"raw": raw, "scale": scale,
            "mean_normalized": 0.0 if empty else float(np.mean(normalized)),
            "max_normalized": 0.0 if empty else float(np.max(normalized))}
