"""Utility functions, their convex conjugates, and perturbation penalties.

Conjugates are supplied in closed form per utility family but certified at
construction against a brute-force grid sup/inf oracle, so a formula error
cannot slip through silently.  The oracle scans a log-spaced grid and then
polishes the bracket around the best grid point by a golden-section search
(Kiefer 1953), for all of its test points at once; it never uses the closed
forms it certifies.  Only numpy is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

ORACLE_GRID = np.geomspace(1e-4, 1e4, 10_000)
# 0.618**80 ~ 2e-17 takes a bracket of two grid spacings below one ulp
GOLDEN_ITERATIONS = 80
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
CONJUGACY_TOL = 1e-6
INVERSION_TOL = 1e-8


@dataclass(frozen=True)
class UtilityPair:
    """A utility U with conjugate V(y) = sup_x {U(x) - x*y} and marginals.

    ``inverse_marginal`` is I = (U')^{-1} = -V', the map from marginal value
    back to wealth.  ``u_log`` and ``neg_v_log`` are the payoffs as functions
    of a logarithm, l -> U(e^l) and l -> -V(e^l), called as ``f(l, out)``
    (``out`` may be ``l`` itself, or None for a new array); without them the
    payoffs go through ``exp``.
    """

    name: str
    u: Callable[[np.ndarray], np.ndarray]
    u_prime: Callable[[np.ndarray], np.ndarray]
    v: Callable[[np.ndarray], np.ndarray]
    v_prime: Callable[[np.ndarray], np.ndarray]
    u_log: Callable | None = None
    neg_v_log: Callable | None = None

    def inverse_marginal(self, y):
        return -self.v_prime(y)

    def u_of_log(self, l, out=None):
        """U(exp(l)), the payoff of a terminal log wealth l, written into ``out``."""
        if self.u_log is not None:
            return self.u_log(l, out)
        return _into(out, self.u(np.exp(l)))

    def neg_v_of_log(self, l, out=None):
        """-V(exp(l)), the payoff of a terminal log density l, written into ``out``."""
        if self.neg_v_log is not None:
            return self.neg_v_log(l, out)
        return _into(out, -self.v(np.exp(l)))


def _into(out, values):
    if out is None:
        return values
    out[...] = values
    return out


def _shifted(shift: float):
    """l -> l + shift, in place when ``out`` is ``l``."""
    def payoff(l, out=None):
        if shift == 0.0 and out is l:
            return l
        return np.add(l, shift, out=out)
    return payoff


def _scaled_exp(rate: float, scale: float):
    """l -> scale * exp(rate * l), in place when ``out`` is ``l``."""
    def payoff(l, out=None):
        out = np.multiply(l, rate, out=out)
        np.exp(out, out=out)
        out *= scale
        return out
    return payoff


@dataclass(frozen=True)
class Penalty:
    """Convex penalty rho on drift perturbations, with rho(0) = 0 = min rho."""

    name: str
    rho: Callable[[np.ndarray], np.ndarray]
    rho_prime: Callable[[np.ndarray], np.ndarray]
    rho_prime_inv: Callable[[np.ndarray], np.ndarray]
    scale: float = 1.0


def _grid_sup(f: Callable, params, grid: np.ndarray):
    """sup_t f(t, p) per parameter p: the best point of ``grid``, then a
    golden-section search inside the bracket of its two grid neighbours.

    ``params`` is a scalar (the result is a float) or a 1-D array (one
    supremum each, every bracket searched at once).  Also returns, per
    parameter, whether the best grid point is the first or last point of
    ``grid``: the supremum may then lie beyond the grid.
    """
    p = np.asarray(params, dtype=float)
    flat = p.reshape(-1)
    # one parameter at a time: rows of the grid's size, not a (params, grid) array
    j = np.empty(flat.size, dtype=int)
    best = np.empty(flat.size)
    for i, param in enumerate(flat):
        vals = f(grid, param)
        j[i] = np.argmax(vals)
        best[i] = vals[j[i]]
    a = grid[np.maximum(j - 1, 0)]
    b = grid[np.minimum(j + 1, len(grid) - 1)]
    for _ in range(GOLDEN_ITERATIONS):
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        # f is unimodal on the bracket: keep the side of the larger value
        left = f(c, flat) >= f(d, flat)
        a, b = np.where(left, a, c), np.where(left, d, b)
    sup = np.maximum(best, f(0.5 * (a + b), flat))
    edge = (j == 0) | (j == len(grid) - 1)
    return (float(sup[0]), bool(edge[0])) if p.ndim == 0 else (sup, edge)


def _mismatches(closed, ref, edge, side: float):
    """Test points where a closed form differs from its grid oracle: the first
    one the oracle refutes, else the first one it cannot settle, or None.

    The grid optimum bounds the true one from one side (a sup over the grid
    is at most the sup, an inf at least the inf).  A closed form beyond it on
    that side, ``side * (closed - ref) > 0``, with the grid optimum on an end
    point of the grid, may be right: the optimum may lie off the grid.
    Returns (index, refuted).
    """
    bad = np.abs(closed - ref) > CONJUGACY_TOL
    unsettled = bad & edge & (side * (closed - ref) > 0)
    for mask, refuted in ((bad & ~unsettled, True), (unsettled, False)):
        if np.any(mask):
            return int(np.argmax(mask)), refuted
    return None


def _beyond_grid(pair: UtilityPair, what: str, at: str, closed: float, ref: float) -> ValueError:
    return ValueError(
        f"{pair.name}: {what} at {at} not certified: the grid oracle's optimum is an end "
        f"point of the oracle grid [{ORACLE_GRID[0]:g}, {ORACLE_GRID[-1]:g}], so the "
        f"optimum may lie beyond it ({closed:.9g} vs {ref:.9g})"
    )


def certify_pair(pair: UtilityPair,
                 x_grid: np.ndarray | None = None,
                 y_grid: np.ndarray | None = None) -> None:
    """Check conjugacy, biconjugacy, marginal inversion and shape properties.

    Raises ValueError on the first failed check.  Called by every factory.
    """
    x_grid = np.geomspace(0.1, 10.0, 13) if x_grid is None else x_grid
    y_grid = np.geomspace(0.1, 10.0, 13) if y_grid is None else y_grid

    ref, edge = _grid_sup(lambda x, yy: pair.u(x) - x * yy, y_grid, ORACLE_GRID)
    found = _mismatches(pair.v(y_grid), ref, edge, side=1.0)
    if found:
        i, refuted = found
        y, r = y_grid[i], ref[i]
        if not refuted:
            raise _beyond_grid(pair, "conjugate", f"y={y:g}", pair.v(y), r)
        raise ValueError(
            f"{pair.name}: conjugate differs from grid oracle at y={y:g} "
            f"({pair.v(y):.9g} vs {r:.9g})"
        )
    ref, edge = _grid_sup(lambda y, xx: -(pair.v(y) + xx * y), x_grid, ORACLE_GRID)
    ref = -ref
    found = _mismatches(pair.u(x_grid), ref, edge, side=-1.0)
    if found:
        i, refuted = found
        x, r = x_grid[i], ref[i]
        if not refuted:
            raise _beyond_grid(pair, "biconjugate", f"x={x:g}", pair.u(x), r)
        raise ValueError(
            f"{pair.name}: biconjugacy fails at x={x:g} "
            f"({pair.u(x):.9g} vs {r:.9g})"
        )
    inv = pair.u_prime(pair.inverse_marginal(y_grid))
    if np.max(np.abs(inv - y_grid)) > INVERSION_TOL:
        raise ValueError(f"{pair.name}: marginal inversion U'(-V'(y)) != y")

    du = np.diff(pair.u(x_grid))
    if not np.all(du > 0):
        raise ValueError(f"{pair.name}: U not increasing on the test grid")
    if not np.all(np.diff(pair.u_prime(x_grid)) < 0):
        raise ValueError(f"{pair.name}: U' not decreasing (concavity fails)")
    dv = pair.v(y_grid)
    if not np.all(np.diff(dv) < 0):
        raise ValueError(f"{pair.name}: V not decreasing")
    slopes = np.diff(dv) / np.diff(y_grid)
    if not np.all(np.diff(slopes) > -1e-12):
        raise ValueError(f"{pair.name}: V not convex on the test grid")
    if not inada_holds(pair.u_prime):
        raise ValueError(f"{pair.name}: Inada conditions fail numerically")


def inada_holds(u_prime: Callable) -> bool:
    """The Inada conditions U'(0+) = infinity and U'(infinity) = 0, probed at
    extreme wealth levels: U'(1e-16) > 1e2 and U'(1e16) < 1e-2.

    Every power utility with alpha < 0.875 passes, so the probe accepts each
    alpha whose conjugate the oracle certifies (up to 0.75 at the default test
    points); a marginal bounded away from 0 above 1e-2 fails.
    """
    return bool(u_prime(1e-16) > 1e2 and u_prime(1e16) < 1e-2)


def make_log_utility() -> UtilityPair:
    """U(x) = ln x, V(y) = -ln y - 1, -V'(y) = 1/y."""
    pair = UtilityPair(
        name="log",
        u=np.log,
        u_prime=lambda x: 1.0 / np.asarray(x, dtype=float),
        v=lambda y: -np.log(y) - 1.0,
        v_prime=lambda y: -1.0 / np.asarray(y, dtype=float),
        u_log=_shifted(0.0),
        neg_v_log=_shifted(1.0),
    )
    certify_pair(pair)
    return pair


def make_power_utility(alpha: float) -> UtilityPair:
    """U(x) = x^alpha / alpha for alpha in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    coef = (1.0 - alpha) / alpha
    expo = alpha / (alpha - 1.0)

    pair = UtilityPair(
        name=f"power({alpha:g})",
        u=lambda x: np.asarray(x, dtype=float) ** alpha / alpha,
        u_prime=lambda x: np.asarray(x, dtype=float) ** (alpha - 1.0),
        v=lambda y: coef * np.asarray(y, dtype=float) ** expo,
        v_prime=lambda y: -np.asarray(y, dtype=float) ** (1.0 / (alpha - 1.0)),
        u_log=_scaled_exp(alpha, 1.0 / alpha),
        neg_v_log=_scaled_exp(expo, -coef),
    )
    certify_pair(pair)
    return pair


def make_quadratic_penalty(scale: float = 1.0) -> Penalty:
    """rho(x) = scale * x^2 / 2, rho'(x) = scale*x, (rho')^{-1}(v) = v/scale."""
    if not scale > 0:
        raise ValueError("penalty scale must be positive")
    return Penalty(
        name="quadratic",
        rho=lambda x: 0.5 * scale * np.asarray(x, dtype=float) ** 2,
        rho_prime=lambda x: scale * np.asarray(x, dtype=float),
        rho_prime_inv=lambda v: np.asarray(v, dtype=float) / scale,
        scale=scale,
    )
