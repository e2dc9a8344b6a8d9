import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duallab as dl
import oracles
from duallab.preferences import ORACLE_GRID, UtilityPair, _grid_sup, certify_pair, inada_holds

SRC = Path(__file__).resolve().parents[1] / "src"


def test_log_conjugate_values(log_pair):
    assert log_pair.v(1.0) == pytest.approx(-1.0, abs=1e-15)
    assert log_pair.inverse_marginal(2.0) == pytest.approx(0.5, abs=1e-15)
    assert abs(log_pair.v(0.5) - oracles.conjugate_by_grid(log_pair.u, 0.5, ORACLE_GRID)) < 1e-6


def test_power_conjugate_against_grid_oracle():
    pair = dl.make_power_utility(0.5)
    assert abs(pair.v(1.0) - 1.0) < 1e-12
    assert abs(oracles.conjugate_by_grid(pair.u, 1.0, ORACLE_GRID) - 1.0) < 1e-6
    for y in (0.5, 1.0, 2.0):
        assert pair.u_prime(pair.inverse_marginal(y)) == pytest.approx(y, abs=1e-8)
    ys = np.linspace(0.1, 10, 50)
    assert np.all(np.diff(pair.v(ys)) < 0)


def test_power_rejects_bad_alpha():
    for alpha in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            dl.make_power_utility(alpha)


def test_conjugacy_suite_on_documented_grids(log_pair):
    # biconjugacy and marginal inversion for log and power families
    x_grid = np.geomspace(0.1, 10.0, 13)
    y_grid = np.geomspace(0.1, 10.0, 13)
    pairs = [log_pair] + [dl.make_power_utility(a) for a in (0.3, 0.5, 0.7)]
    for pair in pairs:
        for x in x_grid:
            ref = oracles.biconjugate_by_grid(pair.v, float(x), ORACLE_GRID)
            assert abs(pair.u(x) - ref) < 1e-6
        inv = pair.u_prime(pair.inverse_marginal(y_grid))
        assert np.max(np.abs(inv - y_grid)) < 1e-8


def test_certification_rejects_wrong_conjugate():
    bad = UtilityPair(
        name="bad-log",
        u=np.log,
        u_prime=lambda x: 1.0 / np.asarray(x, dtype=float),
        v=lambda y: -np.log(y),  # missing the -1
        v_prime=lambda y: -1.0 / np.asarray(y, dtype=float),
    )
    with pytest.raises(ValueError, match="grid oracle"):
        certify_pair(bad)


def _power_parts(alpha, v_coef=1.0, v_expo=1.0):
    """u, u', v, v' of power(alpha), with v's constant and exponent scaled."""
    coef, expo = (1.0 - alpha) / alpha, alpha / (alpha - 1.0)
    return (lambda x: np.asarray(x, dtype=float) ** alpha / alpha,
            lambda x: np.asarray(x, dtype=float) ** (alpha - 1.0),
            lambda y: v_coef * coef * np.asarray(y, dtype=float) ** (v_expo * expo),
            lambda y: -np.asarray(y, dtype=float) ** (1.0 / (alpha - 1.0)))


# log with an upward step at x = 5: increasing but not concave
_LOG_STEP = UtilityPair("log-step", lambda x: np.log(x) + 0.01 * (np.asarray(x) > 5.0),
                        lambda x: 1.0 / np.asarray(x, dtype=float),
                        lambda y: -np.log(y) - 1.0, lambda y: -1.0 / np.asarray(y, dtype=float))


# each broken pair with the message certification gave it under the scalar
# Brent-polished oracle
@pytest.mark.parametrize("pair, y_grid, message", [
    (UtilityPair("power-const", *_power_parts(0.5, v_coef=1.1)), None,
     "power-const: conjugate differs from grid oracle at y=0.1 (11 vs 10)"),
    (UtilityPair("power-expo", *_power_parts(0.5, v_expo=1.1)), None,
     "power-expo: conjugate differs from grid oracle at y=0.1 (12.5892541 vs 10)"),
    (UtilityPair("convex", lambda x: np.asarray(x, dtype=float) ** 1.5 / 1.5,
                 lambda x: np.asarray(x, dtype=float) ** 0.5,
                 lambda y: -np.asarray(y, dtype=float) ** 3 / 3,
                 lambda y: -np.asarray(y, dtype=float) ** 2), None,
     "convex: conjugate differs from grid oracle at y=0.1 (-0.000333333333 vs 665666.667)"),
    (_LOG_STEP, None,
     "log-step: conjugate differs from grid oracle at y=0.1 (1.30258509 vs 1.31258509)"),
    # conjugacy holds where y >= 1, so the biconjugacy check must catch the step
    (_LOG_STEP, np.geomspace(1.0, 10.0, 7),
     "log-step: biconjugacy fails at x=6.81292 (1.92882091 vs 1.91882091)"),
], ids=["wrong-constant", "wrong-exponent", "convex-u", "step-u", "step-u-biconjugacy"])
def test_certification_rejects_broken_pairs(pair, y_grid, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        certify_pair(pair, y_grid=y_grid)


@settings(max_examples=60, deadline=None)
@given(alpha=st.one_of(st.none(), st.floats(0.05, 0.95)),
       points=st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=13))
def test_golden_section_oracle_matches_brent(alpha, points):
    # the numpy oracle against the scalar scipy one it replaced; log when alpha is None
    if alpha is None:
        u, v = np.log, (lambda y: -np.log(y) - 1.0)
    else:
        u, _, v, _ = _power_parts(alpha)

    # the sup and the inf as certify_pair runs them
    def conjugate(y):
        return _grid_sup(lambda x, yy: u(x) - x * yy, y, ORACLE_GRID)[0]

    def biconjugate(x):
        return -_grid_sup(lambda y, xx: -(v(y) + xx * y), x, ORACLE_GRID)[0]

    pts = np.array(points)
    sup = conjugate(pts)
    inf = biconjugate(pts)
    for p, got_sup, got_inf in zip(pts, sup, inf):
        ref_sup = oracles.conjugate_by_grid(u, float(p), ORACLE_GRID)
        ref_inf = oracles.biconjugate_by_grid(v, float(p), ORACLE_GRID)
        assert abs(got_sup - ref_sup) <= 1e-12 * max(1.0, abs(ref_sup))
        assert abs(got_inf - ref_inf) <= 1e-12 * max(1.0, abs(ref_inf))
        # a scalar point gives the same float as its entry of the batch
        assert conjugate(float(p)) == got_sup
        assert biconjugate(float(p)) == got_inf


def test_power_beyond_oracle_grid_names_the_edge():
    # power(0.8)'s conjugate at y = 0.1 is attained at x = 0.1**-5 = 1e5, past
    # the oracle grid's last point; the grid sup only bounds V from below
    message = ("power(0.8): conjugate at y=0.1 not certified: the grid oracle's optimum is "
               "an end point of the oracle grid [0.0001, 10000], so the optimum may lie "
               "beyond it (2500 vs 981.116491)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dl.make_power_utility(0.8)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.05, 0.74))
def test_power_accepted_inside_oracle_grid(alpha):
    assert dl.make_power_utility(alpha).name == f"power({alpha:g})"


def test_power_accepted_at_the_end_of_the_oracle_grid():
    # the conjugate's maximiser at y = 0.1 is 1e4, the last oracle grid point,
    # and u'(1e8) = 1e8**-0.25 is exactly 1e-2
    pair = dl.make_power_utility(0.75)
    assert pair.name == "power(0.75)" and pair.u_prime(1e8) == 1e-2


def test_inada_probe_refuses_a_marginal_bounded_away_from_zero():
    assert all(inada_holds(lambda x, a=a: np.asarray(x, dtype=float) ** (a - 1.0))
               for a in (0.05, 0.5, 0.75, 0.8, 0.87))
    assert inada_holds(_LOG.u_prime)
    # U(x) = 0.05 x + ln x: U' tends to 0.05, not to 0
    assert not inada_holds(lambda x: 0.05 + 1.0 / np.asarray(x, dtype=float))
    # U' bounded at 0+
    assert not inada_holds(lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)))


@pytest.mark.parametrize("alpha", [None, 0.5, 0.75])
def test_log_domain_payoffs_match_exp_round_trip(alpha):
    pair = _LOG if alpha is None else dl.make_power_utility(alpha)
    logs = np.linspace(-5.0, 5.0, 2001)
    for fast, slow in ((pair.u_of_log, pair.u), (pair.neg_v_of_log, lambda y: -pair.v(y))):
        ref = slow(np.exp(logs))
        assert np.all(np.abs(fast(logs) - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
        inplace = logs.copy()
        assert fast(inplace, out=inplace) is inplace and np.array_equal(inplace, fast(logs))
    # a pair without closed forms goes through exp
    plain = UtilityPair(pair.name, pair.u, pair.u_prime, pair.v, pair.v_prime)
    assert np.array_equal(plain.u_of_log(logs), pair.u(np.exp(logs)))
    assert np.array_equal(plain.neg_v_of_log(logs), -pair.v(np.exp(logs)))


def test_cli_and_certification_import_no_scipy():
    code = (
        "import sys\n"
        "import duallab.cli\n"
        "from duallab.preferences import make_log_utility, make_power_utility\n"
        "make_log_utility(); make_power_utility(0.3); make_power_utility(0.5)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_quadratic_penalty(quad_penalty):
    assert quad_penalty.rho(0.0) == 0.0
    assert quad_penalty.rho_prime(-0.125) == -0.125
    assert quad_penalty.rho_prime_inv(quad_penalty.rho_prime(0.3)) == pytest.approx(0.3, abs=1e-16)
    xs = np.linspace(-2, 2, 41)
    vals = quad_penalty.rho(xs)
    assert np.all(vals >= 0) and vals[20] == 0.0 and np.all(np.delete(vals, 20) > 0)


def test_penalty_scale():
    pen = dl.make_quadratic_penalty(scale=4.0)
    assert pen.rho(2.0) == pytest.approx(8.0)
    assert pen.rho_prime_inv(1.0) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        dl.make_quadratic_penalty(scale=0.0)


def test_fenchel_gap_values(log_pair):
    # V(y) + x*y - U(x) >= 0, with equality iff y = U'(x)
    x, y = 1.7, log_pair.u_prime(1.7)
    assert log_pair.v(y) + x * y - log_pair.u(x) == pytest.approx(0.0, abs=1e-12)
    assert (log_pair.v(2.0) + 1.0 * 2.0 - log_pair.u(1.0)
            == pytest.approx(1.0 - math.log(2.0), abs=1e-14))


@settings(max_examples=100, deadline=None)
@given(x=st.floats(1e-3, 1e3), y=st.floats(1e-3, 1e3))
def test_fenchel_gap_nonnegative(x, y):
    assert _LOG.v(y) + x * y - _LOG.u(x) >= -1e-12


@settings(max_examples=50, deadline=None)
@given(alpha=st.sampled_from([0.3, 0.5, 0.7]), y=st.floats(1e-2, 1e2))
def test_marginal_inversion_property(alpha, y):
    pair = _POWERS[alpha]
    assert pair.u_prime(pair.inverse_marginal(y)) == pytest.approx(y, rel=1e-10)


_LOG = dl.make_log_utility()
_POWERS = {a: dl.make_power_utility(a) for a in (0.3, 0.5, 0.7)}
