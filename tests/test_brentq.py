"""analytic.brentq against scipy.optimize.brentq, root for root.

The port must return the same float, bit for bit, on every bracket; where
scipy raises (same signs, NaN, iterations run out), the port raises NoRootError.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from tritangle import NoRootError, analytic
from tritangle.analytic import brentq

XTOL = 1e-13


def same_float(x, y):
    return float(x).hex() == float(y).hex()


def scipy_outcome(f, a, b, xtol, maxiter=100):
    try:
        return float(scipy_brentq(f, a, b, xtol=xtol, maxiter=maxiter)).hex()
    except (RuntimeError, ValueError):
        return "raises"


def port_outcome(f, a, b, xtol):
    try:
        return float(brentq(f, a, b, xtol)).hex()
    except NoRootError:
        return "raises"


def random_functions(rng):
    """Smooth, steep, oscillating and discontinuous test functions."""
    c = rng.normal(size=4)
    k = rng.uniform(0.5, 12.0)
    s = rng.uniform(-0.9, 0.9)
    e = int(rng.integers(3, 12))
    return [
        lambda x: c[0] + x * (c[1] + x * (c[2] + x * c[3])),
        lambda x: math.exp(k * x) - math.exp(k * s),
        lambda x: math.sin(k * x) + s,
        lambda x: (x - s) ** e,
        lambda x: math.atan(k * (x - s)) + 1e-3 * c[0],
        lambda x: -1.0 if x < s else 1.0,
        # tiny values: the extrapolation's denominator underflows to 0
        lambda x: 1e-160 * (x - s) ** 3,
    ]


def sign_change_brackets(f, rng, tries):
    for _ in range(tries):
        a, b = np.sort(rng.uniform(-2.0, 2.0, size=2))
        fa, fb = f(a), f(b)
        if fa * fb < 0.0:
            yield float(a), float(b)


@pytest.mark.parametrize("xtol", [XTOL, 1e-300, 2e-12, 1e-6, 0.3])
def test_random_brackets_match_scipy(xtol):
    rng = np.random.default_rng([41, int(-math.log10(xtol) * 10)])
    outcomes = []
    for _ in range(30):
        for f in random_functions(rng):
            for a, b in sign_change_brackets(f, rng, 6):
                for x, y in ((a, b), (b, a)):
                    want = scipy_outcome(f, x, y, xtol)
                    assert port_outcome(f, x, y, xtol) == want
                    outcomes.append(want)
    # only (x - s)**e runs out of iterations, and only for the tighter xtol
    assert len(outcomes) - outcomes.count("raises") >= 500


def test_dyadic_ties_match_scipy():
    # dyadic roots, brackets and xtol make the tolerance and step tests tie
    # exactly, which tells < from <= apart
    outcomes = []
    for k in range(0, 12):
        xtol = 2.0**-k
        for r in (0.25, 0.3, 0.375, 0.5, 0.625, 0.75):
            for f in (lambda x: x - r, lambda x: (x - r) * (x + 2.0), lambda x: (x - r) ** 3):
                for a, b in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (0.125, 2.0), (2.0, -0.5)):
                    want = scipy_outcome(f, a, b, xtol)
                    assert port_outcome(f, a, b, xtol) == want
                    outcomes.append(want)
    assert len(set(outcomes)) > 100


def test_exact_zero_endpoints():
    def f(x):
        return x * (x - 1.0)

    for a, b in [(0.0, 0.5), (0.5, 1.0), (-0.5, 0.0), (1.0, 3.0), (0.0, 1.0)]:
        assert same_float(brentq(f, a, b, XTOL), scipy_brentq(f, a, b, xtol=XTOL))
    assert brentq(f, 0.0, 0.5, XTOL) == 0.0
    assert brentq(f, 0.5, 1.0, XTOL) == 1.0


def test_exact_zero_found_inside():
    # a root on a dyadic point: the interpolation lands on it exactly
    def f(x):
        return x - 0.25

    assert brentq(f, 0.0, 1.0, XTOL) == 0.25 == scipy_brentq(f, 0.0, 1.0, xtol=XTOL)


def test_same_sign_raises():
    def f(x):
        return x * x + 1.0

    with pytest.raises(ValueError):
        scipy_brentq(f, -1.0, 1.0, xtol=XTOL)
    with pytest.raises(NoRootError):
        brentq(f, -1.0, 1.0, XTOL)


def test_nan_raises():
    def at_end(x):
        return math.nan if x > 0.9 else x - 0.5

    def inside(x):
        return math.nan if 0.3 < x < 0.7 else x - 0.5

    for f in (at_end, inside):
        with pytest.raises(ValueError):
            scipy_brentq(f, 0.0, 1.0, xtol=XTOL)
        with pytest.raises(NoRootError):
            brentq(f, 0.0, 1.0, XTOL)


def test_budget_matches_scipy(monkeypatch):
    # every budget from 1 to 40 iterations: converged roots are equal, and a
    # run out of iterations raises on both sides
    rng = np.random.default_rng(43)
    outcomes = []
    for f in random_functions(rng):
        for a, b in sign_change_brackets(f, rng, 4):
            for maxiter in range(1, 41):
                monkeypatch.setattr(analytic, "_BRENT_MAXITER", maxiter)
                want = scipy_outcome(f, a, b, 1e-15, maxiter)
                assert port_outcome(f, a, b, 1e-15) == want
                outcomes.append(want)
    assert 0 < outcomes.count("raises") < len(outcomes)


def test_budget_runs_out(monkeypatch):
    # a root of multiplicity 9 is too flat for 100 iterations at xtol 1e-13
    def flat(x):
        return (x - 1.0 / 3.0) ** 9

    with pytest.raises(RuntimeError):
        scipy_brentq(flat, 0.0, 1.0, xtol=XTOL)
    with pytest.raises(NoRootError):
        brentq(flat, 0.0, 1.0, XTOL)

    # a step needs about 52 halvings of [0, 1] to reach xtol 1e-300
    def step(x):
        return -1.0 if x < 1.0 / 3.0 else 1.0

    assert same_float(
        brentq(step, 0.0, 1.0, 1e-300), scipy_brentq(step, 0.0, 1.0, xtol=1e-300)
    )
    monkeypatch.setattr(analytic, "_BRENT_MAXITER", 40)
    with pytest.raises(RuntimeError):
        scipy_brentq(step, 0.0, 1.0, xtol=1e-300, maxiter=40)
    with pytest.raises(NoRootError):
        brentq(step, 0.0, 1.0, 1e-300)
