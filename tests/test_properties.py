"""Property tests of the threshold table over continuous n.

The examples are derandomized and bounded, so every run checks the same
inputs and stays quick.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tritangle import (
    alpha_I,
    alpha_I_dd,
    concurrence_sum_sq,
    density_from_ensemble,
    ensemble_average_tangle,
    mixed_three_tangle,
    one_tangle_min,
    optimal_decomposition,
    rho,
    solve_p0,
    solve_p1,
    solve_p_star,
    thresholds,
    trace_distance,
)
from tritangle.analytic import _coeffs

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)

# n in [1, 1e6], uniform in n and in log10(n)
N_VALUES = st.one_of(
    st.floats(min_value=1.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=6.0).map(lambda e: 10.0**e),
)
P_VALUES = st.floats(min_value=0.0, max_value=1.0)

# thresholds move by at most this much when n moves by a relative 1e-9; the
# sqrt(n - 1) terms make the largest move, about 2.2e-5 at n = 1
_STEP = 1e-9
_MOVE = 1e-4


def as_tuple(th):
    return (th.p0, th.p1, th.p_star, th.p_c)


@PROPERTY_SETTINGS
@given(N_VALUES)
@example(1.0)
@example(2.0)
@example(2.00000001)
@example(1e6)
def test_threshold_order_and_continuity(n):
    th = thresholds(n)
    assert 0.0 < th.p_c < th.p0 <= th.p1 <= th.p_star < 1.0
    moved = thresholds(n * (1.0 + _STEP))
    assert max(abs(a - b) for a, b in zip(as_tuple(th), as_tuple(moved))) <= _MOVE


@PROPERTY_SETTINGS
@given(N_VALUES.filter(lambda n: n > 1.0 + 1e-9), P_VALUES)
@example(1e6, 0.8)
@example(3.0, 0.9)
@example(2.0, 0.8)
@example(1.0001, 0.7)
@example(1.37, 0.95)
@example(10.0, 0.75)
def test_w_flipped_w_duality(n, p):
    # swapping W and W~ maps q = (1-p)/n to its complement r = 1-p-q, and
    # with it n <-> n/(n-1)
    dual = n / (n - 1.0)
    th, th_dual = thresholds(n), thresholds(dual)
    for a, b in zip(as_tuple(th), as_tuple(th_dual)):
        assert abs(a - b) <= 1e-13
    got = mixed_three_tangle(p, n, th)
    want = mixed_three_tangle(p, dual, th_dual)
    assert abs(got.value - want.value) <= 1e-13
    q = (1.0 - p) / n
    r = 1.0 - p - q
    assert abs(one_tangle_min(p, q) - one_tangle_min(p, r)) <= 1e-13
    assert abs(concurrence_sum_sq(p, q) - concurrence_sum_sq(p, r)) <= 1e-13


@PROPERTY_SETTINGS
@given(st.integers(0, 2**52), st.integers(0, 2**52))
@example(0, 0)
@example(0, 1)
@example(1, 1)
@example(0, 2**51)
@example(2**52, 2**52)
@example(2**50, 2**52 - 1)
def test_w_flipped_w_swap_keeps_one_and_two_tangles(a, b):
    # at fixed p, swapping W and W~ exchanges the weights q and 1 - p - q. On
    # multiples of 2^-52 the complement is exact; a rounded one would move q by
    # an ulp where both closed forms have infinite slope, at q -> 0 and r -> 0
    lo, hi = sorted((a, b))
    p, q = math.ldexp(lo, -52), math.ldexp(hi - lo, -52)
    swapped = 1.0 - p - q
    assert abs(one_tangle_min(p, q) - one_tangle_min(p, swapped)) <= 1e-13
    assert abs(concurrence_sum_sq(p, q) - concurrence_sum_sq(p, swapped)) <= 1e-13


@PROPERTY_SETTINGS
@given(st.floats(min_value=0.0, max_value=150.0))
@example(0.0)
@example(1e-12 / math.log(10.0))
@example(math.log10(2.0))
@example(150.0)
def test_closed_form_p0_p1_solve_their_equations(log10_n):
    n = 10.0**log10_n
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        p0 = solve_p0(n)
        assert 0.5 < p0 < 1.0
        # p0 is the last crossing: alpha_I changes sign there and stays positive above
        below, above = alpha_I(np.array([p0 * (1.0 - 1e-12), p0 * (1.0 + 1e-12)]), n)
        assert below < 0.0 < above
        assert np.all(alpha_I(np.linspace(p0, 1.0, 66)[1:-1], n) > 0.0)
        # p1 zeroes the tangency equation the chord slope comes from
        p1 = solve_p1(n)
        c_lin, c_quad, c_root = _coeffs(n)
        slope = (c_root / 2.0) * (2.0 * p1 - 1.0) / math.sqrt(p1 * (1.0 - p1))
        assert abs(slope - (1.0 + c_lin - c_quad)) <= 1e-13
        # p* is the concavity onset: alpha_I_dd changes sign there and stays negative above
        p_star = solve_p_star(n)
        below, above = alpha_I_dd(np.array([p_star * (1.0 - 1e-12), p_star * (1.0 + 1e-12)]), n)
        assert below > 0.0 > above
        assert np.all(alpha_I_dd(np.linspace(p_star, 1.0 - 1e-6, 66)[1:-1], n) < 0.0)


@PROPERTY_SETTINGS
@given(st.floats(min_value=1.0, max_value=1e3), P_VALUES)
@example(1.0, 0.0)
@example(2.0, 0.75)
@example(3.0, 1.0)
@example(1e3, 0.5)
def test_optimal_decomposition_rebuilds_rho_at_the_closed_form(n, p):
    th = thresholds(n)
    ens = optimal_decomposition(p, n, th)
    assert trace_distance(density_from_ensemble(ens), rho(p, (1.0 - p) / n)) <= 1e-12
    assert abs(ensemble_average_tangle(ens) - mixed_three_tangle(p, n, th).value) <= 1e-9
