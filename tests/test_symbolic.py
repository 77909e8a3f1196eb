"""Exact symbolic witnesses, in sympy (a test-only dependency): identities
behind the library's numerics, checked as polynomial identities."""

import math

import numpy as np
import pytest

from expanded_hyperdet import hyperdet
from tritangle.analytic import alpha_I, alpha_I_dd, solve_p0
from tritangle.family import z_tangle_coefficients
from tritangle.measures import _AMPLITUDE_FORMS

sympy = pytest.importorskip("sympy")


def cayley_hyperdet(amps):
    # B_01^2 - B_00 B_11 with B_kl = x^T S_kl x from the library's amplitude
    # forms; their entries 0, +-1/2 and +-1 are exact binary fractions, so
    # sympy.Rational takes them over exactly
    forms = sympy.Matrix(8, 24, [sympy.Rational(v) for v in _AMPLITUDE_FORMS.ravel().tolist()])
    x = sympy.Matrix(amps)
    b00, b11, b01 = ((x.T * forms[:, 8 * k : 8 * k + 8] * x)[0, 0] for k in range(3))
    return b01**2 - b00 * b11


def test_cayley_form_is_the_expanded_polynomial():
    amps = sympy.symbols("a0:8")
    assert sympy.expand(cayley_hyperdet(amps) - hyperdet(*amps)) == 0


def test_z_state_hyperdeterminant_has_the_five_coefficients():
    # Z = sqrt(p) GHZ - t1 sqrt(q) W - t2 sqrt(r) W~ with sp = sqrt(p) etc.
    sp, sq, sr = sympy.symbols("sp sq sr", positive=True)
    t1, t2 = sympy.symbols("t1 t2")
    ghz = [1 if i in (0, 7) else 0 for i in range(8)]
    w = [1 if i in (1, 2, 4) else 0 for i in range(8)]
    w_tilde = [1 if i in (3, 5, 6) else 0 for i in range(8)]
    amps = [
        sp * g / sympy.sqrt(2) - t1 * sq * a / sympy.sqrt(3) - t2 * sr * b / sympy.sqrt(3)
        for g, a, b in zip(ghz, w, w_tilde)
    ]
    c = 8 * sympy.sqrt(6) / 9
    k, a, b = sp**4, 4 * sp**2 * sq * sr, sympy.Rational(4, 3) * sq**2 * sr**2
    c1, c2 = c * sp * sq**3, c * sp * sr**3
    closed = k - a * t1 * t2 - b * (t1 * t2) ** 2 - c1 * t1**3 - c2 * t2**3
    assert sympy.expand(4 * cayley_hyperdet(amps) - closed) == 0
    # and these are z_tangle_coefficients' five, to rounding
    coeffs = sympy.lambdify((sp, sq, sr), (k, a, b, c1, c2))
    for p, q in ((0.6, 0.3), (0.25, 0.375), (0.9, 0.01), (1.0 / 3.0, 1.0 / 3.0)):
        got = z_tangle_coefficients(p, q)
        expect = coeffs(math.sqrt(p), math.sqrt(q), math.sqrt(1.0 - p - q))
        assert np.allclose(got, expect, rtol=1e-14, atol=0.0)


def region_one_curve():
    # alpha_I(p) as the library writes it, with m = n - 1 > 0 and _coeffs'
    # three coefficients; p = u^2/(1 + u^2) maps u > 0 onto 0 < p < 1
    m, u, p = sympy.symbols("m u p", positive=True)
    n = m + 1
    c_lin = 4 * sympy.sqrt(m) / n
    c_quad = 4 * m / (3 * n**2)
    c_root = 8 * sympy.sqrt(6 * n) * (1 + m ** sympy.Rational(3, 2)) / (9 * n**2)
    alpha = p**2 - c_lin * p * (1 - p) - c_quad * (1 - p) ** 2 - c_root * sympy.sqrt(p * (1 - p) ** 3)
    g = u**4 - c_lin * u**2 - c_root * u - c_quad  # solve_p0's quartic
    return m, u, p, alpha, g, {p: u**2 / (1 + u**2)}


CURVE_POINTS = [(p, n) for p in (0.05, 0.4, 0.75, 0.97) for n in (1.37, 2.0, 3.0, 10.0)]


def test_alpha_i_is_the_p0_quartic_in_u():
    m, u, p, alpha, g, at_u = region_one_curve()
    assert sympy.simplify(alpha.subs(at_u) - (1 - at_u[p]) ** 2 * g) == 0
    # the expression is the library's alpha_I, and g's root is solve_p0's
    curve = sympy.lambdify((p, m), alpha)
    quartic = sympy.lambdify((u, m), g)
    for x, n in CURVE_POINTS:
        assert abs(alpha_I(x, n) - curve(x, n - 1.0)) <= 1e-12
    for n in (1.37, 2.0, 3.0, 10.0):
        p0 = solve_p0(n)
        assert abs(quartic(math.sqrt(p0 / (1.0 - p0)), n - 1.0)) <= 1e-12


def test_alpha_i_dd_is_the_second_derivative():
    m, u, p, alpha, g, at_u = region_one_curve()
    n = m + 1
    bracket = 9 * n**2 + 36 * n * sympy.sqrt(m) - 12 * m
    c = sympy.sqrt(6 * n) * (1 + m ** sympy.Rational(3, 2))
    closed = 2 / (9 * n**2) * (bracket - c * (8 * p**2 - 4 * p - 1) / sympy.sqrt(p**3 * (1 - p)))
    assert sympy.simplify((sympy.diff(alpha, p, 2) - closed).subs(at_u)) == 0
    second = sympy.lambdify((p, m), closed)
    for x, n in CURVE_POINTS:
        expect = second(x, n - 1.0)
        assert abs(alpha_I_dd(x, n) - expect) <= 1e-12 * max(1.0, abs(expect))
