"""Exact symbolic witnesses, in sympy (a test-only dependency): identities
behind the library's numerics, checked as polynomial identities."""

import math

import numpy as np
import pytest

from expanded_hyperdet import hyperdet
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
