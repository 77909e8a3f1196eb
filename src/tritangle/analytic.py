"""Closed-form mixture three-tangle, its thresholds, CKW quantities.

All horizontal-axis formulas take (p, n) with q = (1-p)/n substituted, except
one_tangle_min and concurrence_sum_sq which take general (p, q).

Each closed form is one math expression. An array p runs through it element
by element, so it gives the bits a float p gives; numpy is imported only to
read and build that array, and a float p never loads it.
"""

import math
from collections import namedtuple
from enum import Enum

from .errors import BadParamsError
from .params import PARAM_TOL, check_count, check_n, check_p, check_pq, check_thresholds

_ORDER_TOL = 1e-9


class Region(Enum):
    ZERO = "ZERO"
    ALPHA_I = "ALPHA_I"
    ALPHA_II = "ALPHA_II"


class Thresholds(namedtuple("Thresholds", "n p0 p1 p_star p_c")):
    """Per-n boundary points of the piecewise mixture tangle."""

    __slots__ = ()

    def __new__(cls, n, p0, p1, p_star, p_c):
        self = super().__new__(cls, n, p0, p1, p_star, p_c)
        ok = (
            0.0 < p_c < p0 + _ORDER_TOL
            and p0 <= p1 + _ORDER_TOL
            and p1 <= p_star + _ORDER_TOL
            and p_star < 1.0
        )
        if not ok:
            raise BadParamsError(
                f"threshold ordering 0 < p_c < p0 <= p1 <= p_star < 1 violated: {self}"
            )
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check its record too
        return cls(*iterable)


class PiecewiseTangle(namedtuple("PiecewiseTangle", "region value")):
    __slots__ = ()


def _coeffs(n):
    """Shared coefficients of the region-I curve and its derivatives."""
    c_lin = 4.0 * math.sqrt(n - 1.0) / n
    c_quad = 4.0 * (n - 1.0) / (3.0 * n * n)
    c_root = 8.0 * math.sqrt(6.0 * n) * (1.0 + (n - 1.0) ** 1.5) / (9.0 * n * n)
    return c_lin, c_quad, c_root


def _elementwise(f, p):
    """f(p) for a float or int p. An array p goes through the same f element by
    element, so each element gives the bits a float gives: a float for a 0-d
    array, otherwise a float array of p's shape."""
    if isinstance(p, (float, int)):
        return f(p)
    import numpy as np

    p = np.asarray(p, dtype=float)
    out = np.array([f(x) for x in p.ravel().tolist()], dtype=float).reshape(p.shape)
    return float(out) if out.ndim == 0 else out


def alpha_I(p, n):
    """Average member tangle of the symmetric ensemble at q = (1-p)/n."""
    coeffs = _coeffs(check_n(n))

    def at(p):
        return _alpha_I(check_p(p), *coeffs)

    return _elementwise(at, p)


def _alpha_I(p, c_lin, c_quad, c_root):
    return (
        p**2
        - c_lin * p * (1.0 - p)
        - c_quad * (1.0 - p) ** 2
        - c_root * math.sqrt(p * (1.0 - p) ** 3)
    )


def _dd_coeffs(n):
    """bracket and c in alpha_I_dd = (2/(9n^2))(bracket - c (8p^2-4p-1)/sqrt(p^3 (1-p)))."""
    bracket = 9.0 * n * n + 36.0 * n * math.sqrt(n - 1.0) - 12.0 * (n - 1.0)
    c = math.sqrt(6.0 * n) * (1.0 + (n - 1.0) ** 1.5)
    return bracket, c


def alpha_I_dd(p, n):
    """Closed-form second derivative of alpha_I; singular at p in {0, 1}."""
    n = check_n(n)
    bracket, c = _dd_coeffs(n)

    def at(p):
        if not 0.0 < p < 1.0:
            raise BadParamsError(f"alpha_I_dd requires 0 < p < 1, got {p!r}")
        p = float(p)
        # not / sqrt(p^3 (1-p)): p^3 underflows below p ~ 1e-108, where the limit is +inf
        return (2.0 / (9.0 * n * n)) * (
            bracket - c * (8.0 * p**2 - 4.0 * p - 1.0) / p / math.sqrt(p * (1.0 - p))
        )

    return _elementwise(at, p)


def alpha_II(p, n, p1):
    """Chord from (p1, alpha_I(p1)) to (1, 1)."""
    n = check_n(n)
    if not -PARAM_TOL <= p1 < 1.0:
        raise BadParamsError(f"p1 must lie in [0, 1), got {p1!r}")
    a1 = alpha_I(p1, n)

    def at(p):
        return _alpha_II(check_p(p), p1, a1)

    return _elementwise(at, p)


def _alpha_II(p, p1, a1):
    return (p - p1) / (1.0 - p1) + (1.0 - p) / (1.0 - p1) * a1


def brentq(*args, **kwargs):
    """scipy.optimize.brentq, imported on first use. Nothing in the package
    calls it; perfbench/tracing.py and tests/test_trace_contract.py still look
    it up, and it goes with them (ROADMAP item 2)."""
    from scipy.optimize import brentq as scipy_brentq

    return scipy_brentq(*args, **kwargs)


def _largest_quartic_root(a3, a2, a1, a0):
    """Largest real root of the monic quartic u^4 + a3 u^3 + a2 u^2 + a1 u + a0.

    Newton's method starts at the Cauchy bound 1 + max|a_i|, above every root.
    The callers' quartics are increasing and convex above their largest root,
    so the iterates fall monotonically; the first step that does not lower u
    ends the descent at the root to rounding.
    """
    u = 1.0 + max(abs(a3), abs(a2), abs(a1), abs(a0))
    while True:
        g = (((u + a3) * u + a2) * u + a1) * u + a0
        dg = ((4.0 * u + 3.0 * a3) * u + 2.0 * a2) * u + a1
        step = u - g / dg
        if not step < u:
            return u
        u = step


def solve_p0(n):
    """Largest zero of alpha_I on (0, 1); the phase-zero curve's last crossing.

    With u = sqrt(p/(1-p)), alpha_I = (1-p)^2 g(u) for the quartic
    g(u) = u^4 - c_lin u^2 - c_root u - c_quad, so p0 = u^2/(1+u^2) at the
    largest root of g. All three coefficients are positive, so g has one
    positive root (Descartes), and above it g is increasing and convex.
    """
    n = check_n(n)
    c_lin, c_quad, c_root = _coeffs(n)
    u = _largest_quartic_root(0.0, -c_lin, -c_root, -c_quad)
    return u * u / (1.0 + u * u)


def solve_p1(n):
    """Tangency point: where the chord to (1,1) touches the region-I curve.

    The tangency condition (c_root/2)(2p-1)/sqrt(p(1-p)) = 1 + c_lin - c_quad
    reads 2s/sqrt(1-s^2) = k with s = 2p-1 and k = 2(1 + c_lin - c_quad)/c_root,
    so s = k/sqrt(4+k^2).
    """
    n = check_n(n)
    c_lin, c_quad, c_root = _coeffs(n)
    k = 2.0 * (1.0 + c_lin - c_quad) / c_root
    return (1.0 + k / math.sqrt(4.0 + k * k)) / 2.0


def solve_p_star(n):
    """Concavity onset: the zero of alpha_I_dd, above which alpha_I is concave.

    With u = sqrt(p/(1-p)), 8p^2 - 4p - 1 = (3u^4 - 6u^2 - 1)/(1+u^2)^2 and
    sqrt(p^3 (1-p)) = u^3/(1+u^2)^2, so alpha_I_dd = 0 reads
    u^4 - b u^3 - 2u^2 - 1/3 = 0 with b = bracket/(3c). Its signs change once,
    so it has one positive root (Descartes). The quartic is negative at b and
    at sqrt(2), so the root lies above both, where the quartic is increasing
    and convex; alpha_I_dd < 0 above it.
    """
    n = check_n(n)
    bracket, c = _dd_coeffs(n)
    u = _largest_quartic_root(-bracket / (3.0 * c), -2.0, 0.0, -1.0 / 3.0)
    return u * u / (1.0 + u * u)


def p_c(n):
    """Point where the squared-concurrence sum first vanishes.

    The rationalized form of ((7n^2 - 4n + 4) - 3n sqrt(5n^2 - 4n + 4)) / (n - 2)^2:
    no cancellation and no pole at n = 2, where it gives 1/4.
    """
    n = check_n(n)
    den = 7.0 * n * n - 4.0 * n + 4.0 + 3.0 * n * math.sqrt(5.0 * n * n - 4.0 * n + 4.0)
    return 4.0 * (n * n - n + 1.0) / den


def thresholds(n):
    """All four boundary points for one n, each solved on its own."""
    n = check_n(n)
    return Thresholds(n=n, p0=solve_p0(n), p1=solve_p1(n), p_star=solve_p_star(n), p_c=p_c(n))


def mixed_three_tangle(p, n, th=None):
    """Piecewise mixture tangle: 0, alpha_I, or alpha_II by region."""
    n = check_n(n)
    p = check_p(p)
    th = thresholds(n) if th is None else check_thresholds(th, n)
    return PiecewiseTangle(*_piecewise(p, th, _coeffs(n)))


def _piecewise(p, th, coeffs):
    """(region, tangle) at a checked p, from the thresholds and _coeffs of one n."""
    if p <= th.p0:
        return Region.ZERO, 0.0
    if p <= th.p1:
        return Region.ALPHA_I, _alpha_I(p, *coeffs)
    return Region.ALPHA_II, _alpha_II(p, th.p1, _alpha_I(th.p1, *coeffs))


def one_tangle_min(p, q):
    """Minimum one-tangle 4 min det rho_A of the mixture, closed form."""
    return _one_tangle_min(*check_pq(p, q))


def _one_tangle_min(p, q, r):
    poly = 8.0 - 4.0 * p - 12.0 * q + 5.0 * p * p + 12.0 * q * q + 12.0 * p * q
    cross = 4.0 * math.sqrt(p * q * r) * (
        2.0 * math.sqrt(6.0 * q) + 2.0 * math.sqrt(6.0 * r) - 3.0 * math.sqrt(p)
    )
    return (poly + cross) / 9.0


def concurrence_sum_sq(p, q):
    """C_AB^2 + C_AC^2 of the mixture, closed form."""
    return _concurrence_sum_sq(*check_pq(p, q))


def _concurrence_sum_sq(p, q, r):
    # 3p + 2r equals 2 + p - 2q, which cancels as r -> 0 and drops a small p
    c = (2.0 / 3.0) * (1.0 - p) - (1.0 / 3.0) * math.sqrt(
        (3.0 * p + 2.0 * q) * (3.0 * p + 2.0 * r)
    )
    return 2.0 * max(0.0, c) ** 2


class CkwAudit(namedtuple("CkwAudit", "n p one_tangle conc_sq_sum tau3 margin min_margin")):
    """Grid check of one_tangle >= conc_sq_sum + tau3 on the q=(1-p)/n slice.

    The five columns are tuples of floats, one entry per grid point.
    """

    __slots__ = ()


def ckw_audit(n, grid_size):
    n = check_n(n)
    grid_size = check_count("grid_size", grid_size, 2)
    th = thresholds(n)
    coeffs = _coeffs(n)
    # the points of np.linspace(0, 1, grid_size), bit for bit
    step = 1.0 / (grid_size - 1)
    ps = tuple(i * step for i in range(grid_size - 1)) + (1.0,)
    # the (p, q, r) that check_pq gives at q = (1-p)/n, where p and q are >= 0
    qs = ((1.0 - p) / n for p in ps)
    pqr = [(p, q, max(1.0 - p - q, 0.0)) for p, q in zip(ps, qs)]
    one = tuple(_one_tangle_min(*t) for t in pqr)
    conc = tuple(_concurrence_sum_sq(*t) for t in pqr)
    tau = tuple(_piecewise(p, th, coeffs)[1] for p in ps)
    margin = tuple(a - b - c for a, b, c in zip(one, conc, tau))
    return CkwAudit(
        n=n,
        p=ps,
        one_tangle=one,
        conc_sq_sum=conc,
        tau3=tau,
        margin=margin,
        min_margin=min(margin),
    )
