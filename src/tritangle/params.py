"""The parameter checks every module shares. Each is written as "not inside the
accepted range", so NaN is refused as well. This module imports no numpy, so
the closed forms that use it start without numpy."""

import operator

from .errors import BadParamsError

PARAM_TOL = 1e-12
# largest accepted n: above it the threshold closed forms overflow
# (alpha_I_dd overflows from about 5e152, n * n from about 1.3e154)
N_MAX = 1e150


def check_n(n):
    """n as a float in [1, N_MAX]; values within PARAM_TOL below 1 become 1."""
    if not 1.0 - PARAM_TOL <= n <= N_MAX:
        raise BadParamsError(f"n must be a number in [1, {N_MAX:g}], got {n!r}")
    return max(float(n), 1.0)


def check_p(p):
    """p as a float in [0, 1]; values within PARAM_TOL outside are clipped."""
    if not -PARAM_TOL <= p <= 1.0 + PARAM_TOL:
        raise BadParamsError(f"p must lie in [0, 1], got {p!r}")
    return min(max(float(p), 0.0), 1.0)


def check_count(name, value, lo, hi=None):
    """value as an int in [lo, hi]; whatever operator.index takes but bool
    passes, numpy integers included."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise BadParamsError(f"{name} must be an integer, got {value!r}")
    if hi is not None and not lo <= count <= hi:
        raise BadParamsError(f"{name} must lie in [{lo}, {hi}], got {value!r}")
    if count < lo:
        raise BadParamsError(f"{name} must be >= {lo}, got {value!r}")
    return count


def check_pq(p, q):
    """(p, q, r) as floats with r = 1 - p - q: p and q within PARAM_TOL below 0
    become 0 first, then r is clipped at 0; every (p, q)-taking function uses
    this one triple."""
    if not (p >= -PARAM_TOL and q >= -PARAM_TOL and p + q <= 1.0 + PARAM_TOL):
        raise BadParamsError(f"require 0 <= p, 0 <= q, p + q <= 1; got p={p!r}, q={q!r}")
    p = max(float(p), 0.0)
    q = max(float(q), 0.0)
    return p, q, max(1.0 - p - q, 0.0)


def check_thresholds(th, n):
    """th, if it is the Thresholds record solved for n (within 1e-9)."""
    if not abs(th.n - n) <= 1e-9:
        raise BadParamsError(f"thresholds were solved for n={th.n}, not n={n}")
    return th
