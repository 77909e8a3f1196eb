"""The GHZ / W / flipped-W family: named states, Z superpositions, the rank-3
mixture rho(p,q), its symmetric ensemble, region-wise optimal decompositions,
and the pi(p,n) side family."""

import math

import numpy as np

from .errors import BadParamsError
from .params import N_MAX, check_n, check_p, check_pq, check_thresholds
from .states import DensityMatrix, Ensemble, PureState3

_GHZ = np.zeros(8, dtype=complex)
_GHZ[[0, 7]] = 1.0 / math.sqrt(2.0)
_GHZ_MINUS = np.zeros(8, dtype=complex)
_GHZ_MINUS[0] = 1.0 / math.sqrt(2.0)
_GHZ_MINUS[7] = -1.0 / math.sqrt(2.0)
_W = np.zeros(8, dtype=complex)
_W[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
_W_TILDE = np.zeros(8, dtype=complex)
_W_TILDE[[6, 5, 3]] = 1.0 / math.sqrt(3.0)

# phase pairs of the symmetric three-member ensemble realizing rho(p,q)
SYMMETRIC_PHASES = (
    (0.0, 0.0),
    (2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0),
    (4.0 * math.pi / 3.0, 2.0 * math.pi / 3.0),
)


def ghz():
    """(|000> + |111>)/sqrt(2)."""
    return PureState3(_GHZ)


def ghz_minus():
    """(|000> - |111>)/sqrt(2)."""
    return PureState3(_GHZ_MINUS)


def w():
    """(|001> + |010> + |100>)/sqrt(3)."""
    return PureState3(_W)


def w_tilde():
    """(|110> + |101> + |011>)/sqrt(3); W with all qubits flipped."""
    return PureState3(_W_TILDE)


def z_state(p, q, phi1=0.0, phi2=0.0):
    """sqrt(p)|GHZ> - e^{i phi1} sqrt(q)|W> - e^{i phi2} sqrt(1-p-q)|W~>."""
    p, q, r = check_pq(p, q)
    amps = (
        math.sqrt(p) * _GHZ
        - np.exp(1j * phi1) * math.sqrt(q) * _W
        - np.exp(1j * phi2) * math.sqrt(r) * _W_TILDE
    )
    return PureState3(amps)


def z_tangle_coefficients(p, q):
    """(k, a, b, c1, c2) such that the tangle of z_state(p, q, phi1, phi2) is
    |k - a t1 t2 - b (t1 t2)^2 - c1 t1^3 - c2 t2^3| with t = e^{i phi}."""
    p, q, r = check_pq(p, q)
    c = 8.0 * math.sqrt(6.0) / 9.0
    return (
        p**2,
        4.0 * p * math.sqrt(q * r),
        (4.0 / 3.0) * q * r,
        c * math.sqrt(p * q**3),
        c * math.sqrt(p * r**3),
    )


def z_tangle_closed(p, q, phi1=0.0, phi2=0.0):
    """Closed-form three-tangle of z_state; broadcasts over phase arrays."""
    k, a, b, c1, c2 = z_tangle_coefficients(p, q)
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    e12 = np.exp(1j * (phi1 + phi2))
    val = np.abs(k - a * e12 - b * e12**2 - c1 * np.exp(3j * phi1) - c2 * np.exp(3j * phi2))
    if val.ndim == 0:
        return float(val)
    return val


def rho(p, q):
    """p |GHZ><GHZ| + q |W><W| + (1-p-q) |W~><W~|; rank <= 3."""
    p, q, r = check_pq(p, q)
    mat = (
        p * np.outer(_GHZ, _GHZ.conj())
        + q * np.outer(_W, _W.conj())
        + r * np.outer(_W_TILDE, _W_TILDE.conj())
    )
    return DensityMatrix(mat)


def symmetric_ensemble(p, q):
    """Equal-weight three-member Z ensemble realizing rho(p,q)."""
    return Ensemble(
        [(1.0 / 3.0, z_state(p, q, f1, f2)) for f1, f2 in SYMMETRIC_PHASES]
    )


def optimal_decomposition(p, n, th):
    """Minimal-average-tangle ensemble for rho(p, (1-p)/n) in each region.

    th must be the Thresholds record for the same n. Members with weight
    <= 1e-14 are dropped so boundary calls return the short ensembles.
    """
    p = check_p(p)
    check_thresholds(th, n)
    p0, p1 = th.p0, th.p1
    if p < p0:
        q0 = (1.0 - p0) / n
        members = [(p / (3.0 * p0), z_state(p0, q0, f1, f2)) for f1, f2 in SYMMETRIC_PHASES]
        members.append(((p0 - p) / (n * p0), w()))
        members.append(((n - 1.0) * (p0 - p) / (n * p0), w_tilde()))
    elif p <= p1:
        return symmetric_ensemble(p, (1.0 - p) / n)
    else:
        q1 = (1.0 - p1) / n
        members = [((p - p1) / (1.0 - p1), ghz())]
        members += [
            ((1.0 - p) / (3.0 * (1.0 - p1)), z_state(p1, q1, f1, f2))
            for f1, f2 in SYMMETRIC_PHASES
        ]
    return Ensemble([(wt, s) for wt, s in members if wt > 1e-14])


def pi_state(p, n):
    """p |GHZ+><GHZ+| + ((1-p)/n)|W><W| + ((n-1)(1-p)/n)|GHZ-><GHZ-|.

    n may be math.inf, in which case the W term drops out; a finite n is
    checked by check_n.
    """
    p = check_p(p)
    try:
        qn = 0.0 if n == math.inf else (1.0 - p) / check_n(n)
    except BadParamsError:
        raise BadParamsError(
            f"n must be math.inf or a number in [1, {N_MAX:g}], got {n!r}"
        ) from None
    rest = (1.0 - p) - qn
    mat = (
        p * np.outer(_GHZ, _GHZ.conj())
        + qn * np.outer(_W, _W.conj())
        + rest * np.outer(_GHZ_MINUS, _GHZ_MINUS.conj())
    )
    return DensityMatrix(mat)
