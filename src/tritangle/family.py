"""The GHZ / W / flipped-W family: named states, Z superpositions, the rank-3
mixture rho(p,q), its symmetric ensemble, region-wise optimal decompositions,
and the pi(p,n) side family.

Every family state lies in the span of GHZ, W and W~. A state there is a
qutrit vector x over those three rows, and its 8 amplitudes are x @ _SPAN; a Z
state is x = (sqrt p, -e^{i phi1} sqrt q, -e^{i phi2} sqrt r)."""

import math

import numpy as np

from .errors import BadParamsError
from .params import N_MAX, check_n, check_p, check_pq, check_thresholds
from .states import Ensemble, PureState3, _mixture

# rows GHZ, W, W~: the span of the family, read-only
_SPAN = np.zeros((3, 8), dtype=complex)
_SPAN[0, [0, 7]] = 1.0 / math.sqrt(2.0)
_SPAN[1, [1, 2, 4]] = 1.0 / math.sqrt(3.0)
_SPAN[2, [6, 5, 3]] = 1.0 / math.sqrt(3.0)
_SPAN.setflags(write=False)
_GHZ_MINUS = np.zeros(8, dtype=complex)
_GHZ_MINUS[0] = 1.0 / math.sqrt(2.0)
_GHZ_MINUS[7] = -1.0 / math.sqrt(2.0)

# phase pairs of the symmetric three-member ensemble realizing rho(p,q)
SYMMETRIC_PHASES = (
    (0.0, 0.0),
    (2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0),
    (4.0 * math.pi / 3.0, 2.0 * math.pi / 3.0),
)


def ghz():
    """(|000> + |111>)/sqrt(2)."""
    return PureState3(_SPAN[0])


def ghz_minus():
    """(|000> - |111>)/sqrt(2)."""
    return PureState3(_GHZ_MINUS)


def w():
    """(|001> + |010> + |100>)/sqrt(3)."""
    return PureState3(_SPAN[1])


def w_tilde():
    """(|110> + |101> + |011>)/sqrt(3); W with all qubits flipped."""
    return PureState3(_SPAN[2])


def _slice(p, n):
    """(p, q, r) on the slice q = (1-p)/n, with r = (n-1) q: 1 - p - q would
    cancel as n -> 1."""
    q = (1.0 - p) / n
    return p, q, (n - 1.0) * q


def _z_vectors(p, q, r, phases=SYMMETRIC_PHASES):
    """Qutrit vectors (sqrt p, -e^{i phi1} sqrt q, -e^{i phi2} sqrt r) over
    (GHZ, W, W~), one row per (phi1, phi2) pair of phases."""
    rows = np.empty((len(phases), 3), dtype=complex)
    rows[:, 0] = math.sqrt(p)
    rows[:, 1:] = -(np.exp(1j * np.asarray(phases, dtype=float)) * (math.sqrt(q), math.sqrt(r)))
    return rows


def _z_states(p, q, r, phases=SYMMETRIC_PHASES):
    return [PureState3(a) for a in _z_vectors(p, q, r, phases) @ _SPAN]


def z_state(p, q, phi1=0.0, phi2=0.0):
    """sqrt(p)|GHZ> - e^{i phi1} sqrt(q)|W> - e^{i phi2} sqrt(1-p-q)|W~>."""
    return _z_states(*check_pq(p, q), ((phi1, phi2),))[0]


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
    return _mixture(check_pq(p, q), _SPAN)


def symmetric_ensemble(p, q):
    """Equal-weight three-member Z ensemble realizing rho(p,q)."""
    return Ensemble([(1.0 / 3.0, s) for s in _z_states(*check_pq(p, q))])


def optimal_decomposition(p, n, th):
    """Minimal-average-tangle ensemble for rho(p, (1-p)/n) in each region.

    th must be the Thresholds record for the same n. The Z members take
    r = (n-1) q, which stays exact as n -> 1. Members with weight <= 1e-14 are
    dropped so boundary calls return the short ensembles.
    """
    p = check_p(p)
    check_thresholds(th, n)
    n = check_n(n)
    p0, p1 = th.p0, th.p1
    if p < p0:
        members = [(p / (3.0 * p0), s) for s in _z_states(*_slice(p0, n))]
        members.append(((p0 - p) / (n * p0), w()))
        members.append(((n - 1.0) * (p0 - p) / (n * p0), w_tilde()))
    elif p <= p1:
        members = [(1.0 / 3.0, s) for s in _z_states(*_slice(p, n))]
    else:
        members = [((p - p1) / (1.0 - p1), ghz())]
        members += [((1.0 - p) / (3.0 * (1.0 - p1)), s) for s in _z_states(*_slice(p1, n))]
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
    return _mixture((p, qn, rest), np.vstack((_SPAN[:2], _GHZ_MINUS)))
