"""Entanglement measures: three-tangle, Wootters concurrence, one-tangle, CKW residual."""

import numpy as np

from .states import check_density, partial_trace, partial_trace_pair

_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_Y, _Y)


def tangle_from_amps(amps):
    """Three-tangle 4|d1 - 2 d2 + 4 d3| of (unnormalized) amplitude rows.

    Accepts any (..., 8) array; a row with squared norm s gets the tangle of
    the normalized state times s^2 (the polynomial is degree-4 homogeneous).
    Index convention: amps[..., 4i+2j+k] is the coefficient of |ijk>.
    """
    a = np.asarray(amps, dtype=complex)
    # every input, a single state too, is a stack of rows; the transposed copy
    # makes each amplitude's column contiguous, which the products run faster on
    return (4.0 * np.abs(_hyperdet(*a.reshape(-1, 8).T.copy()))).reshape(a.shape[:-1])


def _hyperdet(a0, a1, a2, a3, a4, a5, a6, a7):
    """Cayley hyperdeterminant d1 - 2 d2 + 4 d3 of amplitude columns."""
    a07 = a0 * a7
    a34 = a3 * a4
    d1 = a0**2 * a7**2 + a1**2 * a6**2 + a2**2 * a5**2 + a4**2 * a3**2
    d2 = (
        a07 * a3 * a4
        + a07 * a5 * a2
        + a07 * a6 * a1
        + a34 * a5 * a2
        + a34 * a6 * a1
        + a5 * a2 * a6 * a1
    )
    d3 = a0 * a6 * a5 * a3 + a7 * a1 * a2 * a4
    return d1 - 2.0 * d2 + 4.0 * d3


def three_tangle_pure(psi):
    """Three-tangle of a normalized pure state; value in [0, 1]."""
    return float(tangle_from_amps(psi.amps))


def _psd_eigh(mat):
    """Eigenvalues/vectors of a Hermitian PSD matrix with noise eigenvalues zeroed.

    Eigenvalues below 128*eps*max are structural zeros contaminated by roundoff;
    truncating them keeps later square roots from amplifying the noise.
    """
    vals, vecs = np.linalg.eigh(mat)
    cutoff = 128.0 * np.finfo(float).eps * max(vals[-1], 0.0)
    vals = np.where(vals > cutoff, vals, 0.0)
    return vals, vecs


def _sqrtm_psd(mat):
    vals, vecs = _psd_eigh(mat)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def wootters_lambdas(rho):
    """Decreasing square roots of the eigenvalues of rho * (Y x Y) rho* (Y x Y).

    Uses the Hermitian form sqrt(rho) rho~ sqrt(rho), which has the same spectrum.
    """
    m = check_density(rho, 4, "wootters_lambdas").mat
    tilde = _YY @ m.conj() @ _YY
    root = _sqrtm_psd(m)
    prod = root @ tilde @ root
    prod = 0.5 * (prod + prod.conj().T)
    vals, _ = _psd_eigh(prod)
    return np.sqrt(vals)[::-1]


def concurrence(rho):
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit state."""
    lams = wootters_lambdas(rho)
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def one_tangle_pure(psi, focus="A"):
    """4 det of the focus qubit's reduced density matrix; in [0, 1]."""
    r = partial_trace(psi.density(), focus).mat
    det = (r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]).real
    return max(0.0, 4.0 * det)


def ckw_residual(psi):
    """4 det rho_A - C_AB^2 - C_AC^2; equals the three-tangle on pure states."""
    rho = psi.density()
    c_ab = concurrence(partial_trace_pair(rho, "AB"))
    c_ac = concurrence(partial_trace_pair(rho, "AC"))
    r = partial_trace(rho, "A").mat
    det = (r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]).real
    return 4.0 * det - c_ab**2 - c_ac**2


def ensemble_average_tangle(ens):
    """Weight-average three-tangle of an ensemble's members: one kernel call on
    their stacked amplitudes, then w * tau summed in member order."""
    taus = tangle_from_amps([s.amps for s in ens.states]).tolist()
    return float(sum(w * t for (w, _), t in zip(ens, taus)))
