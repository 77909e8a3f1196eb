"""Entanglement measures: three-tangle, Wootters concurrence, one-tangle, CKW residual.

The three-tangle is 4|D|, D Cayley's hyperdeterminant in its 2 x 2 form: one
kernel for amplitude rows and for the convex-roof search on the range of rho.
"""

import numpy as np

from .states import check_density, partial_trace, partial_trace_pair

_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_Y, _Y)

# e (x) e with e = [[0, 1], [-1, 0]]: for the 4 entries a of a 2 x 2 slice A,
# a^T (e (x) e) a = 2 det A
_EPS_EPS = np.kron([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]])


def _cayley_forms(basis):
    """The complex-symmetric r x r matrices S00, S11 and S01 side by side, as
    one (r, 3r) matrix, with B_kl(x) = x^T S_kl x for the amplitudes
    t = x @ basis of an r x 8 basis.

    Cayley's form of the hyperdeterminant: with A_0, A_1 the 2 x 2 slices of t
    at the first qubit's 0 and 1, B_kk = 2 det A_k and B_01 = det(A_0 + A_1) -
    det A_0 - det A_1, and D(t) = B_01^2 - B_00 B_11.
    """
    slices = basis.reshape(-1, 2, 4)
    pair = np.einsum("ika,ab,jlb->klij", slices, _EPS_EPS, slices)
    return np.hstack((pair[0, 0], pair[1, 1], 0.5 * (pair[0, 1] + pair[1, 0])))


def _cayley_values(x, forms):
    """S_kl x and B_kl(x) for each row x of a (..., r) stack, as (N, 3, r) and
    (N, 3) arrays in the order of forms; each S_kl is symmetric, so one flat
    matmul of the rows with the side-by-side forms gives every S_kl x."""
    r = x.shape[-1]
    rows = x.reshape(-1, r)
    sx = (rows @ forms).reshape(-1, 3, r)
    return sx, np.einsum("nkr,nr->nk", sx, rows)


def restricted_hyperdet(x, forms):
    """Hyperdeterminant D(x @ basis) of a (..., r) stack of rows x, from the
    forms of _cayley_forms(basis)."""
    b00, b11, b01 = _cayley_values(x, forms)[1].T
    return (b01 * b01 - b00 * b11).reshape(x.shape[:-1])


def _restricted_partials(x, forms):
    """D and its holomorphic partials dD/dx = 2 (2 B_01 S_01 - B_11 S_00 -
    B_00 S_11) x for each row x of a (..., r) stack."""
    sx, b = _cayley_values(x, forms)
    b00, b11, b01 = b.T[..., None]
    partials = 2.0 * (2.0 * b01 * sx[:, 2] - b11 * sx[:, 0] - b00 * sx[:, 1])
    return (b01 * b01 - b00 * b11).reshape(x.shape[:-1]), partials.reshape(x.shape)


# the forms on the amplitudes themselves; their entries 0, +-1/2 and +-1 keep
# D of small-integer rows exact
_AMPLITUDE_FORMS = _cayley_forms(np.eye(8))
_AMPLITUDE_FORMS.flags.writeable = False


def tangle_from_amps(amps):
    """Three-tangle 4|D| of (unnormalized) amplitude rows, D Cayley's
    hyperdeterminant (restricted_hyperdet on the 8 x 8 identity basis).

    Accepts any (..., 8) array; a row with squared norm s gets the tangle of
    the normalized state times s^2 (D is degree-4 homogeneous).
    Index convention: amps[..., 4i+2j+k] is the coefficient of |ijk>.
    """
    return 4.0 * np.abs(restricted_hyperdet(np.asarray(amps, dtype=complex), _AMPLITUDE_FORMS))


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


def _four_det_reduced(rho, focus):
    """4 det of the focus qubit's reduced density matrix of rho, unclamped."""
    r = partial_trace(rho, focus).mat
    return 4.0 * (r[0, 0] * r[1, 1] - r[0, 1] * r[1, 0]).real


def one_tangle_pure(psi, focus="A"):
    """4 det of the focus qubit's reduced density matrix; in [0, 1]."""
    return max(0.0, _four_det_reduced(psi.density(), focus))


def ckw_residual(psi):
    """4 det rho_A - C_AB^2 - C_AC^2; equals the three-tangle on pure states."""
    rho = psi.density()
    c_ab = concurrence(partial_trace_pair(rho, "AB"))
    c_ac = concurrence(partial_trace_pair(rho, "AC"))
    return _four_det_reduced(rho, "A") - c_ab**2 - c_ac**2


def ensemble_average_tangle(ens):
    """Weight-average three-tangle of an ensemble's members: one kernel call on
    their stacked amplitudes, then w * tau summed in member order."""
    taus = tangle_from_amps([s.amps for s in ens.states]).tolist()
    return float(sum(w * t for (w, _), t in zip(ens, taus)))
