"""Core state representations: pure states, density matrices, ensembles, partial traces.

Qubit ordering is big-endian: basis index 4*i + 2*j + k encodes qubit A=i, B=j, C=k.
All values are immutable after construction and safe to share across threads.
"""

import numpy as np

from .errors import BadDimensionError, BadParamsError, EmptyInputError, ZeroVectorError

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

_VALID_DIMS = (2, 3, 4, 8)


class PureState3:
    """Normalized three-qubit pure state held as 8 complex amplitudes."""

    __slots__ = ("amps",)

    def __init__(self, amps):
        a = np.asarray(amps, dtype=complex)
        if a.shape != (8,):
            raise BadDimensionError(f"expected 8 amplitudes, got shape {a.shape}")
        norm = float(np.linalg.norm(a))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise BadParamsError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    def __setattr__(self, name, value):
        raise AttributeError("PureState3 is immutable")

    def density(self):
        """Rank-1 projector |psi><psi| as a DensityMatrix."""
        return _mixture((1.0,), self.amps[None])

    def overlap(self, other):
        """Inner product <self|other>."""
        return complex(np.vdot(self.amps, other.amps))

    def __repr__(self):
        return f"PureState3({np.array2string(self.amps, precision=6)})"


class DensityMatrix:
    """Hermitian PSD unit-trace matrix of dimension 2, 3, 4 or 8."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.asarray(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise BadDimensionError(f"expected a square matrix, got shape {m.shape}")
        d = m.shape[0]
        if d not in _VALID_DIMS:
            raise BadDimensionError(f"dimension {d} not in {_VALID_DIMS}")
        if not np.isfinite(m).all():
            raise BadParamsError("matrix entries must be finite")
        if not np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL:
            raise BadParamsError("matrix is not Hermitian within 1e-12")
        tr = m.trace().real
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise BadParamsError(f"trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
        if not np.linalg.eigvalsh(m).min() >= EIGENVALUE_FLOOR:
            raise BadParamsError("matrix has an eigenvalue below -1e-10")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self):
        return self.mat.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class Ensemble:
    """Weighted list of pure states; weights in [0,1] summing to 1."""

    __slots__ = ("members",)

    def __init__(self, members):
        members = tuple((float(w), s) for w, s in members)
        if not members:
            raise EmptyInputError("ensemble needs at least one member")
        for w, s in members:
            if not isinstance(s, PureState3):
                raise BadParamsError("ensemble members must be PureState3")
            if not -NORM_TOL <= w <= 1.0 + NORM_TOL:
                raise BadParamsError(f"weight {w!r} outside [0, 1]")
        total = sum(w for w, _ in members)
        if not abs(total - 1.0) <= NORM_TOL:
            raise BadParamsError(f"weights sum to {total!r}, expected 1")
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError("Ensemble is immutable")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @property
    def weights(self):
        return np.array([w for w, _ in self.members])

    @property
    def states(self):
        return [s for _, s in self.members]


def pure_from_amplitudes(amps):
    """Normalize 8 amplitudes into a PureState3; reject (near-)zero vectors."""
    a = np.asarray(amps, dtype=complex)
    if a.shape != (8,):
        raise BadDimensionError(f"expected 8 amplitudes, got shape {a.shape}")
    norm = np.linalg.norm(a)
    if norm <= NORM_TOL:
        raise ZeroVectorError(f"amplitude norm {norm!r} is numerically zero")
    return PureState3(a / norm)


def density_from_ensemble(ens):
    """rho = sum_i w_i |psi_i><psi_i|."""
    return _mixture(ens.weights, [s.amps for s in ens.states])


def _mixture(weights, amps):
    """sum_j w_j |a_j><a_j| of a (k, d) amplitude stack, as a DensityMatrix.
    Each outer product is formed, then weighted, then summed over the members
    in their order, so a mixture has the same bits wherever it is built."""
    a = np.asarray(amps, dtype=complex)
    terms = np.asarray(weights, dtype=float)[:, None, None] * (a[:, :, None] * a[:, None, :].conj())
    return DensityMatrix(terms.sum(axis=0))


# einsum subscripts for tracing out qubits; row index (a,b,c), column index (d,e,f).
_KEEP_ONE = {"A": "abcdbc->ad", "B": "abcaec->be", "C": "abcabf->cf"}
_KEEP_TWO = {"AB": "abcdec->abde", "AC": "abcdbf->acdf", "BC": "abcaef->bcef"}


def check_density(rho, dim, name):
    """rho, if it is a DensityMatrix of dimension dim; name is the caller's, for
    the message."""
    if not (isinstance(rho, DensityMatrix) and rho.dim == dim):
        got = rho if isinstance(rho, DensityMatrix) else type(rho).__name__
        raise BadDimensionError(f"{name} expects a DensityMatrix of dimension {dim}, got {got}")
    return rho


def partial_trace(rho, keep):
    """Reduced 2x2 density matrix of the kept qubit ('A', 'B' or 'C')."""
    check_density(rho, 8, "partial_trace")
    if keep not in _KEEP_ONE:
        raise BadParamsError(f"keep must be one of {tuple(_KEEP_ONE)}, got {keep!r}")
    t = rho.mat.reshape(2, 2, 2, 2, 2, 2)
    return DensityMatrix(np.einsum(_KEEP_ONE[keep], t))


def partial_trace_pair(rho, keep):
    """Reduced 4x4 density matrix of the kept qubit pair ('AB', 'AC' or 'BC')."""
    check_density(rho, 8, "partial_trace_pair")
    if keep not in _KEEP_TWO:
        raise BadParamsError(f"keep must be one of {tuple(_KEEP_TWO)}, got {keep!r}")
    t = rho.mat.reshape(2, 2, 2, 2, 2, 2)
    return DensityMatrix(np.einsum(_KEEP_TWO[keep], t).reshape(4, 4))


def trace_distance(rho, sigma):
    """(1/2) * sum of singular values of rho - sigma."""
    if not isinstance(rho, DensityMatrix) or not isinstance(sigma, DensityMatrix):
        raise BadParamsError("trace_distance expects DensityMatrix arguments")
    if rho.dim != sigma.dim:
        raise BadDimensionError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    # difference is Hermitian, so singular values are |eigenvalues|
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho.mat - sigma.mat))))


def eigh_desc(mat):
    """Hermitian eigendecomposition sorted by descending eigenvalue."""
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def save_density_matrix(rho, path):
    """Write dim on the first line, then dim x dim rows of 're im' pairs."""
    lines = [str(rho.dim)]
    for row in rho.mat:
        lines.append(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_density_matrix(path):
    """Inverse of save_density_matrix; whitespace-tolerant."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise BadParamsError(f"{path}: empty matrix file")
    dim = int(tokens[0])
    if dim < 1:
        raise BadParamsError(f"{path}: dimension must be a positive integer, got {dim}")
    vals = [float(t) for t in tokens[1:]]
    if len(vals) != 2 * dim * dim:
        raise BadParamsError(
            f"{path}: expected {2 * dim * dim} floats for dim={dim}, got {len(vals)}"
        )
    flat = np.array(vals).reshape(dim * dim, 2)
    return DensityMatrix((flat[:, 0] + 1j * flat[:, 1]).reshape(dim, dim))
