"""Qutrit Bloch geometry on span{GHZ, W, W~}: Gell-Mann coordinates, the five
zero-tangle vertices, and the polyhedron membership test."""

import functools
import itertools
import math

import numpy as np

from .errors import BadDimensionError, BadParamsError, EmptyInputError, OutOfSpanError
from .family import SYMMETRIC_PHASES, ghz, w, w_tilde, z_state
from .params import check_n
from .states import DensityMatrix, check_density

_SQRT3 = math.sqrt(3.0)

# standard Gell-Mann matrices, Tr(l_i l_j) = 2 delta_ij
GELL_MANN = np.zeros((8, 3, 3), dtype=complex)
GELL_MANN[0] = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
GELL_MANN[1] = [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]
GELL_MANN[2] = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
GELL_MANN[3] = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
GELL_MANN[4] = [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]
GELL_MANN[5] = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
GELL_MANN[6] = [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]
GELL_MANN[7] = np.diag([1.0, 1.0, -2.0]) / _SQRT3
GELL_MANN.setflags(write=False)

# ordered basis (GHZ, W, W~) as 8x3 column isometry
_BASIS = np.column_stack([ghz().amps, w().amps, w_tilde().amps])

LEAKAGE_TOL = 1e-10

_MEMBERSHIP_TOL = 1e-8


def qutrit_project(rho):
    """3x3 matrix <e_i| rho |e_j> in the (GHZ, W, W~) basis.

    Raises OutOfSpan if rho has weight outside the span (leakage > 1e-10).
    """
    sigma = _BASIS.conj().T @ check_density(rho, 8, "qutrit_project").mat @ _BASIS
    leakage = 1.0 - sigma.trace().real
    if not leakage <= LEAKAGE_TOL:
        raise OutOfSpanError(leakage)
    return DensityMatrix(sigma / sigma.trace().real)


def bloch_vector(sigma):
    """Gell-Mann coordinates n_i = (sqrt(3)/2) Tr(sigma l_i)."""
    sigma = check_density(sigma, 3, "bloch_vector")
    return (_SQRT3 / 2.0) * np.real(np.einsum("kij,ji->k", GELL_MANN, sigma.mat))


def qutrit_from_bloch(n_vec):
    """Inverse map (1/3)(I + sqrt(3) n.lambda); validates PSD."""
    n_vec = np.asarray(n_vec, dtype=float)
    if n_vec.shape != (8,):
        raise BadDimensionError(f"expected 8 components, got shape {n_vec.shape}")
    mat = (np.eye(3) + _SQRT3 * np.einsum("k,kij->ij", n_vec, GELL_MANN)) / 3.0
    return DensityMatrix(mat)


def zero_tangle_vertices(n, p0):
    """The five Bloch vectors spanning the vanishing-tangle polyhedron.

    Row order: W, W~, then the three Z(p0, (1-p0)/n) phase vertices.
    """
    n = check_n(n)
    if not 0.0 < p0 < 1.0:
        raise BadParamsError(f"p0 must lie in (0, 1), got {p0!r}")
    xi1 = math.sqrt(p0 * (1.0 - p0) / n)
    xi2 = math.sqrt(n - 1.0) * xi1
    xi3 = math.sqrt(n - 1.0) * (1.0 - p0) / n
    eta1 = (_SQRT3 / 2.0) * (1.0 - (n + 1.0) * (1.0 - p0) / n)
    eta2 = 0.5 * (1.0 - 3.0 * (n - 1.0) * (1.0 - p0) / n)
    rows = np.array(
        [
            [0.0, 0.0, -_SQRT3 / 2.0, 0.0, 0.0, 0.0, 0.0, 0.5],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0],
            [-_SQRT3 * xi1, 0.0, eta1, -_SQRT3 * xi2, 0.0, _SQRT3 * xi3, 0.0, eta2],
            [
                (_SQRT3 / 2.0) * xi1,
                -1.5 * xi1,
                eta1,
                (_SQRT3 / 2.0) * xi2,
                1.5 * xi2,
                -(_SQRT3 / 2.0) * xi3,
                1.5 * xi3,
                eta2,
            ],
            [
                (_SQRT3 / 2.0) * xi1,
                1.5 * xi1,
                eta1,
                (_SQRT3 / 2.0) * xi2,
                -1.5 * xi2,
                -(_SQRT3 / 2.0) * xi3,
                -1.5 * xi3,
                eta2,
            ],
        ]
    )
    return rows


def vertex_states(n, p0):
    """Pure states behind zero_tangle_vertices, in the same row order."""
    n = check_n(n)
    q0 = (1.0 - p0) / n
    return [w(), w_tilde(), *(z_state(p0, q0, f1, f2) for f1, f2 in SYMMETRIC_PHASES)]


@functools.lru_cache(maxsize=16)
def _padded_supports(m):
    """Every nonempty support of m vertices, by size and then in
    itertools.combinations order, as padded KKT templates.

    Returns (pair, base, keep): pair (2^m - 1, m + 1, m + 1) marks the A^T A
    entries a support keeps and base holds the rest, its ones border and the
    identity block of the vertices outside it; keep (2^m - 1, m + 1, 1) marks
    the right-hand side rows it keeps, its vertices and the last. All read-only.
    """
    sup = [s for k in range(1, m + 1) for s in itertools.combinations(range(m), k)]
    on = np.zeros((len(sup), m + 1), dtype=bool)
    for row, s in zip(on, sup):
        row[list(s)] = True
    pair = on[:, :, None] & on[:, None, :]
    base = np.zeros(pair.shape)
    base[:, :m, m] = base[:, m, :m] = on[:, :m]
    base[:, np.arange(m), np.arange(m)] = ~on[:, :m]
    keep = on[:, :, None].copy()
    keep[:, m] = True
    for x in (pair, base, keep):
        x.setflags(write=False)
    return pair, base, keep


def _simplex_least_squares(a, b):
    """min |a w - b| over the probability simplex, exactly.

    For every support S, solve [A_S^T A_S, 1; 1^T, 0] [w; mu] = [A_S^T b; 1],
    and clip and renormalise w onto the simplex. The minimiser's support is
    among the candidates, so the best candidate is the minimiser. Exactly
    singular systems are skipped: by Caratheodory an affinely independent
    support reaches the same minimum. Each system is padded to m + 1 rows, with
    w_j = 0 for the vertices outside S, so one slogdet and one solve cover all
    2^m - 1 supports; the padded systems take (2^m - 1)(m + 1)^2 floats.
    """
    m = a.shape[1]
    pair, base, keep = _padded_supports(m)
    # a power-of-two scale is exact and keeps A^T A finite for any finite input
    e = np.frexp(max(np.abs(a).max(), np.abs(b).max()))[1]
    a, b = np.ldexp(a, -e), np.ldexp(b, -e)
    ata = np.zeros((m + 1, m + 1))
    ata[:m, :m] = a.T @ a
    atb = np.ones((m + 1, 1))
    atb[:m, 0] = a.T @ b
    kkt = np.where(pair, ata, base)
    rhs = np.where(keep, atb, 0.0)
    regular = np.linalg.slogdet(kkt)[0] != 0.0
    wts = np.maximum(np.linalg.solve(kkt[regular], rhs[regular])[:, :m, 0], 0.0)
    cands = wts / wts.sum(axis=1, keepdims=True)
    residuals = np.linalg.norm(cands @ a.T - b, axis=1)
    # argmin would pick the first NaN; a non-finite residual must never win
    return cands[np.argmin(np.where(np.isfinite(residuals), residuals, np.inf))]


def _check_shapes(name, v, vertices):
    """v and the vertices as float arrays of shapes (d,) and (m, d), m >= 1."""
    v = np.asarray(v, dtype=float)
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim == 2 and vertices.shape[0] == 0:
        raise EmptyInputError("need at least one vertex")
    if v.ndim != 1 or v.size == 0 or vertices.shape[1:] != v.shape:
        shapes = f"{v.shape} and {vertices.shape}"
        raise BadDimensionError(f"{name} expects (d,) and (m, d) shapes, got {shapes}")
    return v, vertices


def hull_residual(v, vertices, weights):
    """|sum w_i v_i - v|, the distance from v to the weighted vertex mix."""
    v, vertices = _check_shapes("hull_residual", v, vertices)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != vertices.shape[:1]:
        shapes = f"{weights.shape} and {vertices.shape}"
        raise BadDimensionError(f"hull_residual expects (m,) and (m, d) shapes, got {shapes}")
    return _residual(v, vertices, weights)


def _residual(v, vertices, weights):
    d = vertices.T @ weights - v
    # scaling by a power of two is exact and keeps the squares of d finite and normal
    e = np.frexp(np.abs(d).max())[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(d, -e)), e))


def in_zero_polyhedron(v, vertices, tol=_MEMBERSHIP_TOL):
    """Best convex combination of the (m, d) vertices approximating v, of shape (d,).

    Returns (inside, weights): inside is True when the residual |sum w_i v_i - v|
    is <= tol. The weights are the exact minimiser, found by trying every
    support of the vertices: the cost grows as 2^m in the number m of vertices
    (five in the library), and repeated or affinely dependent vertices are fine.
    """
    v, vertices = _check_shapes("in_zero_polyhedron", v, vertices)
    if not (np.isfinite(v).all() and np.isfinite(vertices).all()):
        raise BadParamsError("v and the vertices must be finite")
    if not 0.0 <= tol < np.inf:
        raise BadParamsError(f"tol must be a finite number >= 0, got {tol!r}")
    weights = _simplex_least_squares(vertices.T, v)
    return _residual(v, vertices, weights) <= tol, weights
