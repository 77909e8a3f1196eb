"""Numerical convex-roof machinery: characteristic-curve sampling, lower convex
envelopes, and an ensemble-decomposition search upper-bounding the mixed-state
three-tangle."""

import math
from collections import namedtuple

import numpy as np

from .errors import BadParamsError, EmptyInputError, NotIsometryError
from .family import z_tangle_closed, z_tangle_coefficients
# unused here, but perfbench/tracing.py and tests/test_trace_contract.py look it up in roof
from .measures import tangle_from_amps  # noqa: F401
from .params import check_count, check_n
from .states import Ensemble, check_density, eigh_desc, pure_from_amplitudes

RANK_TOL = 1e-12
ISOMETRY_TOL = 1e-10

_TWO_PI = 2.0 * math.pi
_SIGMA_POINTS = 64
_SIGMA_BASINS = 4
_GOLDEN_STEPS = 80
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ELLIPSE_STEPS = 64
_WEIGHT_FLOOR = 1e-14
_SEARCH_MAXITER = 500
_ARMIJO = 1e-4
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # 1/x is finite for x at or above this
_AGREE_TOL = 1e-9
_HALVINGS = 0.5 ** np.arange(4)
_MEMORY = 8  # curvature pairs each restart keeps


class CharCurve(namedtuple("CharCurve", "n p tau_min phi1 phi2")):
    """Pointwise phase-minimum of the Z-state tangle along p, at q = (1-p)/n."""

    __slots__ = ()


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use. Nothing in the package
    calls it; perfbench/tracing.py and tests/test_trace_contract.py still look
    it up, and it goes with them (ROADMAP item 2)."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _ellipse_foot(x, y, e0, e1, d):
    """(cos t, sin t), unnormalized, of the point (e0 cos t, e1 sin t) of the
    ellipse nearest to (x, y), for x, y >= 0, e0 >= e1 >= 0 and d = e0^2 - e1^2.

    Eberly's root of (e0 x / (u + d))^2 + (e1 y / u)^2 = 1, decreasing in u on
    [e1 y, hypot(e0 x, e1 y)], found by bisection on a log scale so that u keeps
    its relative precision however small it is. Where e1 y = 0 the root is
    e0 x - d; where that is not positive, u = 0 and the foot leaves the x axis.
    """
    ex, ey = e0 * x, e1 * y
    flat = ey == 0.0
    lo = np.where(flat, 1.0, ey)
    hi = np.where(flat, 1.0, np.hypot(ex, ey))
    for _ in range(_ELLIPSE_STEPS):
        u = np.sqrt(lo * hi)
        out = (ex / (u + d)) ** 2 + (ey / u) ** 2 > 1.0
        lo, hi = np.where(out, u, lo), np.where(out, hi, u)
    u = np.where(flat, np.maximum(ex - d, 0.0), np.sqrt(lo * hi))
    # u + d = 0 only where e0 x = 0, and then every t is as near as any other
    cos = ex / np.maximum(u + d, _TINY)
    off = u == 0.0
    sin = np.where(off, np.sqrt(np.maximum(1.0 - cos**2, 0.0)), ey / np.where(off, 1.0, u))
    return cos, sin


def _slice_minimum(sigma, k, a, b, c1, c2):
    """The Z tangle minimized over psi at fixed sigma = phi1 + phi2, and that psi.

    With psi = 3 phi1 - 3 sigma / 2 the tangle is |Z - (c1 e^{i psi} + c2 e^{-i psi})|,
    Z = (k - a e^{i sigma} - b e^{2 i sigma}) e^{-3 i sigma / 2}: the distance from
    Z to the ellipse with semi-axes c1 + c2 and |c1 - c2|.
    """
    half = np.exp(0.5j * sigma)
    z = (k - a * half**2 - b * half**4) / half**3
    cos, sin = _ellipse_foot(np.abs(z.real), np.abs(z.imag), c1 + c2, np.abs(c1 - c2), 4.0 * c1 * c2)
    psi = np.arctan2(np.copysign(sin, z.imag * (c1 - c2)), np.copysign(cos, z.real))
    return np.abs(z - c1 * np.exp(1j * psi) - c2 * np.exp(-1j * psi)), psi


def characteristic_curve(n, p_points=401):
    """Minimize the closed-form Z tangle over both phases at each p, q = (1-p)/n.

    The phase psi is minimized exactly (_slice_minimum), so only sigma is
    searched, for all p at once: a grid of _SIGMA_POINTS, then _GOLDEN_STEPS
    golden-section steps from each of the _SIGMA_BASINS lowest local minima of
    the grid. Each search starts with its grid minimum as its lower interior
    point and always keeps the best point it has seen, so no result lies above
    the grid's. tau_min is z_tangle_closed at the phases returned, so it is the
    tangle of a state and exact where that does not depend on the phases.
    """
    n = check_n(n)
    p_points = check_count("p_points", p_points, 2)
    ps = np.linspace(0.0, 1.0, p_points)
    coef = np.array([z_tangle_coefficients(p, (1.0 - p) / n) for p in ps]).T[..., None]
    step = _TWO_PI / _SIGMA_POINTS
    grid = np.arange(_SIGMA_POINTS) * step
    vals = _slice_minimum(grid, *coef)[0]
    basin = (vals <= np.roll(vals, 1, axis=1)) & (vals <= np.roll(vals, -1, axis=1))
    lowest = np.argsort(np.where(basin, vals, np.inf), axis=1)[:, :_SIGMA_BASINS]
    x1, f1 = grid[lowest], np.take_along_axis(vals, lowest, axis=1)
    # [lo, hi] holds the grid steps on both sides of x1
    lo = x1 - step
    hi = lo + step / (1.0 - _GOLDEN)
    x2 = lo + _GOLDEN * (hi - lo)
    f2 = _slice_minimum(x2, *coef)[0]
    for _ in range(_GOLDEN_STEPS):
        left = f1 < f2  # the minimum lies in [lo, x2]: x1 becomes the new x2
        hi, lo = np.where(left, x2, hi), np.where(left, lo, x1)
        x_new = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        f_new = _slice_minimum(x_new, *coef)[0]
        x1, x2 = np.where(left, x_new, x2), np.where(left, x1, x_new)
        f1, f2 = np.where(left, f_new, f2), np.where(left, f1, f_new)
    best = np.argmin(np.minimum(f1, f2), axis=1)
    sigma = np.where(f1 < f2, x1, x2)[np.arange(p_points), best]
    phi1 = (_slice_minimum(sigma, *coef[..., 0])[1] + 1.5 * sigma) / 3.0
    phi1, phi2 = np.mod(phi1, _TWO_PI), np.mod(sigma - phi1, _TWO_PI)
    tau = np.array([z_tangle_closed(p, (1.0 - p) / n, f1, f2) for p, f1, f2 in zip(ps, phi1, phi2)])
    return CharCurve(n=n, p=ps, tau_min=tau, phi1=phi1, phi2=phi2)


_COLLINEAR_TOL = 1e-12


class LowerEnvelope(namedtuple("LowerEnvelope", "x y")):
    """Greatest convex minorant of sampled points; piecewise linear."""

    __slots__ = ()

    def __call__(self, xq):
        return np.interp(xq, self.x, self.y)


def lower_convex_envelope(points):
    """Monotone-chain lower hull of (x, y) samples with x strictly increasing."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyInputError("no points given")
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise BadParamsError("need at least two (x, y) points")
    if not np.isfinite(pts).all():
        raise BadParamsError("points must be finite")
    x, y = pts[:, 0], pts[:, 1]
    if np.any(np.diff(x) <= 0.0):
        raise BadParamsError("x values must be strictly increasing")
    hull = []
    for xi, yi in zip(x, y):
        while len(hull) >= 2:
            (xa, ya), (xb, yb) = hull[-2], hull[-1]
            cross = (xb - xa) * (yi - ya) - (yb - ya) * (xi - xa)
            # pop only genuinely concave corners; near-collinear points stay
            if cross < -_COLLINEAR_TOL:
                hull.pop()
            else:
                break
        hull.append((xi, yi))
    hx = np.array([h[0] for h in hull])
    hy = np.array([h[1] for h in hull])
    return LowerEnvelope(x=hx, y=hy)


def rank_of(rho):
    """Number of eigenvalues above 1e-12."""
    return int(np.sum(np.linalg.eigvalsh(rho.mat) > RANK_TOL))


def hjw_ensemble(rho, mixing):
    """Ensemble |psi~_j> = sum_i U_ji sqrt(l_i) |v_i> from an m x r isometry.

    Members with weight <= 1e-14 are dropped; the rest reproduce rho.
    """
    check_density(rho, 8, "hjw_ensemble")
    u = np.asarray(mixing, dtype=complex)
    r = rank_of(rho)
    if u.ndim != 2 or u.shape[0] < r or u.shape[1] != r:
        raise BadParamsError(f"mixing must be m x {r} with m >= {r}, got {u.shape}")
    gram = u.conj().T @ u
    if not np.max(np.abs(gram - np.eye(r))) <= ISOMETRY_TOL:
        raise NotIsometryError("mixing matrix columns are not orthonormal within 1e-10")
    vals, vecs = eigh_desc(rho.mat)
    basis = vecs[:, :r] * np.sqrt(np.maximum(vals[:r], 0.0))
    tilde = basis @ u.T
    weights = np.sum(np.abs(tilde) ** 2, axis=0).real
    members = []
    for j in range(u.shape[0]):
        if weights[j] > _WEIGHT_FLOOR:
            members.append((weights[j], pure_from_amplitudes(tilde[:, j])))
    total = sum(wt for wt, _ in members)
    return Ensemble([(wt / total, s) for wt, s in members])


class DecompositionSearchResult(
    namedtuple(
        "DecompositionSearchResult",
        "upper_bound best_ensemble restarts_used converged restart_values restart_nfev"
        " restarts_agreeing",
    )
):
    """Best ensemble found, plus each restart's final value and evaluation count.

    upper_bound is restart_values[best], the search's own value at the first
    restart with the least value, and best_ensemble is that restart's ensemble.
    converged says whether the best restart stopped on its stop test before the
    iteration cap; restart_values and restart_nfev (the isometries each restart
    evaluated, every trial of a line-search round included, also those past the
    step it took) are in restart order; restarts_agreeing counts the restarts
    whose final value lies within 1e-9 of the best. The search runs on the
    rounded factor vecs * sqrt(vals) of rho, whose ensembles rebuild rho to
    about 1e-16, so upper_bound can lie up to about 1.6e-15 below the exact
    convex roof (-1.55e-15 was seen at n = 2, p = 0.841506).
    """

    __slots__ = ()


def _adjoint(x):
    return x.conj().swapaxes(-1, -2)


def _flat(x):
    """Each matrix of a complex (k, m, r) stack as one float row of its 2mr real
    coordinates; a view where the stack is contiguous."""
    return np.ascontiguousarray(x).reshape(x.shape[0], -1).view(float)


def _inner(a, b):
    """Re tr(a^H b) of each pair in two (k, m, r) stacks."""
    return np.vecdot(_flat(a), _flat(b))


def _tangent(u, x):
    """x projected onto the tangent space of the isometries at u: x - u herm(u^H x)."""
    uhx = _adjoint(u) @ x
    return x - u @ (0.5 * (uhx + _adjoint(uhx)))


def _retract(mat):
    """Q factor of each matrix of a stack with diag(R) > 0, by modified
    Gram-Schmidt over its r columns; the search retracts u + a d with d tangent
    at u, whose Gram matrix I + a^2 d^H d is at least I, so every column keeps
    a norm of at least 1 as it is orthogonalized."""
    q = np.empty(mat.shape, dtype=complex)
    done = []
    # each column as one contiguous (..., m) stack
    for v in mat.transpose(mat.ndim - 1, *range(mat.ndim - 1)).copy():
        for c in done:
            v = v - np.vecdot(c, v)[..., None] * c
        flat = v.view(float)
        v = v / np.sqrt(np.vecdot(flat, flat))[..., None]
        q[..., len(done)] = v
        done.append(v)
    return q


# e (x) e with e = [[0, 1], [-1, 0]]: for the 4 entries a of a 2 x 2 slice A,
# a^T (e (x) e) a = 2 det A
_EPS_EPS = np.kron([[0.0, 1.0], [-1.0, 0.0]], [[0.0, 1.0], [-1.0, 0.0]])


def _cayley_forms(basis):
    """The complex-symmetric r x r matrices (S00, S11, S01), stacked, with
    B_kl(x) = x^T S_kl x for the amplitudes t = x @ basis of an r x 8 basis.

    Cayley's form of the hyperdeterminant: with A_0, A_1 the 2 x 2 slices of t
    at the first qubit's 0 and 1, B_kk = 2 det A_k and B_01 = det(A_0 + A_1) -
    det A_0 - det A_1, and D(t) = B_01^2 - B_00 B_11.
    """
    slices = basis.reshape(-1, 2, 4)
    pair = np.einsum("ika,ab,jlb->klij", slices, _EPS_EPS, slices)
    return np.stack((pair[0, 0], pair[1, 1], 0.5 * (pair[0, 1] + pair[1, 0])))


def _cayley_values(x, forms):
    """S_kl x and B_kl(x) for each row x of a (..., r) stack, as (N, 3, r) and
    (N, 3) arrays in the order of forms; each S_kl is symmetric, so one flat
    matmul of the rows with the three side by side gives every S_kl x."""
    r = x.shape[-1]
    rows = x.reshape(-1, r)
    sx = (rows @ forms.transpose(1, 0, 2).reshape(r, 3 * r)).reshape(-1, 3, r)
    return sx, np.einsum("nkr,nr->nk", sx, rows)


def restricted_hyperdet(x, forms):
    """Hyperdeterminant D(x @ basis) of a (..., r) stack of rows x, from the
    forms of _cayley_forms(basis)."""
    b00, b11, b01 = _cayley_values(x, forms)[1].T
    return (b01 * b01 - b00 * b11).reshape(x.shape[:-1])


def _weights(u, lam):
    """Member weights w = sum_i l_i |u_ji|^2, and which of them count: a member
    at or below the weight floor adds 0 to F."""
    ws = (u.real**2 + u.imag**2) @ lam
    kept = ws > _WEIGHT_FLOOR
    return np.where(kept, ws, 1.0), kept


def _average_tangle(u, forms, lam):
    """F(u) = sum_j 4|D_j| / w_j for a stack of isometries; a member at or below
    the weight floor adds 0."""
    ws, kept = _weights(u, lam)
    det = restricted_hyperdet(u, forms)
    return np.sum(np.where(kept, 4.0 * np.abs(det) / ws, 0.0), axis=-1)


def _restricted_partials(x, forms):
    """D and its holomorphic partials dD/dx = 2 (2 B_01 S_01 - B_11 S_00 -
    B_00 S_11) x for each row x of a (..., r) stack."""
    sx, b = _cayley_values(x, forms)
    b00, b11, b01 = b.T[..., None]
    partials = 2.0 * (2.0 * b01 * sx[:, 2] - b11 * sx[:, 0] - b00 * sx[:, 1])
    return (b01 * b01 - b00 * b11).reshape(x.shape[:-1]), partials.reshape(x.shape)


def _riemannian_gradient(u, forms, lam):
    """Gradient of F on the isometries, in the metric Re tr(a^H b).

    Row j of u is a member's x, with w = sum_i l_i |x_i|^2. With Wirtinger
    derivatives, dF_j/d conj(x) = 4 [D conj(dD/dx) / (2|D| w) - |D| l x / w^2]
    (a phase of 0 where D = 0); the Euclidean gradient is 2 dF/d conj(u),
    projected onto the tangent space at u.
    """
    ws, kept = _weights(u, lam)
    det, partials = _restricted_partials(u, forms)
    size = np.abs(det)
    # D / |D| by real divisions: 1/|D| overflows where |D| is subnormal, and
    # D = 0 exactly where |D| = 0
    scale = np.where(size > 0.0, size, 1.0)
    phase = det.real / scale + 1j * (det.imag / scale)
    coef = np.where(kept, 4.0 / ws, 0.0)
    grad = (coef * phase)[..., None] * partials.conj() - (2.0 * coef * size / ws)[..., None] * (u * lam)
    return _tangent(u, grad)


def _project(u, vecs):
    """Each of the j vectors per restart in the (k, m, j, r) stack vecs, projected
    onto the tangent space at that restart's u as _tangent does; with m ahead
    of j, one matmul per restart serves all j vectors."""
    k, m, j, r = vecs.shape
    uhx = (_adjoint(u) @ vecs.reshape(k, m, j * r)).reshape(k, r, j, r)
    # the Hermitian part of each r x r block u^H x_i
    sym = 0.5 * (uhx + uhx.transpose(0, 3, 2, 1).conj())
    return vecs - (u @ sym.reshape(k, r, j * r)).reshape(k, m, j, r)


def _two_loop(g, pairs, rho, gamma):
    """The L-BFGS direction -H g of each restart by the two-loop recursion over
    its stored pairs: pairs[:, :, 0, i] is s_i and pairs[:, :, 1, i] is y_i,
    oldest first, and an empty slot has rho = 0, so it adds nothing."""
    k = g.shape[0]
    # each slot's (k, m, r) stack as contiguous float rows, so that every inner
    # product is one vecdot
    s, y = pairs.transpose(2, 3, 0, 1, 4).copy().view(float).reshape(2, rho.shape[1], k, -1)
    rho = rho.T
    q = _flat(g).copy()
    alphas = np.empty(rho.shape)
    for i in reversed(range(rho.shape[0])):
        alphas[i] = rho[i] * np.vecdot(s[i], q)
        q -= alphas[i, :, None] * y[i]
    q *= gamma[:, None]
    for i in range(rho.shape[0]):
        q += (alphas[i] - rho[i] * np.vecdot(y[i], q))[:, None] * s[i]
    return -q.view(complex).reshape(g.shape)


def _lbfgs_lockstep(u, forms, lam):
    """Riemannian L-BFGS from every isometry of the stack u, all restarts
    stepped together.

    Each restart keeps its last _MEMORY curvature pairs (s, y), moved to each
    new point by projection onto its tangent space. A pair is stored only when
    <s, y> and <y, y> are at least the smallest normal number, so that its
    1/<s, y> and the initial inverse-Hessian scale <s, y>/<y, y> are finite;
    that scale comes from the newest stored pair. A direction that is not a
    descent direction is replaced by steepest descent. Each step is an Armijo
    backtracking search from a trial step of 1; each round tries the next
    _HALVINGS.size halvings at once and takes the first that passes, and the
    trial points of every restart still searching go in one objective call. A
    restart stops when no step shows a decrease above the rounding of its
    value, or when an accepted step lowers it by no more than that rounding,
    and in any case after the iteration cap; gradients are computed only for
    restarts that go on. Every restart's arithmetic is its own, so it ends as
    it would alone.
    Returns (u, values, nfev, converged) in restart order.
    """
    n_restarts, m, r = u.shape
    f = _average_tangle(u, forms, lam)
    g = _riemannian_gradient(u, forms, lam)
    d = -g
    # slot _MEMORY holds the newest step's pair until it is stored or dropped
    pairs = np.zeros((n_restarts, m, 2, _MEMORY + 1, r), dtype=complex)
    rho = np.zeros((n_restarts, _MEMORY))
    gamma = np.ones(n_restarts)
    u_end, f_end = u.copy(), f.copy()
    nfev = np.ones(n_restarts, dtype=int)
    converged = np.zeros(n_restarts, dtype=bool)
    rows = np.arange(n_restarts)  # the restart of each row still searching
    for _ in range(_SEARCH_MAXITER):
        slope = _inner(g, d)
        floor = _EPS * f  # a decrease at or below this is rounding
        alpha = np.ones(rows.size)
        step = np.empty(rows.size)
        accepted = np.zeros(rows.size, dtype=bool)
        stalled = np.zeros(rows.size, dtype=bool)
        trying = np.flatnonzero(-slope > floor)
        while trying.size:
            # the next halvings of each pending step, tried at once; the first
            # one that passes is the one a halving loop would have taken
            a = alpha[trying, None] * _HALVINGS
            slopes = a * slope[trying, None]
            trial = _retract(u[trying, None] + a[..., None, None] * d[trying, None])
            f_trial = _average_tangle(trial, forms, lam)
            nfev[rows[trying]] += _HALVINGS.size
            ok = (f_trial <= f[trying, None] + _ARMIJO * slopes) & (-slopes > floor[trying, None])
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)[hit]
            won = trying[hit]
            accepted[won] = True
            stalled[won] = f[won] - f_trial[hit, first] <= floor[won]
            u[won], f[won], step[won] = trial[hit, first], f_trial[hit, first], a[hit, first]
            trying = trying[~hit]
            alpha[trying] *= 0.5**_HALVINGS.size
            trying = trying[-alpha[trying] * slope[trying] > floor[trying]]
        u_end[rows], f_end[rows] = u, f

        going = accepted & ~stalled
        if not going.all():
            converged[rows[~going]] = True
            rows, u, f, g, d, step, pairs, rho, gamma = (
                x[going] for x in (rows, u, f, g, d, step, pairs, rho, gamma)
            )
            if not rows.size:
                break
        g_new = _riemannian_gradient(u, forms, lam)
        # the stored pairs and the new one, (step d, old g), moved to the new
        # point in one projection
        pairs[:, :, 0, -1] = step[:, None, None] * d
        pairs[:, :, 1, -1] = g
        pairs = _project(u, pairs.reshape(rows.size, m, -1, r)).reshape(pairs.shape)
        pairs[:, :, 1, -1] = g_new - pairs[:, :, 1, -1]
        s_new, y_new = pairs[:, :, 0, -1], pairs[:, :, 1, -1]
        sy, yy = _inner(s_new, y_new), _inner(y_new, y_new)
        keep = (sy >= _TINY) & (yy >= _TINY)
        pairs[keep, :, :, :-1] = pairs[keep, :, :, 1:]
        rho[keep] = np.concatenate((rho[keep, 1:], 1.0 / sy[keep, None]), axis=1)
        gamma[keep] = sy[keep] / yy[keep]
        d = _two_loop(g_new, pairs[:, :, :, :-1], rho, gamma)
        uphill = _inner(g_new, d) >= 0.0
        d[uphill] = -g_new[uphill]
        g = g_new
    return u_end, f_end, nfev, converged


def min_avg_tangle(rho, m, restarts=20, seed=0):
    """Upper-bound the convex-roof tangle by searching the mixing isometry.

    Deterministic for fixed (rho, m, restarts, seed); the first restart with
    the least value wins, and upper_bound is that restart's own value. All
    restarts run together, each exactly as it would alone: a Riemannian L-BFGS
    on the m x r isometries with the analytic gradient of the average tangle.
    Both come from the hyperdeterminant restricted to the range of rho, in
    Cayley's form B_01^2 - B_00 B_11 with three quadratic forms in a member's r
    mixing coefficients, so no member is formed in 8 amplitudes.
    """
    check_density(rho, 8, "min_avg_tangle")
    r = rank_of(rho)
    if r > 4:
        raise BadParamsError(f"rank {r} exceeds the supported maximum 4")
    m = check_count("m", m, r, 8)
    restarts = check_count("restarts", restarts, 1)
    seed = check_count("seed", seed, 0)
    vals, vecs = eigh_desc(rho.mat)
    lam = np.maximum(vals[:r], 0.0)
    basis = (vecs[:, :r] * np.sqrt(lam)).T  # r x 8
    seeds = [np.random.SeedSequence(entropy=(seed, k)) for k in range(restarts)]
    x0s = np.array([np.random.default_rng(s).standard_normal(2 * m * r) for s in seeds])
    mr = m * r
    mats = x0s[:, :mr].reshape(-1, m, r) + 1j * x0s[:, mr:].reshape(-1, m, r)
    u, funs, nfev, converged = _lbfgs_lockstep(_retract(mats), _cayley_forms(basis), lam)
    best = int(np.argmin(funs))  # the first of the minimal values
    ens = hjw_ensemble(rho, u[best])
    return DecompositionSearchResult(
        upper_bound=float(funs[best]),
        best_ensemble=ens,
        restarts_used=restarts,
        converged=bool(converged[best]),
        restart_values=tuple(funs.tolist()),
        restart_nfev=tuple(nfev.tolist()),
        restarts_agreeing=int(np.sum(funs <= funs[best] + _AGREE_TOL)),
    )
