"""Numerical convex-roof machinery: characteristic-curve sampling, lower convex
envelopes, and an ensemble-decomposition search upper-bounding the mixed-state
three-tangle."""

import math
from collections import namedtuple

import numpy as np

from .errors import BadParamsError, EmptyInputError, NotIsometryError
from .family import z_tangle_closed, z_tangle_coefficients
# called by this module's name, which test_telemetry patches to count rows
from .measures import _cayley_forms, _restricted_partials, restricted_hyperdet
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
_SEARCH_MAXITER = 2000
_ARMIJO = 1e-4
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # 1/x is finite for x at or above this
_AGREE_TOL = 1e-9
_HALVINGS = 0.5 ** np.arange(4)
_MEMORY = 16  # curvature pairs each restart keeps


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
        " restarts_agreeing restart_stops",
    )
):
    """Best ensemble found, plus each restart's final value, evaluation count
    and stop reason.

    upper_bound is restart_values[best], the search's own value at the first
    restart with the least value, and best_ensemble is that restart's ensemble.
    restart_values, restart_nfev (the isometries each restart evaluated, every
    trial of a line-search round included, also those past the step it took)
    and restart_stops are in restart order. A restart stops with "no_step" when
    no trial step showed a decrease above the rounding of its value, with
    "small_step" when the step it took lowered the value by no more than that
    rounding, and with "cap" when it reached the cap of 2000 iterations still
    descending. converged is restart_stops[best] != "cap". restarts_agreeing
    counts the restarts whose final value lies within 1e-9 of the best. The
    search runs on the rounded factor vecs * sqrt(vals) of rho, whose ensembles
    rebuild rho to about 1e-16, so upper_bound can lie up to about 1.6e-15 below
    the exact convex roof (-1.55e-15 was seen at n = 2, p = 0.841506).
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


def _empty_memory(k, size):
    """The curvature memory of k restarts with no pair stored, for steps of
    size real coordinates: [pairs, rinv, yy, sy, gamma, slot].

    pairs[:, 0] holds the rows s_i and pairs[:, 1] the rows y_i as flat float
    rows (_flat), in _MEMORY slots filled in turn, so a new pair takes the slot
    of the oldest once all are full and no row moves; slot is the one each
    restart fills next. R is the upper triangle of S Y^T with the pairs in the
    order they came; rinv is R^-1, yy is Y Y^T and sy the diagonal s_i . y_i,
    each indexed by slot. An empty slot has zero rows, 0 in sy and yy, and 1 on
    the diagonal of rinv, so it adds nothing.
    """
    return [
        np.zeros((k, 2, _MEMORY, size)),
        np.tile(np.eye(_MEMORY), (k, 1, 1)),
        np.zeros((k, _MEMORY, _MEMORY)),
        np.zeros((k, _MEMORY)),
        np.ones(k),
        np.zeros(k, dtype=int),
    ]


def _store(memory, s, y):
    """Put the pair (s, y) of flat rows in each restart's next slot, where
    <s, y> and <y, y> are at least the smallest normal number; elsewhere the
    restart keeps its memory as it is.

    One matmul gives the new columns S y of S Y^T and Y y of Y Y^T. Dropping
    the oldest pair leaves R^-1 without its row and column, since R is upper
    triangular in the order the pairs came; the new pair adds the column of the
    block inverse [[R22^-1, -R22^-1 c / delta], [0, 1 / delta]], with c = S y
    and delta = <s, y>. The initial inverse-Hessian scale gamma =
    <s, y>/<y, y> is the newest pair's.
    """
    pairs, rinv, yy, sy, gamma, slot = memory
    sy_new, yy_new = np.vecdot(s, y), np.vecdot(y, y)
    keep = np.flatnonzero((sy_new >= _TINY) & (yy_new >= _TINY))
    at, delta = slot[keep], sy_new[keep]
    pairs[keep, 0, at], pairs[keep, 1, at] = s[keep], y[keep]
    # S y and Y y, computed for every restart and used where it keeps its pair
    col = (y[:, None] @ pairs.reshape(len(y), 2 * _MEMORY, -1).swapaxes(1, 2))[:, 0]
    # the oldest pair's row of R^-1 drops out, and with it the only nonzero
    # entry of its column, the diagonal one, as R is upper triangular
    rinv[keep, at] = 0.0
    rinv[keep, :, at] = (col[:, None, :_MEMORY] @ rinv.swapaxes(1, 2))[keep, 0] / -delta[:, None]
    rinv[keep, at, at] = 1.0 / delta
    yy[keep, at] = yy[keep, :, at] = col[keep, _MEMORY:]
    sy[keep, at] = delta
    gamma[keep] = delta / yy_new[keep]
    slot[keep] = (at + 1) % _MEMORY


def _direction(g, memory):
    """The L-BFGS direction -H g of each restart from its memory (_store), by
    the compact form of Byrd, Nocedal and Schnabel (Math. Prog. 63, 1994):
    H g = gamma g + S^T z - gamma Y^T t, with t = R^-1 S g and
    z = R^-T (diag(sy) t + gamma (Y Y^T t - Y g))."""
    pairs, rinv, yy, sy, gamma = memory[:5]
    flat = _flat(g)
    rows = pairs.reshape(len(flat), 2 * _MEMORY, -1)
    # row vectors times stacked matrices: the fastest layout of numpy's matmul here
    sgyg = (flat[:, None] @ rows.swapaxes(1, 2))[:, 0]
    t = (sgyg[:, None, :_MEMORY] @ rinv.swapaxes(1, 2))[:, 0]
    inner = sy * t + gamma[:, None] * ((t[:, None] @ yy)[:, 0] - sgyg[:, _MEMORY:])
    coef = np.concatenate(((inner[:, None] @ rinv)[:, 0], -gamma[:, None] * t), axis=1)
    hg = gamma[:, None] * flat + (coef[:, None] @ rows)[:, 0]
    return -hg.view(complex).reshape(g.shape)


def _lbfgs_lockstep(u, forms, lam):
    """Riemannian L-BFGS from every isometry of the stack u, all restarts
    stepped together.

    Each restart keeps its last _MEMORY curvature pairs as computed, the step
    s = step d and the gradient change y = g_new - g, without moving them to
    later points; the direction the compact form makes of them (_direction) is
    projected onto the tangent space at the new point. A pair is stored only
    when <s, y> and <y, y> are at least the smallest normal number, so that
    1/<s, y> and the initial inverse-Hessian scale <s, y>/<y, y> are finite
    (_store). A direction that is not a descent direction is replaced by
    steepest descent. Each step is an Armijo backtracking search from a trial
    step of 1; each round tries the next _HALVINGS.size halvings at once and
    takes the first that passes. The restarts still trying are all at the same
    halving, so they share one ladder of trial steps, and their trial points go
    in one objective call. A restart stops with "no_step" when no trial shows a
    decrease above the rounding of its value, with "small_step" when an
    accepted step lowers it by no more than that rounding, and with "cap" after
    _SEARCH_MAXITER iterations; gradients are computed only for restarts that
    go on. Every restart's arithmetic is its own, so it ends as it would alone.
    Returns (u, values, nfev, stops) in restart order.
    """
    n_restarts, m, r = u.shape
    f = _average_tangle(u, forms, lam)
    g = _riemannian_gradient(u, forms, lam)
    d = -g
    memory = _empty_memory(n_restarts, 2 * m * r)
    u_end, f_end = np.empty_like(u), np.empty_like(f)
    nfev = np.ones(n_restarts, dtype=int)
    stops = ["cap"] * n_restarts
    rows = np.arange(n_restarts)  # the restart of each row still searching
    for _ in range(_SEARCH_MAXITER):
        slope = _inner(g, d)
        floor = _EPS * f  # a decrease at or below this is rounding
        step = np.zeros(rows.size)  # the step taken; 0 where no trial passed
        going = np.zeros(rows.size, dtype=bool)
        a = _HALVINGS  # the next halvings, the same for every restart still trying
        trying = np.flatnonzero(-a[0] * slope > floor)
        while trying.size:
            # the first halving that passes is the one a halving loop would take
            slopes = a * slope[trying, None]
            trial = _retract(u[trying, None] + a[:, None, None] * d[trying, None])
            f_trial = _average_tangle(trial, forms, lam)
            nfev[rows[trying]] += _HALVINGS.size
            ok = (f_trial <= f[trying, None] + _ARMIJO * slopes) & (-slopes > floor[trying, None])
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)[hit]
            won = trying[hit]
            going[won] = f[won] - f_trial[hit, first] > floor[won]
            u[won], f[won], step[won] = trial[hit, first], f_trial[hit, first], a[first]
            a = a * 0.5**_HALVINGS.size
            trying = trying[~hit & (-a[0] * slope[trying] > floor[trying])]

        if not going.all():
            for k, took in zip(rows[~going].tolist(), step[~going].tolist()):
                stops[k] = "small_step" if took else "no_step"
            u_end[rows[~going]], f_end[rows[~going]] = u[~going], f[~going]
            rows, u, f, g, d, step = (x[going] for x in (rows, u, f, g, d, step))
            memory = [x[going] for x in memory]
            if not rows.size:
                break
        g_new = _riemannian_gradient(u, forms, lam)
        _store(memory, _flat(step[:, None, None] * d), _flat(g_new - g))
        d = _tangent(u, _direction(g_new, memory))
        uphill = _inner(g_new, d) >= 0.0
        d[uphill] = -g_new[uphill]
        g = g_new
    u_end[rows], f_end[rows] = u, f  # the restarts that reached the cap
    return u_end, f_end, nfev, stops


def min_avg_tangle(rho, m, restarts=20, seed=0):
    """Upper-bound the convex-roof tangle by searching the mixing isometry.

    Deterministic for fixed (rho, m, restarts, seed); the first restart with
    the least value wins, and upper_bound is that restart's own value. All
    restarts run together, each exactly as it would alone: a Riemannian L-BFGS
    on the m x r isometries with the analytic gradient of the average tangle.
    Both come from the hyperdeterminant restricted to the range of rho, in
    Cayley's form B_01^2 - B_00 B_11 with three quadratic forms in a member's r
    mixing coefficients, so no member is formed in 8 amplitudes. Each restart
    keeps its last 16 curvature pairs and stops on its own stop test or after
    2000 iterations; converged says the best restart stopped before that cap.
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
    u, funs, nfev, stops = _lbfgs_lockstep(_retract(mats), _cayley_forms(basis), lam)
    best = int(np.argmin(funs))  # the first of the minimal values
    ens = hjw_ensemble(rho, u[best])
    return DecompositionSearchResult(
        upper_bound=float(funs[best]),
        best_ensemble=ens,
        restarts_used=restarts,
        converged=stops[best] != "cap",
        restart_values=tuple(funs.tolist()),
        restart_nfev=tuple(nfev.tolist()),
        restarts_agreeing=int(np.sum(funs <= funs[best] + _AGREE_TOL)),
        restart_stops=tuple(stops),
    )
