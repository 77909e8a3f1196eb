"""Numerical convex-roof machinery: characteristic-curve sampling, lower convex
envelopes, and an ensemble-decomposition search upper-bounding the mixed-state
three-tangle."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParamsError, EmptyInputError, NotIsometryError
from .family import check_n, z_tangle_closed
from .measures import hyperdet_with_gradient, tangle_from_amps
from .states import DensityMatrix, Ensemble, eigh_desc, pure_from_amplitudes

RANK_TOL = 1e-12
ISOMETRY_TOL = 1e-10

_TWO_PI = 2.0 * math.pi
_PHASE_XATOL = 1e-8
_PHASE_MAXFEV = 400
_WEIGHT_FLOOR = 1e-14
_SEARCH_MAXITER = 500
_ARMIJO = 1e-4
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # 1/x is finite for x at or above this
_AGREE_TOL = 1e-9
_HALVINGS = 0.5 ** np.arange(4)
_MEMORY = 8  # curvature pairs each restart keeps


@dataclass(frozen=True)
class CharCurve:
    """Pointwise phase-minimum of the Z-state tangle along p, at q = (1-p)/n."""

    n: float
    p: np.ndarray
    tau_min: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray

    def to_csv(self):
        lines = ["p,tau_min,phi1_argmin,phi2_argmin"]
        for pv, tv, f1, f2 in zip(self.p, self.tau_min, self.phi1, self.phi2):
            lines.append(f"{pv:.17g},{tv:.17g},{f1:.17g},{f2:.17g}")
        return "\n".join(lines) + "\n"


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use: characteristic_curve is
    the only caller, so importing the package does not load scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def characteristic_curve(n, p_points=401, phi_points=64):
    """Minimize the closed-form Z tangle over the phase torus at each p.

    Coarse phi grid first, then simplex refinement of the best grid point
    down to 1e-8 in phase.
    """
    n = check_n(n)
    if p_points < 2:
        raise BadParamsError(f"p_points must be >= 2, got {p_points!r}")
    if phi_points < 4:
        raise BadParamsError(f"phi_points must be >= 4, got {phi_points!r}")
    phis = np.linspace(0.0, _TWO_PI, phi_points, endpoint=False)
    f1_grid, f2_grid = np.meshgrid(phis, phis, indexing="ij")
    ps = np.linspace(0.0, 1.0, p_points)
    tau = np.empty(p_points)
    arg1 = np.empty(p_points)
    arg2 = np.empty(p_points)
    for i, p in enumerate(ps):
        q = (1.0 - p) / n
        vals = z_tangle_closed(p, q, f1_grid, f2_grid)
        flat = int(np.argmin(vals))
        x0 = np.array([f1_grid.flat[flat], f2_grid.flat[flat]])

        def objective(x):
            return z_tangle_closed(p, q, x[0], x[1])

        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"xatol": _PHASE_XATOL, "fatol": 1e-14, "maxfev": _PHASE_MAXFEV},
        )
        best = res if res.fun <= vals.flat[flat] else None
        if best is None:
            tau[i] = vals.flat[flat]
            arg1[i], arg2[i] = x0
        else:
            tau[i] = float(res.fun)
            arg1[i], arg2[i] = np.mod(res.x, _TWO_PI)
    return CharCurve(n=n, p=ps, tau_min=tau, phi1=arg1, phi2=arg2)


_COLLINEAR_TOL = 1e-12


@dataclass(frozen=True)
class LowerEnvelope:
    """Greatest convex minorant of sampled points; piecewise linear."""

    x: np.ndarray
    y: np.ndarray

    def __call__(self, xq):
        return np.interp(xq, self.x, self.y)


def lower_convex_envelope(points):
    """Monotone-chain lower hull of (x, y) samples with x strictly increasing."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyInputError("no points given")
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise BadParamsError("need at least two (x, y) points")
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
    if not isinstance(rho, DensityMatrix):
        raise BadParamsError("hjw_ensemble expects a DensityMatrix")
    u = np.asarray(mixing, dtype=complex)
    r = rank_of(rho)
    if u.ndim != 2 or u.shape[0] < r or u.shape[1] != r:
        raise BadParamsError(f"mixing must be m x {r} with m >= {r}, got {u.shape}")
    gram = u.conj().T @ u
    if np.max(np.abs(gram - np.eye(r))) > ISOMETRY_TOL:
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


@dataclass(frozen=True)
class DecompositionSearchResult:
    """Best ensemble found, plus each restart's final value and evaluation count.

    upper_bound is restart_values[best], the search's own value at the first
    restart with the least value, and best_ensemble is that restart's ensemble.
    converged says whether the best restart stopped on its stop test before the
    iteration cap; restart_values and restart_nfev (the isometries each restart
    evaluated) are in restart order; restarts_agreeing counts the restarts whose
    final value lies within 1e-9 of the best.
    """

    upper_bound: float
    best_ensemble: Ensemble
    restarts_used: int
    converged: bool
    restart_values: tuple
    restart_nfev: tuple
    restarts_agreeing: int


def _adjoint(x):
    return x.conj().swapaxes(-1, -2)


def _inner(a, b):
    """Re tr(a^H b) of each pair in two (k, m, r) stacks."""
    return (a.conj() * b).real.sum(axis=(-2, -1))


def _tangent(u, x):
    """x projected onto the tangent space of the isometries at u: x - u herm(u^H x)."""
    uhx = _adjoint(u) @ x
    return x - u @ (0.5 * (uhx + _adjoint(uhx)))


def _retract(mat):
    """Q factor of each matrix of a stack, column signs fixed so that diag(R) > 0."""
    q, r = np.linalg.qr(mat)
    flip = np.diagonal(r, axis1=-2, axis2=-1).real < 0.0
    return np.where(flip[..., None, :], -q, q)


def _members(u, basis):
    """Unnormalized members t = u @ basis, their weights, and which weights count."""
    t = u @ basis
    ws = np.sum(np.abs(t) ** 2, axis=-1)
    kept = ws > _WEIGHT_FLOOR
    return t, np.where(kept, ws, 1.0), kept


def _average_tangle(u, basis):
    """F(u) = sum_j 4|D(t_j)| / w_j for a stack of isometries; a member at or
    below the weight floor adds 0."""
    t, ws, kept = _members(u, basis)
    return np.sum(np.where(kept, tangle_from_amps(t) / ws, 0.0), axis=-1)


def _riemannian_gradient(u, basis):
    """Gradient of F on the isometries, in the metric Re tr(a^H b).

    With Wirtinger derivatives, dF_j/d conj(t) = 4 [D conj(dD/dt) / (2|D| w) -
    |D| t / w^2] (a phase of 0 where D = 0); the Euclidean gradient is
    2 (dF/d conj(t)) @ basis^H, projected onto the tangent space at u.
    """
    t, ws, kept = _members(u, basis)
    det, ddet = hyperdet_with_gradient(t)
    size = np.abs(det)
    # D / |D| by real divisions: 1/|D| overflows where |D| is subnormal, and
    # D = 0 exactly where |D| = 0
    scale = np.where(size > 0.0, size, 1.0)
    phase = det.real / scale + 1j * (det.imag / scale)
    coef = np.where(kept, 2.0 / ws, 0.0)
    dt = (coef * phase)[..., None] * ddet.conj() - (coef * 2.0 * size / ws)[..., None] * t
    return _tangent(u, 2.0 * dt @ basis.conj().T)


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
    # one contiguous (k, m, r) stack per slot runs faster than strided views
    s, y = pairs.transpose(2, 3, 0, 1, 4).copy()
    rho = rho.T
    q = g.copy()
    alphas = np.empty(rho.shape)
    for i in reversed(range(rho.shape[0])):
        alphas[i] = rho[i] * _inner(s[i], q)
        q -= alphas[i, :, None, None] * y[i]
    q *= gamma[:, None, None]
    for i in range(rho.shape[0]):
        q += (alphas[i] - rho[i] * _inner(y[i], q))[:, None, None] * s[i]
    return -q


def _lbfgs_lockstep(u, basis):
    """Riemannian L-BFGS from every isometry of the stack u, all restarts
    stepped together.

    Each restart keeps its last _MEMORY curvature pairs (s, y), moved to each
    new point by projection onto its tangent space. A pair is stored only when
    <s, y> and <y, y> are at least the smallest normal number, so that its
    1/<s, y> and the initial inverse-Hessian scale <s, y>/<y, y> are finite;
    that scale comes from the newest stored pair. A direction that is not a
    descent direction is replaced by steepest descent. Each step is an Armijo
    backtracking search from a trial step of 1; the trial points of every
    restart still searching go in one objective call. A restart stops when no
    step shows a decrease above the rounding of its value, or when an accepted
    step lowers it by no more than that rounding, and in any case after the
    iteration cap; gradients are computed only for restarts that go on. Every
    restart's arithmetic is its own, so it ends as it would alone.
    Returns (u, values, nfev, converged) in restart order.
    """
    n_restarts, m, r = u.shape
    f = _average_tangle(u, basis)
    g = _riemannian_gradient(u, basis)
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
        levels = 1  # the first round tries the unit step alone
        while trying.size:
            # the next `levels` halvings of each pending step, tried at once; the
            # first one that passes is the one a halving loop would have taken
            a = alpha[trying, None] * _HALVINGS[:levels]
            slopes = a * slope[trying, None]
            trial = _retract(u[trying, None] + a[..., None, None] * d[trying, None])
            f_trial = _average_tangle(trial, basis)
            nfev[rows[trying]] += levels
            ok = (f_trial <= f[trying, None] + _ARMIJO * slopes) & (-slopes > floor[trying, None])
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)[hit]
            won = trying[hit]
            accepted[won] = True
            stalled[won] = f[won] - f_trial[hit, first] <= floor[won]
            u[won], f[won], step[won] = trial[hit, first], f_trial[hit, first], a[hit, first]
            trying = trying[~hit]
            alpha[trying] *= 0.5**levels
            trying = trying[-alpha[trying] * slope[trying] > floor[trying]]
            levels = _HALVINGS.size
        u_end[rows], f_end[rows] = u, f

        going = accepted & ~stalled
        if not going.all():
            converged[rows[~going]] = True
            rows, u, f, g, d, step, pairs, rho, gamma = (
                x[going] for x in (rows, u, f, g, d, step, pairs, rho, gamma)
            )
            if not rows.size:
                break
        g_new = _riemannian_gradient(u, basis)
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
    """
    if not isinstance(rho, DensityMatrix) or rho.dim != 8:
        raise BadParamsError("min_avg_tangle expects an 8x8 DensityMatrix")
    r = rank_of(rho)
    if r > 4:
        raise BadParamsError(f"rank {r} exceeds the supported maximum 4")
    if not r <= m <= 8:
        raise BadParamsError(f"m must lie in [{r}, 8], got {m!r}")
    if restarts < 1:
        raise BadParamsError(f"restarts must be >= 1, got {restarts!r}")
    vals, vecs = eigh_desc(rho.mat)
    basis = (vecs[:, :r] * np.sqrt(np.maximum(vals[:r], 0.0))).T  # r x 8
    seeds = [np.random.SeedSequence(entropy=(seed, k)) for k in range(restarts)]
    x0s = np.array([np.random.default_rng(s).standard_normal(2 * m * r) for s in seeds])
    mr = m * r
    mats = x0s[:, :mr].reshape(-1, m, r) + 1j * x0s[:, mr:].reshape(-1, m, r)
    u, funs, nfev, converged = _lbfgs_lockstep(_retract(mats), basis)
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
