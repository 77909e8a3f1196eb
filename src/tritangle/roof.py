"""Numerical convex-roof machinery: characteristic-curve sampling, lower convex
envelopes, and an ensemble-decomposition search upper-bounding the mixed-state
three-tangle."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParamsError, EmptyInputError, NotIsometryError
from .family import check_n, z_tangle_closed
from .measures import ensemble_average_tangle, hyperdet_with_gradient, tangle_from_amps
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
_AGREE_TOL = 1e-9
_HALVINGS = 0.5 ** np.arange(4)


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
    phase = np.where(size > 0.0, det / np.where(size > 0.0, size, 1.0), 0.0)
    coef = np.where(kept, 2.0 / ws, 0.0)
    dt = (coef * phase)[..., None] * ddet.conj() - (coef * 2.0 * size / ws)[..., None] * t
    return _tangent(u, 2.0 * dt @ basis.conj().T)


def _conjugate_gradient_lockstep(u, basis):
    """Riemannian conjugate gradient from every isometry of the stack u, all
    restarts stepped together.

    Polak-Ribiere+ directions are transported by projection onto the new
    tangent space; a direction that is not a descent direction is replaced by
    steepest descent. Each step is an Armijo backtracking search that starts
    at twice the restart's last accepted step and halves it; the trial points
    of every restart still searching go in one objective call, and gradients
    are computed only at accepted points. A restart stops when no step shows a
    decrease above the rounding of its value, or when an accepted step lowers
    it by no more than that rounding, and in any case after the iteration cap.
    Every restart's arithmetic is its own, so it ends as it would alone.
    Returns (u, values, nfev, converged) in restart order.
    """
    n_restarts = u.shape[0]
    f = _average_tangle(u, basis)
    g = _riemannian_gradient(u, basis)
    d = -g
    gg = _inner(g, g)
    step = np.full(n_restarts, 0.5)  # so that the first trial step is 1
    nfev = np.ones(n_restarts, dtype=int)
    converged = np.zeros(n_restarts, dtype=bool)
    live = np.arange(n_restarts)
    for _ in range(_SEARCH_MAXITER):
        slope = _inner(g[live], d[live])
        floor = _EPS * f[live]  # a decrease at or below this is rounding
        alpha = 2.0 * step[live]
        accepted = np.zeros(live.size, dtype=bool)
        stalled = np.zeros(live.size, dtype=bool)
        trying = np.flatnonzero(-alpha * slope > floor)
        levels = 1  # the first round tries each restart's own step alone
        while trying.size:
            ids = live[trying]
            # the next `levels` halvings of each pending step, tried at once; the
            # first one that passes is the one a halving loop would have taken
            a = alpha[trying, None] * _HALVINGS[:levels]
            slopes = a * slope[trying, None]
            trial = _retract(u[ids, None] + a[..., None, None] * d[ids, None])
            f_trial = _average_tangle(trial, basis)
            nfev[ids] += levels
            ok = (f_trial <= f[ids, None] + _ARMIJO * slopes) & (-slopes > floor[trying, None])
            hit = ok.any(axis=1)
            first = ok.argmax(axis=1)[hit]
            won, ids = trying[hit], ids[hit]
            accepted[won] = True
            stalled[won] = f[ids] - f_trial[hit, first] <= floor[won]
            u[ids], f[ids], step[ids] = trial[hit, first], f_trial[hit, first], a[hit, first]
            trying = trying[~hit]
            alpha[trying] *= 0.5**levels
            trying = trying[-alpha[trying] * slope[trying] > floor[trying]]
            levels = _HALVINGS.size

        moved = live[accepted]
        g_new = _riemannian_gradient(u[moved], basis)
        gg_new = _inner(g_new, g_new)
        # g_new is tangent at the new point, so transporting the old gradient
        # first would not change its inner product with g_new
        beta = np.maximum(0.0, (gg_new - _inner(g_new, g[moved])) / gg[moved])
        d_new = beta[:, None, None] * _tangent(u[moved], d[moved]) - g_new
        uphill = _inner(g_new, d_new) >= 0.0
        d_new[uphill] = -g_new[uphill]
        g[moved], d[moved], gg[moved] = g_new, d_new, gg_new

        done = ~accepted | stalled
        converged[live[done]] = True
        live = live[~done]
        if not live.size:
            break
    return u, f, nfev, converged


def min_avg_tangle(rho, m, restarts=20, seed=0):
    """Upper-bound the convex-roof tangle by searching the mixing isometry.

    Deterministic for fixed (rho, m, restarts, seed); the best restart wins.
    All restarts run together, each exactly as it would alone: a Riemannian
    conjugate gradient on the m x r isometries with the analytic gradient of
    the average tangle.
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
    u, funs, nfev, converged = _conjugate_gradient_lockstep(_retract(mats), basis)
    best = int(np.argmin(funs))  # the first of the minimal values
    ens = hjw_ensemble(rho, u[best])
    return DecompositionSearchResult(
        upper_bound=ensemble_average_tangle(ens),
        best_ensemble=ens,
        restarts_used=restarts,
        converged=bool(converged[best]),
        restart_values=tuple(funs.tolist()),
        restart_nfev=tuple(nfev.tolist()),
        restarts_agreeing=int(np.sum(funs <= funs[best] + _AGREE_TOL)),
    )
