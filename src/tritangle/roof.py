"""Numerical convex-roof machinery: characteristic-curve sampling, lower convex
envelopes, and an ensemble-decomposition search upper-bounding the mixed-state
three-tangle."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParamsError, EmptyInputError, NotIsometryError
from .family import check_n, z_tangle_closed
from .measures import ensemble_average_tangle, tangle_from_amps
from .states import DensityMatrix, Ensemble, eigh_desc, pure_from_amplitudes

RANK_TOL = 1e-12
ISOMETRY_TOL = 1e-10

_TWO_PI = 2.0 * math.pi
_PHASE_XATOL = 1e-8
_PHASE_MAXFEV = 400
_SEARCH_XATOL = 1e-7
_SEARCH_MAXFEV = 5000
_WEIGHT_FLOOR = 1e-14


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

    converged is the best restart's stop-test flag (False when it ran out of
    evaluations); restart_values and restart_nfev are in restart order.
    """

    upper_bound: float
    best_ensemble: Ensemble
    restarts_used: int
    converged: bool
    restart_values: tuple
    restart_nfev: tuple


def _batched_objective(basis, m, r):
    """Objective over the 2mr real parameters of the pre-QR mixing matrix.

    Maps a (k, 2mr) stack of parameter vectors to k average tangles. basis is
    r x 8 with rows sqrt(l_i) <v_i|; member j is row j of u @ basis.
    """
    mr = m * r

    def objective(x):
        k = x.shape[0]
        mat = x[:, :mr].reshape(k, m, r) + 1j * x[:, mr:].reshape(k, m, r)
        u, _ = np.linalg.qr(mat)
        tilde = u @ basis
        ws = np.sum(np.abs(tilde) ** 2, axis=-1)
        raw = tangle_from_amps(tilde)
        mask = ws > _WEIGHT_FLOOR
        if mask.all():
            return np.sum(raw / ws, axis=-1)
        # a row with a member at or below the weight floor sums its other members
        # alone: a 0 in that member's place could change numpy's summation order
        out = np.empty(k)
        for i in range(k):
            keep = mask[i]
            out[i] = np.sum(raw[i][keep] / ws[i][keep])
        return out

    return objective


def _nelder_mead_lockstep(fun, x0s, xatol, fatol, maxfev):
    """Adaptive Nelder-Mead from every row of x0s, all restarts stepped together.

    Each restart follows the arithmetic of
    scipy.optimize.minimize(method="Nelder-Mead", adaptive=True) with maxfev set,
    step for step, so it ends at the same point, value, evaluation count and
    success flag as a scipy run from its own x0 (scipy 1.17). fun maps a (k, N)
    stack of points to k values; each step evaluates the trial points of every
    live restart in one call, and the points of any shrinks in one more. Only
    the evaluations scipy would make count towards nfev. Returns lists
    (x, fun, nfev, success) in row order.
    """
    n_restarts, dim = x0s.shape
    # dimension-adaptive coefficients; plain Nelder-Mead stalls in ~30 dims
    chi, psi, sigma = 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    # (1 + c) xbar - c x_worst is, for these c, exactly scipy's reflection,
    # expansion, outside contraction and inside contraction (rho = 1)
    coefs = np.array([1.0, chi, psi, -psi])[:, None]
    lead = 1 + coefs
    last = dim  # index of the worst vertex

    # sim[v, row] is vertex v of the simplex of the restart in that row:
    # vertex-major, so the centroid sums whole (rows, N) planes
    diag = np.arange(dim)
    sim = np.repeat(x0s[None], dim + 1, axis=0)
    sim[diag + 1, :, diag] = np.where(x0s != 0, (1 + 0.05) * x0s, 0.00025).T
    fsim = np.full((n_restarts, dim + 1), np.inf)
    first = min(dim + 1, maxfev)
    for v in range(first):
        fsim[:, v] = fun(sim[v])
    nfev = [first] * n_restarts
    rows = np.arange(n_restarts)
    # scipy sorts the initial simplex twice; an unstable sort may reorder ties
    for _ in range(2):
        order = np.argsort(fsim, axis=1)
        sim, fsim = sim[order.T, rows], fsim[rows[:, None], order]

    result_x = [None] * n_restarts
    result_f = [None] * n_restarts
    success = [False] * n_restarts
    ids = list(range(n_restarts))  # restart of each row still searching

    while True:
        stop = [nfev[k] >= maxfev for k in ids]
        # scipy's stop test; a row of fsim is sorted, so its largest
        # |fsim[0] - fsim[j]| is fsim[-1] - fsim[0]
        flat = (fsim[:, -1] - fsim[:, 0] <= fatol).tolist()
        if any(flat):
            test = [row for row, f in enumerate(flat) if f and not stop[row]]
            near = np.abs(sim[1:, test] - sim[0, test]).max(axis=(0, 2)) <= xatol
            for row, hit in zip(test, near.tolist()):
                if hit:
                    stop[row] = success[ids[row]] = True
        if any(stop):
            for row, k in enumerate(ids):
                if stop[row]:
                    result_x[k] = sim[0, row].copy()
                    result_f[k] = float(np.min(fsim[row]))
            keep = [row for row, done in enumerate(stop) if not done]
            ids = [ids[row] for row in keep]
            if not ids:
                break
            sim, fsim = sim[:, keep], fsim[keep]
            rows = np.arange(len(ids))
        live = len(ids)

        xbar = np.add.reduce(sim[:-1], 0) / dim
        trial = lead * xbar[:, None] - coefs * sim[last][:, None]  # (live, 4, N)
        # the reflection and all three possible second points in one call: a
        # call's fixed cost outweighs its cost per point, so evaluating the
        # second points a step turns out not to need is cheaper than a second call
        ftrial = fun(trial.reshape(-1, dim)).reshape(live, 4).tolist()

        # branch on Python floats, as scipy does on scalars
        ends = fsim[:, [0, -2, -1]].tolist()
        takes = []  # (row, col): the worst vertex becomes trial[row, col]
        seconds = []  # (row, col): the second point that row's step needs
        for row, (f0, f_next, f_worst) in enumerate(ends):
            k = ids[row]
            nfev[k] += 1
            fr = ftrial[row][0]
            if fr < f0:
                col = 1
            elif fr < f_next:
                takes.append((row, 0))
                continue
            elif fr < f_worst:
                col = 2
            else:
                col = 3
            # with the budget spent scipy stops before the second point and
            # leaves the simplex as it was
            if nfev[k] < maxfev:
                seconds.append((row, col))

        shrink = []
        for row, col in seconds:
            nfev[ids[row]] += 1
            fr, f2 = ftrial[row][0], ftrial[row][col]
            if col == 1:
                takes.append((row, 1 if f2 < fr else 0))
            elif f2 <= fr if col == 2 else f2 < ends[row][2]:
                takes.append((row, col))
            else:
                shrink.append(row)
        for row, col in takes:
            sim[last, row] = trial[row, col]
            fsim[row, last] = ftrial[row][col]

        if shrink:
            base = sim[0, shrink]
            moved = base + sigma * (sim[1:, shrink] - base)
            fmoved = fun(moved.reshape(-1, dim)).reshape(dim, len(shrink))
            for j, row in enumerate(shrink):
                k = ids[row]
                count = min(dim, maxfev - nfev[k])
                nfev[k] += count
                # scipy moves the first vertex it has no budget to evaluate, and
                # that vertex keeps its old value
                moved_to = min(dim, count + 1)
                sim[1 : moved_to + 1, row] = moved[:moved_to, j]
                fsim[row, 1 : count + 1] = fmoved[:count, j]

        order = np.argsort(fsim, axis=1)
        sim, fsim = sim[order.T, rows], fsim[rows[:, None], order]

    return result_x, result_f, nfev, success


def min_avg_tangle(rho, m, restarts=20, seed=0):
    """Upper-bound the convex-roof tangle by searching the mixing isometry.

    Deterministic for fixed (rho, m, restarts, seed); the best restart wins.
    All restarts run together, each exactly as a separate adaptive Nelder-Mead
    run would.
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
    xs, funs, nfev, success = _nelder_mead_lockstep(
        _batched_objective(basis, m, r), x0s, _SEARCH_XATOL, 1e-12, _SEARCH_MAXFEV
    )
    best = min(range(restarts), key=funs.__getitem__)  # first of the minimal values
    x = xs[best]
    mat = x[: m * r].reshape(m, r) + 1j * x[m * r :].reshape(m, r)
    u, _ = np.linalg.qr(mat)
    ens = hjw_ensemble(rho, u)
    return DecompositionSearchResult(
        upper_bound=ensemble_average_tangle(ens),
        best_ensemble=ens,
        restarts_used=restarts,
        converged=success[best],
        restart_values=tuple(funs),
        restart_nfev=tuple(nfev),
    )
