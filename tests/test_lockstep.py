"""The lockstep Nelder-Mead behind min_avg_tangle against scipy's, run by run.

Every restart of the batched engine must end exactly where
scipy.optimize.minimize(method="Nelder-Mead", adaptive=True) ends from the same
start: same point, value, evaluation count and success flag, also when the
evaluation budget runs out partway through a step.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from tritangle import Ensemble, density_from_ensemble, ghz, min_avg_tangle, w
from tritangle import roof
from tritangle.measures import ensemble_average_tangle, tangle_from_amps
from tritangle.roof import hjw_ensemble, rank_of
from tritangle.states import eigh_desc

TARGET = np.array([0.5, -1.0, 0.0, 2.0])
DIM = TARGET.size
# starts with zero coordinates take scipy's zdelt path for those vertices
X0 = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, -2.0, 3.0],
        [-0.7, 2.5, 1.1, 0.0],
    ]
)
RIPPLE = np.array([1.0, 2.3, -0.7, 1.9])
XATOL, FATOL = 1e-6, 1e-8


def ripple(x):
    """Quadratic bowl under a fast ripple, for a (k, 4) stack of points: every
    kind of step occurs early, shrinks included, and runs still converge. Each
    row is summed on its own, so no value depends on the rows beside it."""
    return np.sum((x - TARGET) ** 2, axis=-1) + 0.5 * np.sin(40.0 * np.sum(x * RIPPLE, axis=-1))


def terraced(x):
    """Flat terraces: many comparisons are between equal values, which tells
    each of scipy's < and <= tie rules apart."""
    return np.floor(16.0 * np.sum(np.abs(x - TARGET), axis=-1)) / 16.0


def scipy_run(batch_fun, x0, maxfev, xatol=XATOL, fatol=FATOL, log=None):
    def fun(x):
        if log is not None:
            log.append(x.copy())
        return float(batch_fun(x[None])[0])

    return minimize(
        fun,
        x0,
        method="Nelder-Mead",
        options={"xatol": xatol, "fatol": fatol, "maxfev": maxfev, "adaptive": True},
    )


def assert_same(res, x, fun, nfev, success):
    assert np.array_equal(res.x, x)
    assert res.fun == fun
    assert res.nfev == nfev
    assert res.success == success


def budget_step(res, refused):
    """Name the step of scipy's run `res` in which the budget ran out, from the
    first point the budget refused and the simplex the run ended with."""
    sim = res.final_simplex[0]
    if res.nfev < DIM + 1:
        return "initial"
    if any(np.array_equal(refused, v) for v in sim):
        return "shrink"  # the refused vertex was moved but kept its old value
    xbar = np.add.reduce(sim[:-1], 0) / DIM  # the refused point is (1 + c) xbar - c x_worst
    chi, psi = 1 + 2 / DIM, 0.75 - 1 / (2 * DIM)
    steps = (("between steps", 1), ("expansion", chi), ("contraction", psi), ("contraction", -psi))
    for name, c in steps:
        if np.allclose(refused, (1 + c) * xbar - c * sim[-1], rtol=0.0, atol=1e-12):
            return name
    return "other"


@pytest.mark.parametrize("fun", [ripple, terraced])
def test_budget_sweep_matches_scipy(fun):
    # one long scipy run per start logs every point; a run with budget maxfev
    # follows the same path and is refused at point number maxfev
    logs = []
    for x0 in X0:
        logs.append([])
        scipy_run(fun, x0, 10_000, log=logs[-1])
    hit = set()
    for maxfev in range(1, 100):
        xs, funs, nfev, success = roof._nelder_mead_lockstep(fun, X0, XATOL, FATOL, maxfev)
        for k, x0 in enumerate(X0):
            res = scipy_run(fun, x0, maxfev)
            assert_same(res, xs[k], funs[k], nfev[k], success[k])
            if len(logs[k]) > maxfev:
                hit.add(budget_step(res, logs[k][maxfev]))
    if fun is ripple:
        assert hit == {"initial", "between steps", "expansion", "contraction", "shrink"}


@pytest.mark.parametrize("fun", [ripple, terraced])
def test_long_runs_match_scipy(fun):
    xs, funs, nfev, success = roof._nelder_mead_lockstep(fun, X0, XATOL, FATOL, 3000)
    for k, x0 in enumerate(X0):
        assert_same(scipy_run(fun, x0, 3000), xs[k], funs[k], nfev[k], success[k])
    assert any(success)


def test_restarts_are_independent():
    x0s = np.vstack([X0, X0[0] + 0.5])
    four = roof._nelder_mead_lockstep(ripple, x0s, XATOL, FATOL, 400)
    two = roof._nelder_mead_lockstep(ripple, x0s[:2], XATOL, FATOL, 400)
    for got, want in zip(two, four):
        assert all(np.array_equal(g, w) for g, w in zip(got, want[:2]))


def _loop_objective(basis, m, r):
    """The search objective for one point at a time, as a loop of scipy runs calls it."""

    def objective(x):
        mat = x[: m * r].reshape(m, r) + 1j * x[m * r :].reshape(m, r)
        u, _ = np.linalg.qr(mat)
        tilde = u @ basis
        ws = np.sum(np.abs(tilde) ** 2, axis=1)
        raw = tangle_from_amps(tilde)
        mask = ws > 1e-14
        return float(np.sum(raw[mask] / ws[mask]))

    return objective


def test_min_avg_tangle_equals_scipy_restart_loop():
    # the search as a loop of scipy runs, kept here as the reference
    target = density_from_ensemble(Ensemble([(0.7, ghz()), (0.3, w())]))
    m, seed, restarts = 3, 11, 2
    r = rank_of(target)
    vals, vecs = eigh_desc(target.mat)
    basis = (vecs[:, :r] * np.sqrt(np.maximum(vals[:r], 0.0))).T
    objective = _loop_objective(basis, m, r)
    runs = []
    for k in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, k)))
        runs.append(
            minimize(
                objective,
                rng.standard_normal(2 * m * r),
                method="Nelder-Mead",
                options={"xatol": 1e-7, "fatol": 1e-12, "maxfev": 5000, "adaptive": True},
            )
        )
    best = min(runs, key=lambda res: res.fun)
    mat = best.x[: m * r].reshape(m, r) + 1j * best.x[m * r :].reshape(m, r)
    ens = hjw_ensemble(target, np.linalg.qr(mat)[0])

    result = min_avg_tangle(target, m=m, restarts=restarts, seed=seed)
    assert result.restart_values == tuple(float(res.fun) for res in runs)
    assert result.restart_nfev == tuple(int(res.nfev) for res in runs)
    assert result.converged == bool(best.success)
    assert result.upper_bound == ensemble_average_tangle(ens)
    assert list(result.best_ensemble.weights) == list(ens.weights)
    for (_, got), (_, want) in zip(result.best_ensemble, ens):
        assert np.array_equal(got.amps, want.amps)
