"""The convex-roof search: the hyperdeterminant restricted to the range of rho
and its gradient, the Riemannian pieces on the isometries, and properties of
min_avg_tangle."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tritangle import (
    DensityMatrix,
    density_from_ensemble,
    ensemble_average_tangle,
    ghz,
    min_avg_tangle,
    mixed_three_tangle,
    pi_state,
    rho,
    tangle_from_amps,
    thresholds,
    trace_distance,
    w,
    w_tilde,
)
from tritangle import roof
from expanded_hyperdet import hyperdet as _hyperdet


def random_isometries(rng, count, m, r):
    mats = rng.standard_normal((count, m, r)) + 1j * rng.standard_normal((count, m, r))
    return roof._retract(mats)


def search_basis(target):
    # the r x 8 rows sqrt(l_i) <v_i| that min_avg_tangle searches over, and the l_i
    vals, vecs = np.linalg.eigh(target.mat)
    keep = vals > 1e-12
    return (vecs[:, keep] * np.sqrt(vals[keep])).T, vals[keep]


def search_form(target):
    # the Cayley forms and the member weights l_i that the search runs on
    basis, lam = search_basis(target)
    return roof._cayley_forms(basis), lam


def random_mixed_state(seed, rank):
    # a seeded mixture of rank random pure states, rank <= 8
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((rank, 8)) + 1j * rng.standard_normal((rank, 8))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    weights = rng.uniform(0.1, 1.0, rank)
    mat = np.einsum("k,ka,kb->ab", weights / weights.sum(), amps, amps.conj())
    return DensityMatrix(mat)


def family_point(region, n, u):
    # rho at relative position u inside a region's threshold interval
    th = thresholds(n)
    lo, hi = {"ZERO": (0.0, th.p0), "ALPHA_I": (th.p0, th.p1), "ALPHA_II": (th.p1, 1.0)}[region]
    p = lo + u * (hi - lo)
    return rho(p, (1.0 - p) / n)


KERNEL_STATES = {
    "zero_n2": family_point("ZERO", 2.0, 0.6),
    "alpha_i_n10": family_point("ALPHA_I", 10.0, 0.4),
    "alpha_ii_n3": family_point("ALPHA_II", 3.0, 0.7),
    "pi_p0.5": pi_state(0.5, math.inf),
    "ghz": ghz().density(),
    "rank4": random_mixed_state(67, 4),
}


def kernel_bases():
    # random r x 8 bases of rank 1 to 4, then the search bases of KERNEL_STATES
    rng = np.random.default_rng(68)
    for r in range(1, 5):
        yield f"random_r{r}", rng.standard_normal((r, 8)) + 1j * rng.standard_normal((r, 8))
    for name, target in KERNEL_STATES.items():
        yield name, search_basis(target)[0]


KERNEL_BASES = dict(kernel_bases())


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_restricted_hyperdet_is_exact_on_integers(r):
    # at small integers every sum is an exact integer, so both routes agree exactly
    rng = np.random.default_rng(69 + r)
    for _ in range(20):
        basis = rng.integers(-3, 4, (r, 8)) + 1j * rng.integers(-3, 4, (r, 8))
        x = rng.integers(-3, 4, (100, r)) + 1j * rng.integers(-3, 4, (100, r))
        forms = roof._cayley_forms(basis)
        expect = _hyperdet(*(x @ basis).T)
        assert np.array_equal(roof.restricted_hyperdet(x, forms), expect)
        assert np.array_equal(roof._restricted_partials(x, forms)[0], expect)


@pytest.mark.parametrize("name", list(KERNEL_BASES))
def test_restricted_hyperdet_matches_amplitude_route(name):
    basis = KERNEL_BASES[name]
    r = basis.shape[0]
    rng = np.random.default_rng(70)
    x = rng.standard_normal((3, 100, r)) + 1j * rng.standard_normal((3, 100, r))
    forms = roof._cayley_forms(basis)
    assert forms.shape == (r, 3 * r)
    got = roof.restricted_hyperdet(x, forms)
    t = x @ basis
    expect = _hyperdet(*np.moveaxis(t, -1, 0))
    # |D| is at most |t|^4 / 4: the bound is relative to the member's scale
    scale = np.sum(np.abs(t) ** 2, axis=-1) ** 2
    assert got.shape == (3, 100)
    assert np.max(np.abs(got - expect) / scale) <= 1e-14
    det, _ = roof._restricted_partials(x, forms)
    assert np.max(np.abs(det - expect) / scale) <= 1e-14


@pytest.mark.parametrize("k", [1, 2])
def test_hyperdet_on_the_family_span_is_z3_invariant(k):
    # x = (a, b, c) over (GHZ, W, W~): a^4, a^2 bc, b^3, c^3 and b^2 c^2 are
    # unchanged by b -> omega^k b, c -> omega^2k c with omega = e^{2 pi i / 3}
    basis = np.array([ghz().amps, w().amps, w_tilde().amps])
    forms = roof._cayley_forms(basis)
    rng = np.random.default_rng(74)
    x = rng.standard_normal((2000, 3)) + 1j * rng.standard_normal((2000, 3))
    turned = x * np.exp(2j * np.pi * k * np.arange(3) / 3.0)
    scale = np.sum(np.abs(x) ** 2, axis=-1) ** 2
    det = roof.restricted_hyperdet(x, forms)
    assert np.max(np.abs(roof.restricted_hyperdet(turned, forms) - det) / scale) <= 1e-14
    tau = tangle_from_amps(x @ basis)
    assert np.max(np.abs(tangle_from_amps(turned @ basis) - tau) / scale) <= 1e-14


@pytest.mark.parametrize("name", list(KERNEL_STATES))
def test_average_tangle_matches_amplitude_route(name):
    basis, lam = search_basis(KERNEL_STATES[name])
    forms = roof._cayley_forms(basis)
    r = lam.size
    rng = np.random.default_rng(71)
    for m in sorted({r, 5, 8}):
        u = random_isometries(rng, 100, m, r)
        t = u @ basis
        ws = np.sum(np.abs(t) ** 2, axis=-1)
        kept = ws > 1e-14
        amplitude_route = np.sum(np.where(kept, tangle_from_amps(t) / np.where(kept, ws, 1.0), 0.0), axis=-1)
        assert np.max(np.abs(roof._average_tangle(u, forms, lam) - amplitude_route)) <= 2e-15


def test_restricted_partials_match_central_differences():
    rng = np.random.default_rng(62)
    h = 1e-5
    for basis in KERNEL_BASES.values():
        r = basis.shape[0]
        forms = roof._cayley_forms(basis)
        x = rng.standard_normal((400, r)) + 1j * rng.standard_normal((400, r))
        _, grad = roof._restricted_partials(x, forms)
        scale = np.linalg.norm(grad, axis=-1)

        def central(step):
            ahead = roof.restricted_hyperdet(x + step, forms)
            return (ahead - roof.restricted_hyperdet(x - step, forms)) / (2.0 * h)

        for k in range(r):
            step = np.zeros(r)
            step[k] = h
            # D is holomorphic: a step h in x_k moves it by h dD/dx_k, a step ih by ih dD/dx_k
            assert np.max(np.abs(central(step) - grad[:, k]) / scale) <= 1e-7
            assert np.max(np.abs(central(1j * step) - 1j * grad[:, k]) / scale) <= 1e-7


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_gram_schmidt_retraction_equals_sign_fixed_qr(r):
    rng = np.random.default_rng(72 + r)
    for m in range(r, 9):
        u = random_isometries(rng, 10, m, r)
        d = roof._tangent(u, rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
        for alpha in (1e-8, 1e-4, 1.0, 1e2, 1e4):
            mat = u + alpha * d
            q, upper = np.linalg.qr(mat)
            flip = np.diagonal(upper, axis1=-2, axis2=-1).real < 0.0
            reference = np.where(flip[..., None, :], -q, q)
            assert np.max(np.abs(roof._retract(mat) - reference)) <= 1e-13


@pytest.mark.parametrize("p, n, m", [(0.85, 2.0, 5), (0.95, 3.0, 4), (0.4, 10.0, 6), (0.6, 2.5, 3)])
def test_riemannian_gradient_matches_directional_derivative(p, n, m):
    form = search_form(rho(p, (1.0 - p) / n))
    r = form[1].size
    rng = np.random.default_rng(63)
    u = random_isometries(rng, 8, m, r)
    grad = roof._riemannian_gradient(u, *form)
    xi = roof._tangent(u, rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
    h = 1e-5
    ahead = roof._average_tangle(roof._retract(u + h * xi), *form)
    behind = roof._average_tangle(roof._retract(u - h * xi), *form)
    slope = roof._inner(grad, xi)
    assert np.max(np.abs((ahead - behind) / (2.0 * h) - slope)) <= 1e-6


def test_gradient_is_tangent_and_retractions_are_isometries():
    form = search_form(rho(0.9, 0.05))
    rng = np.random.default_rng(64)
    for m in (3, 5, 8):
        u = random_isometries(rng, 20, m, 3)
        eye = np.eye(3)
        assert np.max(np.abs(roof._adjoint(u) @ u - eye)) <= 1e-12
        grad = roof._riemannian_gradient(u, *form)
        uhg = roof._adjoint(u) @ grad
        assert np.max(np.abs(uhg + roof._adjoint(uhg))) <= 1e-12
        for alpha in (1e-8, 1e-3, 1.0, 30.0):
            moved = roof._retract(u - alpha * grad)
            assert np.max(np.abs(roof._adjoint(moved) @ moved - eye)) <= 1e-12
            # the sign fix: R = Q^H (u - alpha grad) has a positive diagonal
            diag = np.diagonal(roof._adjoint(moved) @ (u - alpha * grad), axis1=-2, axis2=-1)
            assert np.all(diag.real > 0.0)


def test_compact_direction_matches_dense_bfgs_update():
    # reference: H = V^T H V + rho s s^T with V = I - rho y s^T and rho = 1/<s, y>,
    # from H = gamma I, oldest stored pair first, in the real coordinates where
    # <a, b> = Re tr(a^H b); gamma = <s, y>/<y, y> of the newest stored pair
    rng = np.random.default_rng(66)
    m, r, memory = 5, 3, roof._MEMORY
    size = 2 * m * r
    steps = memory + 3
    # restart 0 stores every pair, more than _MEMORY, so its oldest drop out; restart 1 stores
    # its first 5 and then skips, so its window keeps empty slots; restart 2
    # skips one pair, at step 2, beside restarts that store theirs
    stored = np.ones((3, steps), dtype=bool)
    stored[1, 5:] = False
    stored[2, 2] = False
    # pairs of a quadratic with a positive definite Hessian, so <s, y> > 0
    root = rng.standard_normal((3, size, size)) / np.sqrt(size)
    hessians = np.eye(size) + root @ root.swapaxes(1, 2)
    s = rng.standard_normal((steps, 3, size))
    y = np.einsum("kab,tkb->tka", hessians, s)
    y[~stored.T] = -s[~stored.T]  # <s, y> < 0: skipped
    g = rng.standard_normal((3, m, r)) + 1j * rng.standard_normal((3, m, r))

    def direction_after(rows):
        state = roof._empty_memory(len(rows), size)
        for t in range(steps):
            roof._store(state, s[t, rows], y[t, rows])
        return roof._direction(g[rows], state)

    together = direction_after([0, 1, 2])
    for j in range(3):
        # each restart's direction is the one it gets alone
        assert np.array_equal(together[j], direction_after([j])[0])
        kept = np.flatnonzero(stored[j])[-memory:]
        s_new, y_new = s[kept[-1], j], y[kept[-1], j]
        h = np.dot(s_new, y_new) / np.dot(y_new, y_new) * np.eye(size)
        for t in kept:
            s_i, y_i = s[t, j], y[t, j]
            rho_i = 1.0 / np.dot(s_i, y_i)
            v = np.eye(size) - rho_i * np.outer(y_i, s_i)
            h = v.T @ h @ v + rho_i * np.outer(s_i, s_i)
        # the search's flat rows hold the real and imaginary part of each entry in turn
        hg = h @ g[j].view(float).ravel()
        assert np.max(np.abs(together[j].view(float).ravel() + hg)) <= 1e-12 * np.max(np.abs(hg))


@pytest.mark.parametrize(
    "n, u, seed",
    [
        # recorded inputs on which a gradient-free search missed the 1e-4 gate:
        # p = 0.7 p0(10) with search seed 2, and the ZERO op oracle seed 1675533867 drew
        (10.0, 0.7, 2),
        (2.0, 0.4804405486693628, 894610404),
    ],
    ids=["n10", "n2"],
)
def test_zero_region_gate_met(n, u, seed):
    p = u * thresholds(n).p0
    result = min_avg_tangle(rho(p, (1.0 - p) / n), m=5, restarts=20, seed=seed)
    assert result.upper_bound <= 1e-4


def alpha_ii_point(n, u):
    # the state at relative position u inside the ALPHA_II interval [p1, 1], and its tangle
    p1 = thresholds(n).p1
    p = p1 + u * (1.0 - p1)
    return rho(p, (1.0 - p) / n), mixed_three_tangle(p, n).value


@pytest.mark.parametrize(
    "target, exact, m, seed",
    [
        # minima that restarts approach by decreases just above rounding
        (*alpha_ii_point(3.0, 0.977), 5, 1),
        (pi_state(0.5, math.inf), 0.0, 4, 0),
    ],
    ids=["alpha_ii_n3", "pi_p0.5"],
)
def test_searches_on_kinked_landscapes_converge(target, exact, m, seed):
    result = min_avg_tangle(target, m=m, restarts=20, seed=seed)
    assert result.converged
    # criterion 9's tolerances
    assert exact - 1e-9 <= result.upper_bound <= exact + 0.02


@pytest.mark.parametrize(
    "target",
    [rho(0.88, 0.06), rho(0.3, 0.35), rho(0.97, 0.01), pi_state(0.1, math.inf)],
    ids=["alpha_i", "zero", "alpha_ii", "pi"],
)
def test_upper_bound_is_the_best_restart_value(target):
    result = min_avg_tangle(target, m=5, restarts=6, seed=13)
    assert result.upper_bound == min(result.restart_values)
    assert abs(ensemble_average_tangle(result.best_ensemble) - result.upper_bound) <= 1e-15


RANDOM_SEARCHES = [(r, m) for r in (2, 3, 4) for m in range(r, 9)]
# this one stops at the iteration cap, at 0.0263: in its best ensemble three
# members' tangles are near 0 (1.9e-11, 1.4e-7, 1.9e-11), on the kink of |D|
# where L-BFGS slows (ROADMAP item 9); (3, 5) and (3, 8) stopped there too with
# 8 pairs and a cap of 500 iterations
AT_THE_CAP = {(3, 6)}


@functools.cache
def random_search(r, m):
    # a state off the family and the pi states, its own seed for each (r, m)
    target = random_mixed_state(100 + 10 * r + m, r)
    return target, min_avg_tangle(target, m=m, restarts=6, seed=m)


@pytest.mark.parametrize("r, m", RANDOM_SEARCHES)
def test_search_on_random_states(r, m):
    target, result = random_search(r, m)
    assert roof.rank_of(target) == r
    assert result.upper_bound == min(result.restart_values)
    assert abs(ensemble_average_tangle(result.best_ensemble) - result.upper_bound) <= 1e-15
    assert trace_distance(density_from_ensemble(result.best_ensemble), target) <= 1e-12


@pytest.mark.parametrize(
    "r, m",
    [
        pytest.param(*rm, marks=pytest.mark.xfail(strict=True, reason="stops at the iteration cap"))
        if rm in AT_THE_CAP
        else rm
        for rm in RANDOM_SEARCHES
    ],
)
def test_search_on_random_states_converges(r, m):
    assert random_search(r, m)[1].converged


def test_restarts_are_independent():
    target = rho(0.8, 0.1)
    two = min_avg_tangle(target, m=5, restarts=2, seed=11)
    four = min_avg_tangle(target, m=5, restarts=4, seed=11)
    assert two.restart_values == four.restart_values[:2]
    assert two.restart_nfev == four.restart_nfev[:2]


LOCKSTEP_CASES = [
    (rho(0.88, 0.06), 5),
    (rho(0.3, 0.35), 5),
    (rho(0.97, 0.01), 5),
    (random_mixed_state(136, 3), 6),
    (random_mixed_state(144, 4), 4),
]


def test_each_restart_ends_as_it_would_alone(monkeypatch):
    # every restart of a stack, compared with the same isometry searched alone:
    # a row mixed up when stopped restarts are dropped, or written to the wrong
    # place when one stops, shows here
    stops = set()
    for cap in (roof._SEARCH_MAXITER, 3):
        monkeypatch.setattr(roof, "_SEARCH_MAXITER", cap)
        for seed, (target, m) in enumerate(LOCKSTEP_CASES):
            forms, lam = search_form(target)
            start = random_isometries(np.random.default_rng(seed), 6, m, lam.size)
            u, f, nfev, stop = roof._lbfgs_lockstep(start.copy(), forms, lam)
            for k in range(6):
                u_k, f_k, nfev_k, stop_k = roof._lbfgs_lockstep(start[k : k + 1].copy(), forms, lam)
                assert u[k].tobytes() == u_k[0].tobytes()
                assert (f[k], nfev[k], stop[k]) == (f_k[0], nfev_k[0], stop_k[0])
            stops.update(stop)
    assert stops == {"no_step", "small_step", "cap"}


def test_telemetry(monkeypatch):
    rows = []

    kernel = roof.restricted_hyperdet

    def counting(x, quartic):
        rows.append(np.shape(x)[:-1])
        return kernel(x, quartic)

    monkeypatch.setattr(roof, "restricted_hyperdet", counting)
    m = 5
    result = min_avg_tangle(rho(0.88, 0.06), m=m, restarts=6, seed=13)
    # every row the search hands the kernel belongs to one restart's isometry
    assert sum(int(np.prod(shape)) for shape in rows) == m * sum(result.restart_nfev)
    assert all(count >= 1 for count in result.restart_nfev)
    best = min(result.restart_values)
    assert result.restarts_agreeing == sum(v <= best + 1e-9 for v in result.restart_values)
    assert 1 <= result.restarts_agreeing <= 6
    assert result.converged
    # the reported bound is the best restart's value
    assert abs(result.upper_bound - best) <= 1e-12


def test_iteration_cap_is_not_convergence(monkeypatch):
    monkeypatch.setattr(roof, "_SEARCH_MAXITER", 3)
    result = min_avg_tangle(rho(0.88, 0.06), m=5, restarts=2, seed=13)
    assert not result.converged


def test_stop_reasons(monkeypatch):
    target = rho(0.88, 0.06)
    for r, m in RANDOM_SEARCHES:
        result = random_search(r, m)[1]
        best = result.restart_values.index(result.upper_bound)
        assert len(result.restart_stops) == 6
        assert set(result.restart_stops) <= {"no_step", "small_step", "cap"}
        assert result.converged == (result.restart_stops[best] != "cap")
    monkeypatch.setattr(roof, "_SEARCH_MAXITER", 3)
    capped = min_avg_tangle(target, m=5, restarts=4, seed=13)
    assert capped.restart_stops == ("cap",) * 4
    assert not capped.converged


SEARCH_SETTINGS = settings(derandomize=True, max_examples=10, deadline=None, database=None)


@SEARCH_SETTINGS
@given(
    st.floats(min_value=1.02, max_value=12.0).filter(lambda n: abs(n - round(n)) >= 0.02),
    st.floats(min_value=0.02, max_value=0.98),
)
@example(2.5, 0.9)
@example(1.37, 0.5)
def test_upper_bound_brackets_closed_form_for_non_integer_n(n, p):
    target = rho(p, (1.0 - p) / n)
    result = min_avg_tangle(target, m=5, restarts=4, seed=0)
    exact = mixed_three_tangle(p, n).value
    # the roof is a minimum over ensembles: no ensemble may go below it
    assert exact - 1e-9 <= result.upper_bound <= exact + 0.02
    assert trace_distance(density_from_ensemble(result.best_ensemble), target) <= 1e-8
