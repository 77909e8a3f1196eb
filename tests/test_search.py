"""The convex-roof search: the analytic hyperdeterminant gradient, the
Riemannian pieces on the isometries, and properties of min_avg_tangle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tritangle import (
    density_from_ensemble,
    ensemble_average_tangle,
    min_avg_tangle,
    mixed_three_tangle,
    pi_state,
    rho,
    tangle_from_amps,
    thresholds,
    trace_distance,
)
from tritangle import roof
from tritangle.measures import hyperdet_with_gradient


def random_rows(seed, count):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, 8)) + 1j * rng.standard_normal((count, 8))


def random_isometries(rng, count, m, r):
    mats = rng.standard_normal((count, m, r)) + 1j * rng.standard_normal((count, m, r))
    return roof._retract(mats)


def search_basis(target):
    # the r x 8 rows sqrt(l_i) <v_i| that min_avg_tangle searches over
    vals, vecs = np.linalg.eigh(target.mat)
    keep = vals > 1e-12
    return (vecs[:, keep] * np.sqrt(vals[keep])).T


def test_hyperdet_gives_the_tangle_bit_for_bit():
    amps = random_rows(61, 3000)
    det, _ = hyperdet_with_gradient(amps)
    assert np.array_equal(4.0 * np.abs(det), tangle_from_amps(amps))
    # stacks of any shape, and a single state
    det3, grad3 = hyperdet_with_gradient(amps.reshape(30, 100, 8))
    assert det3.shape == (30, 100) and grad3.shape == (30, 100, 8)
    assert np.array_equal(det3.reshape(-1), det)
    one, one_grad = hyperdet_with_gradient(amps[0])
    assert one.shape == () and one_grad.shape == (8,)
    assert 4.0 * abs(one) == tangle_from_amps(amps[0])


def test_hyperdet_partials_match_central_differences():
    amps = random_rows(62, 400)
    _, grad = hyperdet_with_gradient(amps)
    scale = np.linalg.norm(grad, axis=-1)
    h = 1e-5

    def central(step):
        return (hyperdet_with_gradient(amps + step)[0] - hyperdet_with_gradient(amps - step)[0]) / (
            2.0 * h
        )

    for k in range(8):
        step = np.zeros(8)
        step[k] = h
        # D is holomorphic: a step h in a_k moves it by h dD/da_k, a step ih by ih dD/da_k
        assert np.max(np.abs(central(step) - grad[:, k]) / scale) <= 1e-7
        assert np.max(np.abs(central(1j * step) - 1j * grad[:, k]) / scale) <= 1e-7


@pytest.mark.parametrize("p, n, m", [(0.85, 2.0, 5), (0.95, 3.0, 4), (0.4, 10.0, 6), (0.6, 2.5, 3)])
def test_riemannian_gradient_matches_directional_derivative(p, n, m):
    basis = search_basis(rho(p, (1.0 - p) / n))
    r = basis.shape[0]
    rng = np.random.default_rng(63)
    u = random_isometries(rng, 8, m, r)
    grad = roof._riemannian_gradient(u, basis)
    xi = roof._tangent(u, rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape))
    h = 1e-5
    ahead = roof._average_tangle(roof._retract(u + h * xi), basis)
    behind = roof._average_tangle(roof._retract(u - h * xi), basis)
    slope = roof._inner(grad, xi)
    assert np.max(np.abs((ahead - behind) / (2.0 * h) - slope)) <= 1e-6


def test_gradient_is_tangent_and_retractions_are_isometries():
    basis = search_basis(rho(0.9, 0.05))
    rng = np.random.default_rng(64)
    for m in (3, 5, 8):
        u = random_isometries(rng, 20, m, 3)
        eye = np.eye(3)
        assert np.max(np.abs(roof._adjoint(u) @ u - eye)) <= 1e-12
        grad = roof._riemannian_gradient(u, basis)
        uhg = roof._adjoint(u) @ grad
        assert np.max(np.abs(uhg + roof._adjoint(uhg))) <= 1e-12
        for alpha in (1e-8, 1e-3, 1.0, 30.0):
            moved = roof._retract(u - alpha * grad)
            assert np.max(np.abs(roof._adjoint(moved) @ moved - eye)) <= 1e-12
            # the sign fix: R = Q^H (u - alpha grad) has a positive diagonal
            diag = np.diagonal(roof._adjoint(moved) @ (u - alpha * grad), axis1=-2, axis2=-1)
            assert np.all(diag.real > 0.0)


def test_stacked_projection_matches_tangent():
    rng = np.random.default_rng(65)
    for m, r in ((3, 3), (5, 3), (8, 2)):
        u = random_isometries(rng, 6, m, r)
        vecs = rng.standard_normal((6, m, 7, r)) + 1j * rng.standard_normal((6, m, 7, r))
        projected = roof._project(u, vecs)
        for i in range(7):
            assert np.max(np.abs(projected[:, :, i] - roof._tangent(u, vecs[:, :, i]))) <= 1e-14


def test_two_loop_matches_dense_bfgs_update():
    # reference: H = V^T H V + rho s s^T with V = I - rho y s^T, from H = gamma I,
    # oldest pair first, in the real coordinates where <a, b> = Re tr(a^H b)
    rng = np.random.default_rng(66)
    k, m, r, memory = 3, 5, 3, 4
    pairs = rng.standard_normal((k, m, 2, memory, r)) + 1j * rng.standard_normal((k, m, 2, memory, r))
    pairs[:, :, :, 0] = 0.0  # an empty slot
    g = rng.standard_normal((k, m, r)) + 1j * rng.standard_normal((k, m, r))
    # the recursion holds for any rho; an empty slot has rho = 0
    rho_ = np.zeros((k, memory))
    rho_[:, 1:] = rng.uniform(0.5, 2.0, (k, memory - 1))
    gamma = rng.uniform(0.5, 2.0, k)
    direction = roof._two_loop(g, pairs, rho_, gamma)

    def real(x):
        return np.concatenate((x.real.ravel(), x.imag.ravel()))

    for j in range(k):
        h = gamma[j] * np.eye(2 * m * r)
        for i in range(memory):
            s_i, y_i = real(pairs[j, :, 0, i]), real(pairs[j, :, 1, i])
            v = np.eye(2 * m * r) - rho_[j, i] * np.outer(y_i, s_i)
            h = v.T @ h @ v + rho_[j, i] * np.outer(s_i, s_i)
        assert np.max(np.abs(real(direction[j]) + h @ real(g[j]))) <= 1e-12 * np.max(np.abs(h @ real(g[j])))


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


def test_restarts_are_independent():
    target = rho(0.8, 0.1)
    two = min_avg_tangle(target, m=5, restarts=2, seed=11)
    four = min_avg_tangle(target, m=5, restarts=4, seed=11)
    assert two.restart_values == four.restart_values[:2]
    assert two.restart_nfev == four.restart_nfev[:2]


def test_telemetry(monkeypatch):
    rows = []

    def counting(amps):
        rows.append(np.shape(amps)[:-1])
        return tangle_from_amps(amps)

    monkeypatch.setattr(roof, "tangle_from_amps", counting)
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
