import numpy as np
import pytest

from tritangle import (
    BadParamsError,
    SYMMETRIC_PHASES,
    characteristic_curve,
    concurrence_sum_sq,
    density_from_ensemble,
    ensemble_average_tangle,
    ghz,
    ghz_minus,
    mixed_three_tangle,
    one_tangle_min,
    optimal_decomposition,
    pi_state,
    pure_from_amplitudes,
    rho,
    symmetric_ensemble,
    tangle_from_amps,
    three_tangle_pure,
    thresholds,
    trace_distance,
    vertex_states,
    w,
    w_tilde,
    z_state,
    z_tangle_closed,
    zero_tangle_vertices,
)
from tritangle.family import check_pq, z_tangle_coefficients

X = np.array([[0.0, 1.0], [1.0, 0.0]])
XXX = np.kron(np.kron(X, X), X)


def test_reference_states_orthonormal():
    states = [ghz(), w(), w_tilde()]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            expect = 1.0 if i == j else 0.0
            assert abs(a.overlap(b) - expect) <= 1e-15


def test_w_tilde_is_flipped_w():
    assert np.array_equal(w_tilde().amps, XXX @ w().amps)


def test_ghz_minus_amplitudes():
    assert np.max(np.abs(ghz_minus().amps - (np.eye(8)[0] - np.eye(8)[7]) / np.sqrt(2))) <= 1e-15


def test_z_state_amplitudes():
    p, q = 0.5, 0.3
    r = 1.0 - p - q
    phi1, phi2 = 0.7, 1.9
    got = z_state(p, q, phi1, phi2).amps
    expect = (
        np.sqrt(p) * ghz().amps
        - np.exp(1j * phi1) * np.sqrt(q) * w().amps
        - np.exp(1j * phi2) * np.sqrt(r) * w_tilde().amps
    )
    assert np.max(np.abs(got - expect)) <= 1e-15


def test_z_state_pure_w_limit():
    got = z_state(0.0, 1.0, 0.0, 0.0).amps
    assert np.max(np.abs(got + w().amps)) <= 1e-15


def test_z_state_bad_params():
    with pytest.raises(BadParamsError):
        z_state(0.7, 0.6, 0.0, 0.0)
    with pytest.raises(BadParamsError):
        z_state(-0.1, 0.5, 0.0, 0.0)
    with pytest.raises(BadParamsError):
        rho(0.7, 0.6)
    with pytest.raises(BadParamsError):
        rho(1.2, -0.2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_params_rejected(bad):
    th = thresholds(2.0)
    for fn, args in [
        (rho, (bad, 0.1)),
        (rho, (0.1, bad)),
        (z_state, (bad, 0.1)),
        (z_tangle_closed, (0.1, bad)),
        (symmetric_ensemble, (bad, -bad)),
        (optimal_decomposition, (bad, 2.0, th)),
        (optimal_decomposition, (0.5, bad, th)),
        (pi_state, (bad, 2.0)),
        (zero_tangle_vertices, (bad, 0.7)),
        (vertex_states, (bad, 0.7)),
        (characteristic_curve, (bad,)),
    ]:
        with pytest.raises(BadParamsError):
            fn(*args)
    if bad != np.inf:
        with pytest.raises(BadParamsError):
            pi_state(0.5, bad)
    else:
        assert pi_state(0.5, bad).dim == 8  # n = inf stays valid


@pytest.mark.parametrize("p, q", [(-1e-13, 0.5), (0.5, -1e-13)])
def test_boundary_input_has_one_meaning(p, q):
    # a weight a rounding below 0 counts as 0 everywhere, and r = 1 - p - q
    # is then taken from the clamped weights
    clamped = (max(p, 0.0), max(q, 0.0))
    assert check_pq(p, q) == (*clamped, 0.5)
    assert np.diag(rho(p, q).mat).real.min() >= 0.0
    assert np.array_equal(rho(p, q).mat, rho(*clamped).mat)
    assert np.array_equal(z_state(p, q, 0.3, 0.2).amps, z_state(*clamped, 0.3, 0.2).amps)
    assert z_tangle_coefficients(p, q) == z_tangle_coefficients(*clamped)
    assert one_tangle_min(p, q) == one_tangle_min(*clamped)
    assert concurrence_sum_sq(p, q) == concurrence_sum_sq(*clamped)


def test_pi_state_refuses_n_above_the_ceiling():
    for n in (1e200, 1e151):
        with pytest.raises(BadParamsError, match="n must"):
            pi_state(0.5, n)
    assert pi_state(0.5, 1e150).dim == 8


def test_pi_state_message_names_inf():
    # pi_state accepts n = inf as well, and its message says so
    with pytest.raises(BadParamsError, match=r"n must be math\.inf or a number in \[1, 1e\+150\], got 0\.5"):
        pi_state(0.5, 0.5)


def test_z_tangle_closed_corners():
    assert abs(z_tangle_closed(1.0, 0.0, 0.0, 0.0) - 1.0) <= 1e-15
    assert z_tangle_closed(0.0, 1.0, 0.0, 0.0) <= 1e-15
    assert z_tangle_closed(0.0, 0.0, 0.0, 0.0) <= 1e-15
    # check_pq accepts p or q a rounding below 0, and so does z_state
    for p, q in ((0.5, -1e-13), (-1e-13, 0.5)):
        direct = three_tangle_pure(z_state(p, q, 0.3, 0.2))
        assert abs(z_tangle_closed(p, q, 0.3, 0.2) - direct) <= 1e-12


def test_z_tangle_closed_matches_pure_tangle():
    for p in np.linspace(0.0, 1.0, 6):
        for q in np.linspace(0.0, 1.0 - p, 4):
            for phi1 in np.linspace(0.0, 2 * np.pi, 5):
                for phi2 in np.linspace(0.0, 2 * np.pi, 5):
                    closed = z_tangle_closed(p, q, phi1, phi2)
                    direct = three_tangle_pure(z_state(p, q, phi1, phi2))
                    assert abs(closed - direct) <= 1e-12


def test_z_tangle_closed_broadcasts():
    phis = np.linspace(0.0, 2 * np.pi, 9)
    got = z_tangle_closed(0.6, 0.25, phis, 0.3)
    expect = np.array([z_tangle_closed(0.6, 0.25, f, 0.3) for f in phis])
    assert got.shape == (9,)
    assert np.max(np.abs(got - expect)) == 0.0


def test_z_tangle_closed_periodicity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = rng.random()
        q = rng.random() * (1.0 - p)
        f1, f2 = rng.random(2) * 2 * np.pi
        base = z_tangle_closed(p, q, f1, f2)
        assert abs(z_tangle_closed(p, q, f1 + 2 * np.pi, f2) - base) <= 1e-12
        assert abs(z_tangle_closed(p, q, f1, f2 + 2 * np.pi) - base) <= 1e-12


def test_rho_matrix_form():
    p, q = 0.55, 0.3
    r = 1.0 - p - q
    expect = (
        p * np.outer(ghz().amps, ghz().amps)
        + q * np.outer(w().amps, w().amps)
        + r * np.outer(w_tilde().amps, w_tilde().amps)
    )
    assert np.max(np.abs(rho(p, q).mat - expect)) <= 1e-15
    assert np.linalg.matrix_rank(rho(p, q).mat, tol=1e-12) == 3


def test_rho_flip_symmetry():
    # swapping q and r is the same as conjugating by X on every qubit
    p, q = 0.5, 0.1
    left = rho(p, q).mat
    right = XXX @ rho(p, 1.0 - p - q).mat @ XXX
    assert np.max(np.abs(left - right)) <= 1e-12


def test_symmetric_phases_values():
    assert SYMMETRIC_PHASES[0] == (0.0, 0.0)
    assert abs(SYMMETRIC_PHASES[1][0] - 2 * np.pi / 3) <= 1e-15
    assert abs(SYMMETRIC_PHASES[1][1] - 4 * np.pi / 3) <= 1e-15
    assert abs(SYMMETRIC_PHASES[2][0] - 4 * np.pi / 3) <= 1e-15
    assert abs(SYMMETRIC_PHASES[2][1] - 2 * np.pi / 3) <= 1e-15


def test_symmetric_ensemble_properties():
    p, q = 0.62, 0.21
    ens = symmetric_ensemble(p, q)
    assert len(ens) == 3
    assert np.max(np.abs(np.asarray(ens.weights) - 1 / 3)) <= 1e-15
    d = density_from_ensemble(ens)
    assert trace_distance(d, rho(p, q)) <= 1e-12
    tangles = [three_tangle_pure(s) for _, s in ens]
    assert max(tangles) - min(tangles) <= 1e-12
    assert abs(tangles[0] - z_tangle_closed(p, q, 0.0, 0.0)) <= 1e-12


def test_symmetric_ensemble_ghz_limit():
    ens = symmetric_ensemble(1.0, 0.0)
    for _, s in ens:
        assert abs(abs(s.overlap(ghz())) - 1.0) <= 1e-12


def test_optimal_decomposition_regions():
    th = thresholds(2.0)
    # zero region: 5 members, all with zero tangle, reconstructing rho(p, q_n)
    p = 0.3
    ens = optimal_decomposition(p, 2.0, th)
    assert len(ens) == 5
    assert ensemble_average_tangle(ens) <= 1e-9
    q = (1.0 - p) / 2.0
    assert trace_distance(density_from_ensemble(ens), rho(p, q)) <= 1e-12
    # plateau region: 3 symmetric members at p
    p = 0.8
    ens = optimal_decomposition(p, 2.0, th)
    assert len(ens) == 3
    assert trace_distance(density_from_ensemble(ens), rho(p, (1.0 - p) / 2.0)) <= 1e-12
    # top region: GHZ plus 3 members pinned at p1
    p = 0.98
    ens = optimal_decomposition(p, 2.0, th)
    assert len(ens) == 4
    assert abs(abs(ens.states[0].overlap(ghz())) - 1.0) <= 1e-12
    assert abs(ens.weights[0] - (p - th.p1) / (1.0 - th.p1)) <= 1e-12
    assert trace_distance(density_from_ensemble(ens), rho(p, (1.0 - p) / 2.0)) <= 1e-12


def test_optimal_decomposition_boundary_p0():
    th = thresholds(1.0)
    ens = optimal_decomposition(th.p0, 1.0, th)
    # at p0 the W and flipped-W weights vanish, leaving the 3 symmetric members
    assert len(ens) == 3
    assert trace_distance(density_from_ensemble(ens), rho(th.p0, 1.0 - th.p0)) <= 1e-12


@pytest.mark.parametrize("gap", [-1e-13, 1e-15, 1e-12, 1e-9, 1e-6])
def test_optimal_decomposition_near_n_equal_one(gap):
    # the Z members take r = (n-1) q, so nothing cancels as n -> 1: the
    # explicit ensembles stay on the closed form instead of dipping below it;
    # an n within PARAM_TOL below 1 is taken as 1, as check_n does
    n = 1.0 + gap
    th = thresholds(n)
    for p in (th.p0 / 2.0, (th.p0 + th.p1) / 2.0, (th.p1 + 1.0) / 2.0):
        ens = optimal_decomposition(p, n, th)
        assert abs(ensemble_average_tangle(ens) - mixed_three_tangle(p, n).value) <= 2e-15
        target = rho(p, (1.0 - p) / th.n)
        assert trace_distance(density_from_ensemble(ens), target) <= 1e-15


def test_family_states_equal_their_outer_product_formulas():
    # bit for bit: each mixture is the weighted outer products summed in order
    def proj(a):
        return np.outer(a, a.conj())

    g, wv, wt, gm = ghz().amps, w().amps, w_tilde().amps, ghz_minus().amps
    rng = np.random.default_rng(2802)
    for _ in range(300):
        p, u = rng.random(2)
        p, q, r = check_pq(p, (1.0 - p) * u)
        n = 1.0 + 10.0 ** rng.uniform(-15, 6)
        phi1, phi2 = rng.uniform(-7.0, 7.0, 2)
        assert np.array_equal(rho(p, q).mat, p * proj(g) + q * proj(wv) + r * proj(wt))
        qn = (1.0 - p) / n
        expect = p * proj(g) + qn * proj(wv) + ((1.0 - p) - qn) * proj(gm)
        assert np.array_equal(pi_state(p, n).mat, expect)
        expect = (
            np.sqrt(p) * g
            - np.exp(1j * phi1) * np.sqrt(q) * wv
            - np.exp(1j * phi2) * np.sqrt(r) * wt
        )
        assert np.array_equal(z_state(p, q, phi1, phi2).amps, expect)


def test_optimal_decomposition_threshold_mismatch():
    th = thresholds(2.0)
    with pytest.raises(BadParamsError):
        optimal_decomposition(0.5, 3.0, th)
    with pytest.raises(BadParamsError):
        optimal_decomposition(1.5, 2.0, th)


def test_pi_state_matches_family_at_n1():
    for p in (0.0, 0.4, 1.0):
        assert trace_distance(pi_state(p, 1.0), rho(p, 1.0 - p)) <= 1e-12


def test_pi_state_ghz_weight():
    d = pi_state(1.0, 7.0)
    assert np.max(np.abs(d.mat - np.outer(ghz().amps, ghz().amps))) <= 1e-12


def test_pi_state_infinite_n():
    # at n = infinity only the two GHZ branches survive
    d = pi_state(0.35, float("inf"))
    expect = 0.35 * np.outer(ghz().amps, ghz().amps) + 0.65 * np.outer(
        ghz_minus().amps, ghz_minus().amps
    )
    assert np.max(np.abs(d.mat - expect)) <= 1e-12
    assert abs(np.real(w().amps.conj() @ d.mat @ w().amps)) <= 1e-12


def test_pi_state_interpolates():
    # generic n keeps all three branches with weights p, (1-p)/n, rest
    p, n = 0.4, 3.0
    d = pi_state(p, n)
    qn = (1.0 - p) / n
    expect = (
        p * np.outer(ghz().amps, ghz().amps)
        + qn * np.outer(w().amps, w().amps)
        + (1.0 - p - qn) * np.outer(ghz_minus().amps, ghz_minus().amps)
    )
    assert np.max(np.abs(d.mat - expect)) <= 1e-12


def test_pi_state_bad_params():
    with pytest.raises(BadParamsError):
        pi_state(0.5, 0.5)
    with pytest.raises(BadParamsError):
        pi_state(-0.1, 2.0)


def test_unnormalized_tangle_scaling():
    # degree-4 scaling used by ensemble bookkeeping
    amps = z_state(0.5, 0.2, 0.4, 1.1).amps
    wt = 0.37
    assert abs(tangle_from_amps(np.sqrt(wt) * amps) - wt**2 * tangle_from_amps(amps)) <= 1e-14
