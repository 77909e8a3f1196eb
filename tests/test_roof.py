import numpy as np
import pytest

from tritangle import (
    BadParamsError,
    DensityMatrix,
    EmptyInputError,
    Ensemble,
    NotIsometryError,
    alpha_I,
    characteristic_curve,
    density_from_ensemble,
    eigh_desc,
    ensemble_average_tangle,
    ghz,
    hjw_ensemble,
    lower_convex_envelope,
    min_avg_tangle,
    mixed_three_tangle,
    optimal_decomposition,
    rank_of,
    rho,
    thresholds,
    trace_distance,
    w,
    z_tangle_closed,
)
from tritangle.params import check_count

TH2 = thresholds(2.0)


def test_characteristic_curve_shapes_and_range():
    curve = characteristic_curve(2.0, p_points=41)
    assert curve.p.shape == curve.tau_min.shape == curve.phi1.shape == curve.phi2.shape == (41,)
    assert curve.p[0] == 0.0 and curve.p[-1] == 1.0
    assert np.all(curve.tau_min >= -1e-15)
    assert np.all(curve.tau_min <= 1.0 + 1e-12)
    assert np.all((curve.phi1 >= 0.0) & (curve.phi1 < 2 * np.pi))


def test_characteristic_curve_endpoints():
    curve = characteristic_curve(2.0, p_points=41)
    # p=0: tangle (4/3) q r is phase-independent
    assert abs(curve.tau_min[0] - (4.0 / 3.0) * 0.25) <= 1e-12
    assert abs(curve.tau_min[-1] - 1.0) <= 1e-12


def test_characteristic_curve_bounded_by_symmetric_phases():
    # phi1 + phi2 = 0 is on the search grid, where the other phase is exact, so
    # the minimum cannot exceed the region-I value wherever that value is
    # nonnegative
    curve = characteristic_curve(2.0, p_points=41)
    for p, tau in zip(curve.p, curve.tau_min):
        if p >= TH2.p0:
            assert tau <= alpha_I(p, 2.0) + 1e-9


@pytest.mark.parametrize("n", [2.0, 3.0, 10.0, 1.37])
def test_characteristic_curve_below_phase_grid(n):
    curve = characteristic_curve(n, p_points=41)
    phis = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
    f1, f2 = np.meshgrid(phis, phis, indexing="ij")
    for p, tau in zip(curve.p, curve.tau_min):
        assert tau <= np.min(z_tangle_closed(p, (1.0 - p) / n, f1, f2)) + 1e-15


@pytest.mark.parametrize("n", [2.0, 2.0 + 1e-9, 1.999999, 3.0, 10.0])
def test_characteristic_curve_phases_give_the_minimum(n):
    curve = characteristic_curve(n, p_points=101)
    assert np.all((curve.phi2 >= 0.0) & (curve.phi2 < 2 * np.pi))
    for p, tau, f1, f2 in zip(curve.p, curve.tau_min, curve.phi1, curve.phi2):
        assert abs(z_tangle_closed(p, (1.0 - p) / n, f1, f2) - tau) <= 1e-12


@pytest.mark.parametrize("n", [1.0, 1.37, 2.0, 3.0, 10.0])
def test_characteristic_curve_is_the_tangle_at_its_phases(n):
    curve = characteristic_curve(n, p_points=401)
    for p, tau, f1, f2 in zip(curve.p, curve.tau_min, curve.phi1, curve.phi2):
        assert tau == z_tangle_closed(p, (1.0 - p) / n, f1, f2)
    # at p = 1 the state is GHZ whatever the phases
    assert curve.tau_min[-1] == 1.0


@pytest.mark.parametrize("n", [1.0001, 1.37, 2.0, 3.0, 10.0])
def test_characteristic_curve_w_flipped_w_duality(n):
    # swapping W and W~ maps q = (1-p)/n to its complement: n <-> n/(n-1)
    dual = n / (n - 1.0)
    got = characteristic_curve(n, p_points=101).tau_min
    want = characteristic_curve(dual, p_points=101).tau_min
    if n == 2.0:  # its own dual
        assert np.array_equal(got, want)
    assert np.max(np.abs(got - want)) <= 1e-14


def test_characteristic_curve_finds_thin_zeros():
    # at n = 2 the zero set of the tangle on the phase torus is a thin curve
    # for these p; p = 0.25 is a zero where the curve only touches
    curve = characteristic_curve(2.0, p_points=401)
    band = (curve.p >= 0.155 - 1e-12) & (curve.p <= 0.2475 + 1e-12)
    assert np.count_nonzero(band) == 38
    assert np.all(curve.tau_min[band] <= 1e-14)
    assert curve.p[100] == 0.25 and curve.tau_min[100] <= 1e-14


def test_characteristic_curve_validation():
    with pytest.raises(BadParamsError):
        characteristic_curve(0.5)
    for bad in (1, 11.5, True):
        with pytest.raises(BadParamsError, match="p_points"):
            characteristic_curve(2.0, p_points=bad)


def test_envelope_of_convex_samples_is_identity():
    x = np.linspace(0.0, 1.0, 21)
    y = (x - 0.3) ** 2
    env = lower_convex_envelope(np.column_stack([x, y]))
    assert np.max(np.abs(env(x) - y)) <= 1e-12


def test_envelope_drops_interior_peak():
    env = lower_convex_envelope([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
    assert env(0.5) == 0.0
    assert env.x.shape == (2,)


def test_envelope_idempotent():
    rng = np.random.default_rng(51)
    x = np.linspace(0.0, 1.0, 40)
    y = np.sin(3 * x) + 0.1 * rng.standard_normal(40)
    env = lower_convex_envelope(np.column_stack([x, y]))
    env2 = lower_convex_envelope(np.column_stack([env.x, env.y]))
    assert np.max(np.abs(env2(x) - env(x))) <= 1e-12


def test_envelope_below_samples_with_increasing_slopes():
    rng = np.random.default_rng(52)
    x = np.linspace(0.0, 2.0, 60)
    y = np.cos(4 * x) + 0.3 * rng.standard_normal(60)
    env = lower_convex_envelope(np.column_stack([x, y]))
    assert np.all(env(x) <= y + 1e-12)
    slopes = np.diff(env.y) / np.diff(env.x)
    assert np.all(np.diff(slopes) >= -1e-9)


def test_envelope_validation():
    with pytest.raises(EmptyInputError):
        lower_convex_envelope(np.zeros((0, 2)))
    with pytest.raises(BadParamsError):
        lower_convex_envelope([(0.0, 1.0)])
    with pytest.raises(BadParamsError):
        lower_convex_envelope([(0.0, 1.0), (0.0, 2.0)])
    with pytest.raises(BadParamsError):
        lower_convex_envelope(np.zeros((3, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(BadParamsError, match="finite"):
            lower_convex_envelope([(0.0, bad), (0.5, 0.2), (1.0, 1.0)])
        with pytest.raises(BadParamsError, match="finite"):
            lower_convex_envelope([(0.0, 0.0), (bad, 0.2), (1.0, 1.0)])


def test_roof_records_keep_their_fields():
    env = lower_convex_envelope([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
    assert callable(env)
    assert env(0.25) == 0.0
    records = [
        (characteristic_curve(2.0, p_points=11), ("n", "p", "tau_min", "phi1", "phi2")),
        (env, ("x", "y")),
        (
            min_avg_tangle(rho(0.9, 0.05), 5, restarts=1),
            (
                "upper_bound",
                "best_ensemble",
                "restarts_used",
                "converged",
                "restart_values",
                "restart_nfev",
                "restarts_agreeing",
                "restart_stops",
            ),
        ),
    ]
    for record, fields in records:
        assert record._fields == fields
        for field in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, field, 0.5)


def test_rank_of():
    assert rank_of(rho(0.5, 0.25)) == 3
    assert rank_of(ghz().density()) == 1
    two = density_from_ensemble(Ensemble([(0.6, ghz()), (0.4, w())]))
    assert rank_of(two) == 2


def test_hjw_identity_recovers_eigen_ensemble():
    target = rho(0.5, 0.25)
    ens = hjw_ensemble(target, np.eye(3))
    vals, vecs = eigh_desc(target.mat)
    assert len(ens) == 3
    assert np.max(np.abs(np.asarray(ens.weights) - vals[:3])) <= 1e-12
    assert trace_distance(density_from_ensemble(ens), target) <= 1e-12


def test_hjw_random_isometry_reconstructs():
    rng = np.random.default_rng(53)
    target = rho(0.45, 0.3)
    for m in (3, 5, 8):
        raw = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
        u, _ = np.linalg.qr(raw)
        ens = hjw_ensemble(target, u)
        assert trace_distance(density_from_ensemble(ens), target) <= 1e-10


def test_hjw_validation():
    target = rho(0.5, 0.25)
    with pytest.raises(NotIsometryError):
        hjw_ensemble(target, np.ones((4, 3)))
    with pytest.raises(BadParamsError):
        hjw_ensemble(target, np.eye(2))  # wrong column count
    with pytest.raises(BadParamsError):
        hjw_ensemble(target, np.eye(3)[:2])  # fewer rows than rank
    with pytest.raises(BadParamsError):
        hjw_ensemble(target.mat, np.eye(3))


def test_hjw_refuses_non_finite_mixing():
    mixing = np.eye(3, dtype=complex)
    mixing[1, 2] = np.nan
    with pytest.raises(NotIsometryError):
        hjw_ensemble(rho(0.3, 0.35), mixing)


def test_hjw_mixing_reaches_optimal_ensemble():
    # rebuild the 5-member zero-region ensemble through its own mixing matrix
    n, p = 2.0, 0.3
    target = rho(p, (1.0 - p) / n)
    ens = optimal_decomposition(p, n, TH2)
    vals, vecs = eigh_desc(target.mat)
    u = np.empty((5, 3), dtype=complex)
    for j, (wt, s) in enumerate(ens):
        tilde = np.sqrt(wt) * s.amps
        u[j] = vecs[:, :3].conj().T @ tilde / np.sqrt(vals[:3])
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) <= 1e-10
    rebuilt = hjw_ensemble(target, u)
    assert len(rebuilt) == 5
    assert np.max(np.abs(np.sort(rebuilt.weights) - np.sort(ens.weights))) <= 1e-12
    assert abs(ensemble_average_tangle(rebuilt) - ensemble_average_tangle(ens)) <= 1e-12
    assert trace_distance(density_from_ensemble(rebuilt), target) <= 1e-12


def test_hjw_row_permutation_invariance():
    rng = np.random.default_rng(54)
    target = rho(0.6, 0.2)
    raw = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    u, _ = np.linalg.qr(raw)
    perm = rng.permutation(5)
    a = hjw_ensemble(target, u)
    b = hjw_ensemble(target, u[perm])
    assert np.max(np.abs(np.sort(a.weights) - np.sort(b.weights))) <= 1e-15


def test_min_avg_tangle_pure_ghz():
    result = min_avg_tangle(ghz().density(), m=2, restarts=2)
    assert abs(result.upper_bound - 1.0) <= 1e-9
    assert result.restarts_used == 2


def test_min_avg_tangle_validation():
    with pytest.raises(BadParamsError):
        min_avg_tangle(rho(0.5, 0.25), m=2)  # m below rank
    with pytest.raises(BadParamsError):
        min_avg_tangle(rho(0.5, 0.25), m=9)
    with pytest.raises(BadParamsError):
        min_avg_tangle(rho(0.5, 0.25), m=5, restarts=0)
    with pytest.raises(BadParamsError):
        min_avg_tangle(DensityMatrix(np.eye(8) / 8), m=8)  # rank above 4
    with pytest.raises(BadParamsError):
        min_avg_tangle(DensityMatrix(np.eye(3) / 3), m=3)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"m": 5.5}, "m"),
        ({"m": True}, "m"),
        ({"m": 5, "restarts": 2.5}, "restarts"),
        ({"m": 5, "restarts": True}, "restarts"),
        ({"m": 5, "seed": -1}, "seed"),
        ({"m": 5, "seed": 0.5}, "seed"),
        ({"m": 5, "seed": "0"}, "seed"),
    ],
)
def test_min_avg_tangle_refuses_bad_counts(kwargs, name):
    with pytest.raises(BadParamsError, match=f"^{name} must"):
        min_avg_tangle(rho(0.5, 0.25), **kwargs)


def test_min_avg_tangle_accepts_numpy_integers():
    target = rho(0.8, 0.1)
    plain = min_avg_tangle(target, m=4, restarts=2, seed=5)
    numpy_ints = min_avg_tangle(target, m=np.int64(4), restarts=np.int32(2), seed=np.uint8(5))
    assert numpy_ints.restart_values == plain.restart_values


@pytest.mark.parametrize("value", [6, np.int64(6), np.int32(6), np.uint8(6)])
def test_counts_accept_plain_and_numpy_integers(value):
    count = check_count("m", value, 2, 8)
    assert count == 6 and type(count) is int


@pytest.mark.parametrize(
    "value, message",
    [
        (5.0, "m must be an integer, got 5.0"),
        (np.float64(5.0), "m must be an integer, got np.float64(5.0)"),
        ("5", "m must be an integer, got '5'"),
        (True, "m must be an integer, got True"),
        (False, "m must be an integer, got False"),
        (np.int64(9), "m must lie in [2, 8], got np.int64(9)"),
        (1, "m must lie in [2, 8], got 1"),
    ],
)
def test_counts_refuse_non_integers_bools_and_out_of_range(value, message):
    with pytest.raises(BadParamsError) as caught:
        check_count("m", value, 2, 8)
    assert str(caught.value) == message


def test_min_avg_tangle_deterministic():
    target = density_from_ensemble(Ensemble([(0.6, ghz()), (0.4, w())]))
    a = min_avg_tangle(target, m=3, restarts=2, seed=7)
    b = min_avg_tangle(target, m=3, restarts=2, seed=7)
    assert a.upper_bound == b.upper_bound
    assert np.array_equal(np.asarray(a.best_ensemble.weights), np.asarray(b.best_ensemble.weights))
    assert a.restart_values == b.restart_values and a.restart_nfev == b.restart_nfev
    for (_, sa), (_, sb) in zip(a.best_ensemble, b.best_ensemble):
        assert np.array_equal(sa.amps, sb.amps)


def test_min_avg_tangle_zero_region():
    # inside the vanishing region the search must find an essentially
    # tangle-free ensemble
    result = min_avg_tangle(rho(0.3, 0.35), m=5, restarts=6, seed=0)
    assert result.upper_bound <= 1e-4
    assert trace_distance(density_from_ensemble(result.best_ensemble), rho(0.3, 0.35)) <= 1e-8


def test_min_avg_tangle_tracks_analytic_value():
    p, n = 0.95, 1.0
    target = rho(p, 1.0 - p)
    result = min_avg_tangle(target, m=5, restarts=8, seed=0)
    ana = mixed_three_tangle(p, n).value
    assert ana - 1e-9 <= result.upper_bound <= ana + 0.02


def test_envelope_matches_analytic_above_first_threshold():
    # diagnostic on [0.6, 1]: the convex envelope of the sampled curve tracks
    # the piecewise value once the vanishing plateau is past
    curve = characteristic_curve(2.0, p_points=201)
    env = lower_convex_envelope(np.column_stack([curve.p, curve.tau_min]))
    gaps = []
    for p in np.linspace(0.6, 1.0, 81):
        gaps.append(abs(float(env(p)) - mixed_three_tangle(p, 2.0, TH2).value))
    assert max(gaps) <= 2e-3
