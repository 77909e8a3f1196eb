"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion. Criterion 8 is expected to fail at this sampling scale (see its
docstring) and is marked xfail(strict=True) so a silent pass would be flagged.
"""

import math
import time

import numpy as np
import pytest

from tritangle import (
    alpha_I_dd,
    bloch_vector,
    characteristic_curve,
    ckw_audit,
    ckw_residual,
    concurrence,
    concurrence_sum_sq,
    density_from_ensemble,
    ensemble_average_tangle,
    in_zero_polyhedron,
    lower_convex_envelope,
    min_avg_tangle,
    mixed_three_tangle,
    optimal_decomposition,
    partial_trace_pair,
    pi_state,
    pure_from_amplitudes,
    qutrit_project,
    rho,
    solve_p0,
    solve_p1,
    solve_p_star,
    thresholds,
    three_tangle_pure,
    trace_distance,
    vertex_states,
    w,
    w_tilde,
    z_state,
    z_tangle_closed,
    zero_tangle_vertices,
)

N_LIST = (1.0, 2.0, 3.0, 10.0, 100.0, 1000.0)
TABLE_P0 = (0.6269, 0.75, 0.7452, 0.712, 0.6604, 0.6382)
TABLE_P1 = (0.7087, 0.9330, 0.9250, 0.8667, 0.7710, 0.7298)
TABLE_P_STAR = (0.8257, 0.9618, 0.9572, 0.9230, 0.8650, 0.8391)

TH = {n: thresholds(n) for n in N_LIST}


def _report(num, name, ok, detail=""):
    line = f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_01_table_reproduction():
    start = time.perf_counter()
    solved = [(solve_p0(n), solve_p1(n), solve_p_star(n)) for n in N_LIST]
    elapsed = time.perf_counter() - start
    worst = 0.0
    for (p0, p1, ps), e0, e1, es in zip(solved, TABLE_P0, TABLE_P1, TABLE_P_STAR):
        worst = max(worst, abs(p0 - e0), abs(p1 - e1), abs(ps - es))
    ok = worst <= 5e-4 and elapsed < 1.0
    _report(1, "threshold-table", ok, f"max dev {worst:.2e}, {elapsed * 1e3:.0f} ms")
    assert worst <= 5e-4
    assert elapsed < 1.0


def test_criterion_02_closed_form_anchors():
    devs = (
        abs(solve_p0(1.0) - 4.0 * 2.0 ** (1.0 / 3.0) / (3.0 + 4.0 * 2.0 ** (1.0 / 3.0))),
        abs(solve_p1(1.0) - (0.5 + 3.0 * math.sqrt(465.0) / 310.0)),
        abs(solve_p1(2.0) - (2.0 + math.sqrt(3.0)) / 4.0),
    )
    ok = max(devs) <= 1e-9
    _report(2, "closed-form-anchors", ok, f"max dev {max(devs):.2e}")
    assert max(devs) <= 1e-9


def test_criterion_03_hyperdeterminant_vs_closed_form():
    phis = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 20):
        for q in np.linspace(0.0, 1.0, 20):
            if p + q > 1.0:
                continue
            for f1 in phis:
                for f2 in phis:
                    direct = three_tangle_pure(z_state(p, q, f1, f2))
                    closed = z_tangle_closed(p, q, f1, f2)
                    worst = max(worst, abs(direct - closed))
    ok = worst <= 1e-12
    _report(3, "hyperdeterminant-vs-closed-form", ok, f"max dev {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_04_ckw_identity_pure_states():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = pure_from_amplitudes(amps)
        worst = max(worst, abs(ckw_residual(psi) - three_tangle_pure(psi)))
    ok = worst <= 1e-10
    _report(4, "ckw-identity-pure", ok, f"max dev {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_05_ckw_inequality_mixtures():
    worst = math.inf
    for n in (1.0, 2.0, 10.0):
        audit = ckw_audit(n, 1001)
        worst = min(worst, audit.min_margin)
    ok = worst >= -1e-9
    _report(5, "ckw-inequality-mixtures", ok, f"min margin {worst:.2e}")
    assert worst >= -1e-9


def test_criterion_06_wootters_cross_check():
    worst = 0.0
    for p in np.linspace(0.0, 1.0, 50):
        for q in np.linspace(0.0, 1.0, 50):
            if p + q > 1.0:
                continue
            c_ab = concurrence(partial_trace_pair(rho(p, q), "AB"))
            worst = max(worst, abs(concurrence_sum_sq(p, q) - 2.0 * c_ab**2))
    ok = worst <= 1e-10
    _report(6, "wootters-cross-check", ok, f"max dev {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_07_optimal_decomposition_reconstruction():
    worst_dist = 0.0
    worst_gap = 0.0
    for n in (1.0, 2.0, 3.0, 10.0):
        th = TH[n]
        for p in (0.1, th.p0 / 2.0, th.p0, (th.p0 + th.p1) / 2.0, th.p1, 0.95, 1.0):
            ens = optimal_decomposition(p, n, th)
            dist = trace_distance(density_from_ensemble(ens), rho(p, (1.0 - p) / n))
            gap = abs(ensemble_average_tangle(ens) - mixed_three_tangle(p, n, th).value)
            worst_dist = max(worst_dist, dist)
            worst_gap = max(worst_gap, gap)
    ok = worst_dist <= 1e-12 and worst_gap <= 1e-9
    _report(
        7,
        "optimal-decomposition-reconstruction",
        ok,
        f"max distance {worst_dist:.2e}, max tangle gap {worst_gap:.2e}",
    )
    assert worst_dist <= 1e-12
    assert worst_gap <= 1e-9


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the phase-minimum curve is strictly positive on part of the vanishing "
    "region (it starts at (4/3)(1/n)(1-1/n) at p=0 and only touches zero well "
    "inside [0, p0]), so its full-range lower convex envelope cannot agree with "
    "the piecewise value to 2e-3 near p=0 at any sampling density; the envelope "
    "does match on [0.6, 1], see test_roof.py",
)
def test_criterion_08_envelope_equivalence():
    """Full-range envelope vs piecewise value, as stated: n in {2, 3, 10},
    401 p points, max abs gap <= 2e-3, under 60 s per n."""
    gaps = {}
    times = {}
    for n in (2.0, 3.0, 10.0):
        start = time.perf_counter()
        curve = characteristic_curve(n, p_points=401)
        env = lower_convex_envelope(np.column_stack([curve.p, curve.tau_min]))
        ana = np.array([mixed_three_tangle(p, n, TH[n]).value for p in curve.p])
        gaps[n] = float(np.max(np.abs(env(curve.p) - ana)))
        times[n] = time.perf_counter() - start
    ok = max(gaps.values()) <= 2e-3 and max(times.values()) < 60.0
    detail = ", ".join(f"n={n:g}: gap {gaps[n]:.2e} in {times[n]:.0f}s" for n in gaps)
    _report(8, "envelope-equivalence", ok, detail)
    assert max(gaps.values()) <= 2e-3
    assert max(times.values()) < 60.0


@pytest.mark.slow
def test_criterion_09_oracle_consistency():
    start = time.perf_counter()
    worst_low = 0.0
    worst_high = 0.0
    worst_zero = 0.0
    for n in (1.0, 2.0, 3.0, 10.0):
        th = TH[n]
        for p in (0.3, (th.p0 + th.p1) / 2.0, 0.95):
            target = rho(p, (1.0 - p) / n)
            result = min_avg_tangle(target, m=5, restarts=20, seed=0)
            ana = mixed_three_tangle(p, n, th).value
            worst_low = max(worst_low, ana - result.upper_bound)
            worst_high = max(worst_high, result.upper_bound - ana)
            if ana == 0.0:
                worst_zero = max(worst_zero, result.upper_bound)
    worst_pi = 0.0
    for p in (0.1, 0.5, 0.9):
        result = min_avg_tangle(pi_state(p, math.inf), m=4, restarts=20, seed=0)
        worst_pi = max(worst_pi, result.upper_bound - (2.0 * p - 1.0) ** 2)
    elapsed = time.perf_counter() - start
    ok = (
        worst_low <= 1e-9
        and worst_high <= 0.02
        and worst_zero <= 1e-4
        and worst_pi <= 0.02
        and elapsed < 300.0
    )
    _report(
        9,
        "oracle-consistency",
        ok,
        f"low {worst_low:.2e}, high {worst_high:.2e}, zero {worst_zero:.2e}, "
        f"pi excess {worst_pi:.2e}, {elapsed:.0f}s",
    )
    assert worst_low <= 1e-9
    assert worst_high <= 0.02
    assert worst_zero <= 1e-4
    assert worst_pi <= 0.02
    assert elapsed < 300.0


def test_criterion_10_zero_polyhedron_decision():
    mismatches = 0
    worst_norm = 0.0
    for n in (1.0, 2.0, 10.0):
        p0 = TH[n].p0
        verts = zero_tangle_vertices(n, p0)
        for row in verts:
            worst_norm = max(worst_norm, abs(np.linalg.norm(row) - 1.0))
        for p in np.linspace(0.0, 1.0, 201):
            vec = bloch_vector(qutrit_project(rho(p, (1.0 - p) / n)))
            inside, _ = in_zero_polyhedron(vec, verts)
            if inside != (p <= p0 + 1e-6):
                mismatches += 1
    w_img = bloch_vector(qutrit_project(w().density()))
    wt_img = bloch_vector(qutrit_project(w_tilde().density()))
    images_exact = np.array_equal(
        w_img, [0.0, 0.0, -math.sqrt(3.0) / 2.0, 0.0, 0.0, 0.0, 0.0, 0.5]
    ) and np.array_equal(wt_img, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0])
    ok = mismatches == 0 and worst_norm <= 1e-10 and images_exact
    _report(
        10,
        "zero-polyhedron-decision",
        ok,
        f"{mismatches} mismatches, max norm dev {worst_norm:.2e}, "
        f"images exact {images_exact}",
    )
    assert mismatches == 0
    assert worst_norm <= 1e-10
    assert images_exact


def test_criterion_11_convexity():
    worst_second = math.inf
    worst_dd = -math.inf
    ps = np.linspace(0.0, 1.0, 2001)
    for n in N_LIST:
        th = TH[n]
        vals = np.array([mixed_three_tangle(p, n, th).value for p in ps])
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        worst_second = min(worst_second, float(second.min()))
        grid = np.linspace(th.p_star, 1.0 - 1e-6, 200)
        worst_dd = max(worst_dd, float(np.max(alpha_I_dd(grid, n))))
    ok = worst_second >= -1e-9 and worst_dd <= 1e-9
    _report(
        11,
        "piecewise-convexity",
        ok,
        f"min second difference {worst_second:.2e}, max dd past p_star {worst_dd:.2e}",
    )
    assert worst_second >= -1e-9
    assert worst_dd <= 1e-9
