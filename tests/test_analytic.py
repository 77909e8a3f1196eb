import math
import warnings

import numpy as np
import pytest

from tritangle import (
    BadParamsError,
    CkwAudit,
    Ensemble,
    Region,
    Thresholds,
    alpha_I,
    alpha_I_dd,
    alpha_II,
    ckw_audit,
    concurrence,
    concurrence_sum_sq,
    density_from_ensemble,
    mixed_three_tangle,
    one_tangle_min,
    one_tangle_pure,
    p_c,
    partial_trace_pair,
    pure_from_amplitudes,
    rho,
    solve_p0,
    solve_p1,
    solve_p_star,
    symmetric_ensemble,
    thresholds,
    three_tangle_pure,
)
from tritangle import analytic, cli
from tritangle.family import N_MAX

N_LIST = (1.0, 2.0, 3.0, 10.0, 100.0, 1000.0)
TH = {n: thresholds(n) for n in N_LIST}

# four-decimal threshold table, rows follow N_LIST
TABLE_P0 = (0.6269, 0.75, 0.7452, 0.712, 0.6604, 0.6382)
TABLE_P1 = (0.7087, 0.9330, 0.9250, 0.8667, 0.7710, 0.7298)
TABLE_P_STAR = (0.8257, 0.9618, 0.9572, 0.9230, 0.8650, 0.8391)

# closed-form anchors for the two smallest n
P0_N1 = 4.0 * 2.0 ** (1.0 / 3.0) / (3.0 + 4.0 * 2.0 ** (1.0 / 3.0))
P1_N1 = 0.5 + 3.0 * math.sqrt(465.0) / 310.0
P0_N2 = 0.75
P1_N2 = (2.0 + math.sqrt(3.0)) / 4.0
PC_N1 = 7.0 - 3.0 * math.sqrt(5.0)
PC_N2 = 0.25


def g_one(p):
    # independent n=1 curve written from scratch
    return p**2 - (8.0 * math.sqrt(6.0) / 9.0) * np.sqrt(p * (1.0 - p) ** 3)


def g_two(p):
    return 1.0 - (1.0 - p) * (1.5 + math.sqrt(465.0) / 18.0)


def summary_n1(p):
    if p <= P0_N1:
        return 0.0
    if p <= P1_N1:
        return float(g_one(p))
    return float(g_two(p))


def test_threshold_table_values():
    for n, p0, p1, ps in zip(N_LIST, TABLE_P0, TABLE_P1, TABLE_P_STAR):
        th = TH[n]
        assert abs(th.p0 - p0) <= 5e-4
        assert abs(th.p1 - p1) <= 5e-4
        assert abs(th.p_star - ps) <= 5e-4


def test_threshold_closed_forms():
    assert abs(TH[1.0].p0 - P0_N1) <= 1e-9
    assert abs(TH[1.0].p1 - P1_N1) <= 1e-9
    assert abs(TH[2.0].p0 - P0_N2) <= 1e-9
    assert abs(TH[2.0].p1 - P1_N2) <= 1e-9
    assert abs(TH[1.0].p_c - PC_N1) <= 1e-12
    assert abs(TH[2.0].p_c - PC_N2) <= 1e-9


def test_threshold_ordering():
    for n in N_LIST:
        th = TH[n]
        assert 0.0 < th.p_c < th.p0 < th.p1 < th.p_star < 1.0


def test_thresholds_solve_p0_once(monkeypatch):
    # thresholds hands its p0 to the p* bracket; the table equals the
    # one-threshold solvers bit for bit
    calls = []
    original = analytic.solve_p0

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(analytic, "solve_p0", counting)
    for n in (1.0, 2.0, 3.0, 2.5, 1e6, 1e150):
        calls.clear()
        th = thresholds(n)
        assert calls == [n]
        assert (th.p0, th.p1, th.p_star) == (solve_p0(n), solve_p1(n), solve_p_star(n))


def test_thresholds_rejects_bad_ordering():
    with pytest.raises(BadParamsError):
        Thresholds(n=1.0, p0=0.9, p1=0.7, p_star=0.95, p_c=0.3)
    with pytest.raises(BadParamsError):
        Thresholds(n=1.0, p0=0.6, p1=0.7, p_star=0.8, p_c=0.7)


def test_analytic_records_keep_their_fields():
    records = [
        (thresholds(2.0), ("n", "p0", "p1", "p_star", "p_c")),
        (mixed_three_tangle(0.8, 2.0), ("region", "value")),
        (ckw_audit(2.0, 3), ("n", "p", "one_tangle", "conc_sq_sum", "tau3", "margin", "min_margin")),
    ]
    for record, fields in records:
        assert record._fields == fields
        for field in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, field, 0.5)
    th = thresholds(2.0)
    assert th == (th.n, th.p0, th.p1, th.p_star, th.p_c)
    # the keys table1 --json prints, in its order
    assert list(th._asdict()) == ["n", "p0", "p1", "p_star", "p_c"]
    assert th._replace(p_c=0.5) == (2.0, th.p0, th.p1, th.p_star, 0.5)
    with pytest.raises(BadParamsError, match="ordering"):
        th._replace(p0=0.99)


def test_solvers_reject_bad_n():
    for fn in (solve_p0, solve_p1, solve_p_star, p_c, thresholds):
        with pytest.raises(BadParamsError):
            fn(0.5)


@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 1e151, 1e155, 1e300])
def test_solvers_reject_non_finite_and_huge_n(n):
    for fn in (solve_p0, solve_p1, solve_p_star, p_c, thresholds, alpha_I):
        with pytest.raises(BadParamsError, match="n must"):
            fn(n) if fn is not alpha_I else fn(0.5, n)
    with pytest.raises(BadParamsError, match="n must"):
        mixed_three_tangle(0.5, n)
    with pytest.raises(BadParamsError, match="n must"):
        ckw_audit(n, 11)


def test_n_ceiling_is_clean():
    # the largest accepted n solves without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        th = thresholds(N_MAX)
    assert 0.0 < th.p_c < th.p0 < th.p1 < th.p_star < 1.0
    assert abs(th.p0 - TH[1.0].p0) <= 1e-12


def test_n_just_below_one_is_one():
    assert thresholds(1.0 - 1e-13) == TH[1.0]


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_non_finite_p_rejected(p):
    with pytest.raises(BadParamsError, match="p must"):
        mixed_three_tangle(p, 2.0)
    with pytest.raises(BadParamsError, match="p must"):
        alpha_I(np.array([0.5, p]), 2.0)
    with pytest.raises(BadParamsError, match="p must"):
        alpha_II(np.array([0.9, p]), 2.0, TH[2.0].p1)
    with pytest.raises(BadParamsError):
        alpha_I_dd(p, 2.0)
    for args in ((p, 0.1), (0.1, p), (p, -p)):
        with pytest.raises(BadParamsError, match="require"):
            one_tangle_min(*args)
        with pytest.raises(BadParamsError, match="require"):
            concurrence_sum_sq(*args)


def test_alpha_I_basic_values():
    for n in N_LIST:
        assert abs(alpha_I(1.0, n) - 1.0) <= 1e-15
        assert abs(alpha_I(TH[n].p0, n)) <= 1e-9
    ps = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(alpha_I(ps, 1.0) - g_one(ps))) <= 1e-14


def test_alpha_I_array_shape():
    ps = np.linspace(0.1, 0.9, 7)
    out = alpha_I(ps, 3.0)
    assert out.shape == (7,)
    assert isinstance(alpha_I(0.5, 3.0), float)
    p1 = TH[3.0].p1
    closed_forms = (
        lambda p: alpha_I(p, 3.0),
        lambda p: alpha_I_dd(p, 3.0),
        lambda p: alpha_II(p, 3.0, p1),
    )
    for f in closed_forms:
        assert type(f(np.asarray(0.5))) is float
        assert f(ps.reshape(7, 1)).shape == (7, 1)
        empty = f(np.zeros((0, 2)))
        assert isinstance(empty, np.ndarray) and empty.dtype == float and empty.shape == (0, 2)
    # n and p1 are checked before any element, also when there is none
    for arr in (np.array([]), np.array([0.5, 2.0])):
        for f in (alpha_I, alpha_I_dd):
            with pytest.raises(BadParamsError, match="n must"):
                f(arr, 0.5)
        with pytest.raises(BadParamsError, match="n must"):
            alpha_II(arr, 0.5, p1)
        with pytest.raises(BadParamsError, match="p1 must"):
            alpha_II(arr, 3.0, 1.5)
    # a bad element gets the message a bad float gets
    for f in (closed_forms[0], closed_forms[2]):
        with pytest.raises(BadParamsError, match=r"^p must lie in \[0, 1\], got 2\.0$"):
            f(np.array([0.5, 2.0]))
    with pytest.raises(BadParamsError, match=r"^alpha_I_dd requires 0 < p < 1, got 1\.0$"):
        alpha_I_dd(np.array([0.5, 1.0]), 3.0)


def test_alpha_I_rejects_bad_input():
    with pytest.raises(BadParamsError):
        alpha_I(-0.1, 2.0)
    with pytest.raises(BadParamsError):
        alpha_I(1.1, 2.0)
    with pytest.raises(BadParamsError):
        alpha_I(0.5, 0.0)


def test_alpha_I_dd_matches_finite_difference():
    h = 1e-5
    for n in (1.0, 2.0, 3.0, 10.0):
        for p in np.linspace(0.1, 0.95, 18):
            dd = alpha_I_dd(p, n)
            fd = (alpha_I(p + h, n) - 2.0 * alpha_I(p, n) + alpha_I(p - h, n)) / h**2
            assert abs(dd - fd) <= 1e-4 * max(1.0, abs(dd))


def test_alpha_I_dd_sign_structure():
    assert alpha_I_dd(0.5, 1.0) > 0.0
    # +inf as p -> 0, also where p^3 underflows to 0
    assert alpha_I_dd(1e-300, 2.0) == alpha_I_dd(5e-324, 1e150) == math.inf
    for n in (1.0, 2.0, 10.0):
        ps = TH[n].p_star
        assert alpha_I_dd(ps - 0.01, n) > 0.0
        assert alpha_I_dd(ps + 0.01, n) < 0.0
        grid = np.linspace(ps, 1.0 - 1e-6, 50)
        assert np.max(alpha_I_dd(grid, n)) <= 1e-9


def test_alpha_I_dd_rejects_endpoints():
    with pytest.raises(BadParamsError):
        alpha_I_dd(0.0, 2.0)
    with pytest.raises(BadParamsError):
        alpha_I_dd(1.0, 2.0)


def test_alpha_II_values():
    th = TH[1.0]
    assert abs(alpha_II(0.8, 1.0, th.p1) - g_two(0.8)) <= 1e-12
    for n in N_LIST:
        p1 = TH[n].p1
        assert abs(alpha_II(1.0, n, p1) - 1.0) <= 1e-15
        # chord touches the curve at p1
        assert abs(alpha_II(p1, n, p1) - alpha_I(p1, n)) <= 1e-15
    for bad in (1.0, -0.5, math.nan):
        with pytest.raises(BadParamsError, match="p1 must"):
            alpha_II(0.9, 2.0, bad)
    for bad in (5.0, -0.1, 1.1):
        with pytest.raises(BadParamsError, match="p must"):
            alpha_II(bad, 2.0, 0.8)


def test_scalar_closed_forms_match_the_array_path():
    # an array p runs through the float formula element by element, so every
    # element, of a 0-d or a long array, has the bits of the float result
    rng = np.random.default_rng(20081019)
    named = [1.0, 1.0 + 1e-9, 1.37, 2.0, 3.0, 10.0, 1e6, 1e150]
    ns = named + (10.0 ** rng.uniform(0.0, 150.0, 6)).tolist() + rng.uniform(1.0, 4.0, 6).tolist()
    points = 0
    for n in ns:
        th = thresholds(n)
        ps = [0.0, 1.0, 1e-300, 1.0 - 2.0**-53, th.p0, th.p1] + rng.uniform(0.0, 1.0, 1000).tolist()
        for p in ps:
            a1 = alpha_I(p, n)
            a2 = alpha_II(p, n, th.p1)
            assert type(a1) is float and type(a2) is float
            want1 = float(alpha_I(np.asarray(p), n))
            want2 = float(alpha_II(np.asarray(p), n, th.p1))
            assert (a1.hex(), a2.hex()) == (want1.hex(), want2.hex())
            want = 0.0 if p <= th.p0 else want1 if p <= th.p1 else want2
            assert mixed_three_tangle(p, n, th).value.hex() == want.hex()
            points += 1
    assert points >= 20_000
    ps = np.linspace(0.0, 1.0, 4001)
    for n in named:
        p1 = thresholds(n).p1
        for f, grid in (
            (lambda p: alpha_I(p, n), ps),
            (lambda p: alpha_II(p, n, p1), ps),
            (lambda p: alpha_I_dd(p, n), ps[1:-1]),
        ):
            got = f(grid)
            assert got.dtype == float and got.shape == grid.shape
            assert [x.hex() for x in got.tolist()] == [f(p).hex() for p in grid.tolist()]


def test_p1_tangency():
    # chord slope equals the curve slope at p1, central difference h=1e-6
    h = 1e-6
    for n in (1.0, 2.0, 10.0):
        p1 = TH[n].p1
        curve_slope = (alpha_I(p1 + h, n) - alpha_I(p1 - h, n)) / (2.0 * h)
        chord_slope = (1.0 - alpha_I(p1, n)) / (1.0 - p1)
        assert abs(curve_slope - chord_slope) <= 1e-6


def test_mixed_three_tangle_regions():
    th = TH[2.0]
    low = mixed_three_tangle(0.3, 2.0, th)
    assert low.region is Region.ZERO and low.value == 0.0
    mid = mixed_three_tangle(0.5 * (th.p0 + th.p1), 2.0, th)
    assert mid.region is Region.ALPHA_I
    assert abs(mid.value - alpha_I(0.5 * (th.p0 + th.p1), 2.0)) <= 1e-15
    top = mixed_three_tangle(0.99, 2.0, th)
    assert top.region is Region.ALPHA_II
    assert abs(top.value - alpha_II(0.99, 2.0, th.p1)) <= 1e-15
    assert mixed_three_tangle(1.0, 2.0, th).value == 1.0
    assert mixed_three_tangle(0.0, 2.0, th).value == 0.0


def test_mixed_three_tangle_validation():
    with pytest.raises(BadParamsError):
        mixed_three_tangle(1.5, 2.0)
    with pytest.raises(BadParamsError):
        mixed_three_tangle(0.5, 3.0, TH[2.0])


def test_mixed_three_tangle_n1_vs_independent_summary():
    th = TH[1.0]
    for p in np.linspace(0.0, 1.0, 1001):
        got = mixed_three_tangle(p, 1.0, th).value
        assert abs(got - summary_n1(p)) <= 1e-10


def test_mixed_three_tangle_continuity():
    for n in N_LIST:
        th = TH[n]
        for edge in (th.p0, th.p1):
            lo = mixed_three_tangle(edge - 1e-9, n, th).value
            hi = mixed_three_tangle(edge + 1e-9, n, th).value
            assert abs(hi - lo) <= 1e-7


def test_mixed_three_tangle_convex_in_p():
    ps = np.linspace(0.0, 1.0, 1001)
    for n in (1.0, 2.0, 10.0):
        th = TH[n]
        vals = np.array([mixed_three_tangle(p, n, th).value for p in ps])
        second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
        assert second.min() >= -1e-9


def test_large_n_curves_approach_n1():
    ps = np.linspace(0.0, 1.0, 501)
    base = np.array([mixed_three_tangle(p, 1.0, TH[1.0]).value for p in ps])
    gaps = []
    for n in (10.0, 100.0, 1000.0):
        vals = np.array([mixed_three_tangle(p, n, TH[n]).value for p in ps])
        gaps.append(np.max(np.abs(vals - base)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_one_tangle_min_corners():
    assert abs(one_tangle_min(1.0, 0.0) - 1.0) <= 1e-15
    assert abs(one_tangle_min(0.0, 1.0) - 8.0 / 9.0) <= 1e-15
    assert abs(one_tangle_min(0.0, 0.0) - 8.0 / 9.0) <= 1e-15


def test_one_tangle_min_matches_symmetric_ensemble():
    # the closed form equals the average one-tangle of the symmetric ensemble
    for p in np.linspace(0.0, 1.0, 8):
        for q in np.linspace(0.0, 1.0 - p, 5):
            avg = sum(wt * one_tangle_pure(s) for wt, s in symmetric_ensemble(p, q))
            assert abs(one_tangle_min(p, q) - avg) <= 1e-12


def test_one_tangle_min_is_above_the_roof_at_the_product_point():
    # rho(1/4, 3/8) is the equal mixture of the product states
    # ((|0> + w^k |1>)/sqrt 2)^(x)3, w = e^{2 pi i/3}: its one-tangle roof is 0,
    # while one_tangle_min is the symmetric ensemble's one-tangle, an upper bound
    members = []
    for k in range(3):
        qubit = np.array([1.0, np.exp(2j * np.pi * k / 3)]) / math.sqrt(2.0)
        members.append((1.0 / 3.0, pure_from_amplitudes(np.kron(np.kron(qubit, qubit), qubit))))
    ens = Ensemble(members)
    assert np.max(np.abs(density_from_ensemble(ens).mat - rho(0.25, 0.375).mat)) <= 1e-15
    for _, member in ens:
        assert three_tangle_pure(member) <= 1e-15
        assert max(one_tangle_pure(member, focus) for focus in "ABC") <= 1e-15
        # Wootters' square roots of a rank-one product leave about 4e-9
        pairs = (partial_trace_pair(member.density(), keep) for keep in ("AB", "AC", "BC"))
        assert max(concurrence(pair) for pair in pairs) <= 1e-8
    assert one_tangle_min(0.25, 0.375) == 1.0


def test_one_tangle_min_validation():
    with pytest.raises(BadParamsError):
        one_tangle_min(0.7, 0.5)
    with pytest.raises(BadParamsError):
        one_tangle_min(-0.2, 0.5)


def test_concurrence_sum_sq_corners():
    assert concurrence_sum_sq(1.0, 0.0) == 0.0
    assert abs(concurrence_sum_sq(0.0, 1.0) - 8.0 / 9.0) <= 1e-15
    with pytest.raises(BadParamsError):
        concurrence_sum_sq(0.7, 0.5)


def test_concurrence_sum_sq_vs_wootters():
    for p in np.linspace(0.0, 1.0, 10):
        for q in np.linspace(0.0, 1.0 - p, 5):
            c_ab = concurrence(partial_trace_pair(rho(p, q), "AB"))
            assert abs(concurrence_sum_sq(p, q) - 2.0 * c_ab**2) <= 1e-10


def test_p_c_defining_property():
    for n in (1.0, 2.0, 3.0, 10.0, 100.0):
        pc = p_c(n)
        q = (1.0 - pc) / n
        gap = 2.0 * (1.0 - pc) - math.sqrt((3.0 * pc + 2.0 * q) * (2.0 + pc - 2.0 * q))
        assert abs(gap) <= 1e-10
        assert concurrence_sum_sq(pc + 1e-6, (1.0 - pc - 1e-6) / n) == 0.0
        assert concurrence_sum_sq(pc - 1e-3, (1.0 - pc + 1e-3) / n) > 0.0


@pytest.mark.parametrize("n", [2.0 + 1e-8, 2.0 - 1e-8, 2.0 + 1e-6, 2.0 - 1e-6])
def test_p_c_continuous_through_n_2(n):
    assert abs(p_c(n) - 0.25) <= 1e-12


def test_thresholds_valid_next_to_n_2(capsys):
    th = thresholds(2.00000001)
    assert 0.0 < th.p_c < th.p0 < th.p1 < th.p_star < 1.0
    assert abs(th.p_c - 0.25) <= 1e-12
    assert cli.main(["tangle", "--p", "0.8", "--n", "2.00000001"]) == cli.EXIT_OK
    assert "region=ALPHA_I\n" in capsys.readouterr().out


def test_substantial_one_tangle_at_p_c():
    # where both squared concurrences and the tangle vanish, the one-tangle
    # stays large
    for n in (1.0, 2.0, 10.0):
        pc = TH[n].p_c
        q = (1.0 - pc) / n
        assert concurrence_sum_sq(pc, q) <= 1e-12
        assert mixed_three_tangle(pc, n, TH[n]).value == 0.0
        assert one_tangle_min(pc, q) > 0.1


def test_ckw_audit_margins():
    for n in (1.0, 2.0, 10.0):
        audit = ckw_audit(n, 1001)
        assert isinstance(audit, CkwAudit)
        assert audit.min_margin >= -1e-9
        one, conc, tau, margin = map(
            np.asarray, (audit.one_tangle, audit.conc_sq_sum, audit.tau3, audit.margin)
        )
        assert np.max(np.abs(margin - (one - conc - tau))) == 0.0
        assert audit.margin[-1] == 0.0  # GHZ endpoint saturates the inequality


def test_ckw_audit_grid_is_linspace():
    # the columns are tuples of floats; p holds np.linspace's points bit for bit
    for k in (2, 3, 7, 11, 101, 1001, 4097):
        audit = ckw_audit(3.0, k)
        assert all(type(x) is float for x in audit.p + audit.margin)
        assert [x.hex() for x in audit.p] == [x.hex() for x in np.linspace(0.0, 1.0, k).tolist()]


@pytest.mark.parametrize("n", [1.0, 1.0 + 1e-9, 1.37, 2.0, 3.0, 10.0, 1e3, 1e6])
def test_ckw_audit_entries_are_the_per_point_values(n):
    # the grid runs without per-point checks, yet every entry has the public bits
    for k in (2, 11, 1001):
        audit = ckw_audit(n, k)
        assert audit.n == n
        assert len(audit.p) == k
        for j, p in enumerate(audit.p):
            q = (1.0 - p) / n
            one, conc = one_tangle_min(p, q), concurrence_sum_sq(p, q)
            tau = mixed_three_tangle(p, n).value
            assert (audit.one_tangle[j], audit.conc_sq_sum[j], audit.tau3[j]) == (one, conc, tau)
            assert audit.margin[j] == one - conc - tau
        assert audit.min_margin == min(audit.margin)


def test_ckw_holds_over_the_whole_triangle():
    # every (p, q) with q > 0 lies on the slice n = (1 - p)/q >= 1; on q = 0 the
    # W <-> W~ swap, which keeps all three quantities, maps it to n = 1
    steps = 200
    least = math.inf
    below_one = 0
    for i in range(steps + 1):
        p = i / steps
        for j in range(steps + 1 - i):
            q = j / steps
            n = (1.0 - p) / q if q > 0.0 else 1.0
            below_one += n < 1.0  # r = 0 edge points that check_n clamps to 1
            tau = mixed_three_tangle(p, n).value
            least = min(least, one_tangle_min(p, q) - concurrence_sum_sq(p, q) - tau)
    assert below_one == 40
    assert least >= -1e-12


def test_ckw_audit_validation():
    for bad in (1, 10.5, True, float("nan")):
        with pytest.raises(BadParamsError, match="grid_size"):
            ckw_audit(2.0, bad)


# n grid of the 50-digit threshold reference: the table rows and the edges
# named, the rest seeded log-uniform in [1, 1e150]
REFERENCE_N = list(N_LIST) + [1.0 + 1e-12, 2.00000001, 1e150]
REFERENCE_N += list(10.0 ** np.random.default_rng(20081010).uniform(0.0, 150.0, 200))


def reference_thresholds(mp, n):
    """p0, p1 and p* at 50 digits, each solved from its defining equation in p."""
    n = mp.mpf(n)
    c_lin = 4 * mp.sqrt(n - 1) / n
    c_quad = 4 * (n - 1) / (3 * n * n)
    c_root = 8 * mp.sqrt(6 * n) * (1 + (n - 1) ** mp.mpf(1.5)) / (9 * n * n)

    def alpha(p):
        return p * p - c_lin * p * (1 - p) - c_quad * (1 - p) ** 2 - c_root * mp.sqrt(p * (1 - p) ** 3)

    def tangency(p):
        return c_root / 2 * (2 * p - 1) / mp.sqrt(p * (1 - p)) - (1 + c_lin - c_quad)

    bracket = 9 * n * n + 36 * n * mp.sqrt(n - 1) - 12 * (n - 1)
    c = mp.sqrt(6 * n) * (1 + (n - 1) ** mp.mpf(1.5))

    def curvature(p):
        return (bracket - c * (8 * p * p - 4 * p - 1) / mp.sqrt(p**3 * (1 - p))) / (n * n)

    # alpha_I < 0 at 1/2 and > 0 at 1 for every n, and alpha_I_dd changes sign
    # once above p0; the bracketing solver cannot leave its bracket
    top = 1 - mp.mpf(10) ** -40
    p0 = mp.findroot(alpha, (mp.mpf(0.5), top), solver="anderson")
    p1 = mp.findroot(tangency, (mp.mpf(0.5), top), solver="anderson")
    p_star = mp.findroot(curvature, (p0, 1 - mp.mpf(10) ** -6), solver="anderson")
    return p0, p1, p_star


def test_thresholds_match_mpmath_reference():
    mpmath = pytest.importorskip("mpmath")
    worst = {"p0": 0.0, "p1": 0.0, "p_star": 0.0}
    with mpmath.workdps(50):
        for n in REFERENCE_N:
            th = thresholds(n)
            for name, want in zip(worst, reference_thresholds(mpmath.mp, n)):
                worst[name] = max(worst[name], float(abs(getattr(th, name) - want)))
    assert worst["p0"] <= 4e-16, worst
    assert worst["p1"] <= 4e-16, worst
    assert worst["p_star"] <= 4e-16, worst
