import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tritangle import (
    BadDimensionError,
    BadParamsError,
    DensityMatrix,
    EmptyInputError,
    GELL_MANN,
    OutOfSpanError,
    bloch_vector,
    density_from_ensemble,
    ghz,
    in_zero_polyhedron,
    pure_from_amplitudes,
    qutrit_from_bloch,
    qutrit_project,
    rho,
    solve_p0,
    symmetric_ensemble,
    three_tangle_pure,
    vertex_states,
    w,
    w_tilde,
    zero_tangle_vertices,
)
from tritangle import bloch
from tritangle.bloch import hull_residual


def random_qutrit(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    mat = m @ m.conj().T
    return DensityMatrix(mat / mat.trace())


def test_gell_mann_algebra():
    for i in range(8):
        assert abs(GELL_MANN[i].trace()) == 0.0
        assert np.max(np.abs(GELL_MANN[i] - GELL_MANN[i].conj().T)) == 0.0
        for j in range(8):
            expect = 2.0 if i == j else 0.0
            assert abs((GELL_MANN[i] @ GELL_MANN[j]).trace().real - expect) <= 1e-15


def test_gell_mann_read_only():
    with pytest.raises(ValueError):
        GELL_MANN[0, 0, 0] = 1.0


def test_qutrit_project_family_is_diagonal():
    sigma = qutrit_project(rho(0.55, 0.3))
    assert np.max(np.abs(sigma.mat - np.diag([0.55, 0.3, 0.15]))) <= 1e-12


def test_qutrit_project_rank_one():
    sigma = qutrit_project(ghz().density())
    expect = np.zeros((3, 3))
    expect[0, 0] = 1.0
    assert np.max(np.abs(sigma.mat - expect)) <= 1e-12


def test_qutrit_project_out_of_span():
    outside = pure_from_amplitudes(np.eye(8)[0])
    with pytest.raises(OutOfSpanError) as exc:
        qutrit_project(outside.density())
    assert abs(exc.value.leakage - 0.5) <= 1e-12


def test_qutrit_project_dimension_error():
    with pytest.raises(BadDimensionError):
        qutrit_project(DensityMatrix(np.eye(3) / 3))


def test_bloch_vector_reference_images():
    # W and flipped-W sit on the lambda_3 / lambda_8 plane
    w_img = bloch_vector(qutrit_project(w().density()))
    assert np.array_equal(w_img, [0.0, 0.0, -np.sqrt(3.0) / 2.0, 0.0, 0.0, 0.0, 0.0, 0.5])
    wt_img = bloch_vector(qutrit_project(w_tilde().density()))
    assert np.array_equal(wt_img, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0])


def test_bloch_vector_maximally_mixed():
    vec = bloch_vector(DensityMatrix(np.eye(3) / 3))
    assert np.max(np.abs(vec)) == 0.0


def test_bloch_vector_dimension_error():
    with pytest.raises(BadDimensionError):
        bloch_vector(ghz().density())


def test_bloch_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(20):
        sigma = random_qutrit(rng)
        back = qutrit_from_bloch(bloch_vector(sigma))
        assert np.max(np.abs(back.mat - sigma.mat)) <= 1e-12


def test_qutrit_from_bloch_validation():
    with pytest.raises(BadDimensionError):
        qutrit_from_bloch(np.zeros(7))
    # points on the sphere that are not states get rejected by the PSD check
    bad = np.zeros(8)
    bad[7] = -2.0
    with pytest.raises(BadParamsError):
        qutrit_from_bloch(bad)


def test_vertices_match_vertex_states():
    for n in (1.0, 2.0, 10.0):
        p0 = solve_p0(n)
        verts = zero_tangle_vertices(n, p0)
        states = vertex_states(n, p0)
        assert verts.shape == (5, 8)
        for row, s in zip(verts, states):
            img = bloch_vector(qutrit_project(s.density()))
            assert np.max(np.abs(img - row)) <= 1e-10
            assert abs(np.linalg.norm(row) - 1.0) <= 1e-10
            assert three_tangle_pure(s) <= 1e-9


def test_vertices_validation():
    with pytest.raises(BadParamsError):
        zero_tangle_vertices(0.5, 0.7)
    with pytest.raises(BadParamsError):
        zero_tangle_vertices(2.0, 1.5)
    with pytest.raises(BadParamsError):
        vertex_states(0.5, 0.7)
    # both vertex functions refuse a p0 outside (0, 1) with the same message
    for p0 in (0.0, 1.0):
        for f in (zero_tangle_vertices, vertex_states):
            message = re.escape(f"p0 must lie in (0, 1), got {p0!r}")
            with pytest.raises(BadParamsError, match=message):
                f(2.0, p0)


def paper_vertices(n, p0):
    """The five vertices in the paper's coordinates xi_1..3, eta_1..2, written
    out: W, W~, then Z(p0, (1-p0)/n) at the three symmetric phase pairs."""
    s3 = np.sqrt(3.0)
    xi1 = np.sqrt(p0 * (1.0 - p0) / n)
    xi2 = np.sqrt(n - 1.0) * xi1
    xi3 = np.sqrt(n - 1.0) * (1.0 - p0) / n
    eta1 = (s3 / 2.0) * (1.0 - (n + 1.0) * (1.0 - p0) / n)
    eta2 = 0.5 * (1.0 - 3.0 * (n - 1.0) * (1.0 - p0) / n)
    h1, h2, h3 = (s3 / 2.0) * xi1, (s3 / 2.0) * xi2, (s3 / 2.0) * xi3
    return np.array(
        [
            [0.0, 0.0, -s3 / 2.0, 0.0, 0.0, 0.0, 0.0, 0.5],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0],
            [-s3 * xi1, 0.0, eta1, -s3 * xi2, 0.0, s3 * xi3, 0.0, eta2],
            [h1, -1.5 * xi1, eta1, h2, 1.5 * xi2, -h3, 1.5 * xi3, eta2],
            [h1, 1.5 * xi1, eta1, h2, -1.5 * xi2, -h3, -1.5 * xi3, eta2],
        ]
    )


@pytest.mark.parametrize("n", [1.0, 1.0 + 1e-15, 1.0 + 1e-9, 1.37, 2.0, 3.0, 10.0, 1e3, 1e6, 1e150])
def test_vertices_match_the_paper_coordinates(n):
    # the vertices are Gell-Mann images of qutrit vectors; the paper's explicit
    # coordinates are the independent reference
    p0 = solve_p0(n)
    got = zero_tangle_vertices(n, p0)
    assert got.shape == (5, 8)
    assert np.max(np.abs(got - paper_vertices(n, p0))) <= 1e-15


def test_membership_at_vertices():
    p0 = solve_p0(2.0)
    verts = zero_tangle_vertices(2.0, p0)
    for i, row in enumerate(verts):
        inside, weights = in_zero_polyhedron(row, verts)
        assert inside
        assert abs(weights[i] - 1.0) <= 1e-7


def test_membership_weights_zero_region():
    # rho(0.5, 0.25) at n=2: three phase vertices carry p/(3 p0), W and
    # flipped-W carry (p0 - p)/(n p0) and (n-1)(p0 - p)/(n p0)
    n, p = 2.0, 0.5
    p0 = solve_p0(n)
    verts = zero_tangle_vertices(n, p0)
    vec = bloch_vector(qutrit_project(rho(p, (1.0 - p) / n)))
    inside, weights = in_zero_polyhedron(vec, verts)
    assert inside
    w_edge = (p0 - p) / (n * p0)
    expect = np.array([w_edge, w_edge, p / (3.0 * p0), p / (3.0 * p0), p / (3.0 * p0)])
    assert np.max(np.abs(weights - expect)) <= 1e-6


def test_membership_weights_rebuild_state():
    n, p = 2.0, 0.4
    p0 = solve_p0(n)
    verts = zero_tangle_vertices(n, p0)
    target = rho(p, (1.0 - p) / n)
    inside, weights = in_zero_polyhedron(bloch_vector(qutrit_project(target)), verts)
    assert inside
    rebuilt = sum(
        wt * s.density().mat for wt, s in zip(weights, vertex_states(n, p0))
    )
    assert np.max(np.abs(rebuilt - target.mat)) <= 1e-6


def test_membership_rejects_ghz():
    p0 = solve_p0(1.0)
    verts = zero_tangle_vertices(1.0, p0)
    vec = bloch_vector(qutrit_project(ghz().density()))
    inside, _ = in_zero_polyhedron(vec, verts)
    assert not inside


def test_membership_decision_matches_threshold():
    for n in (1.0, 2.0, 10.0):
        p0 = solve_p0(n)
        verts = zero_tangle_vertices(n, p0)
        for p in np.linspace(0.0, 1.0, 101):
            vec = bloch_vector(qutrit_project(rho(p, (1.0 - p) / n)))
            inside, _ = in_zero_polyhedron(vec, verts)
            assert inside == (p <= p0 + 1e-6)


def test_membership_symmetric_point():
    # the fully mixed family point sits well inside for every n
    vec = bloch_vector(DensityMatrix(np.eye(3) / 3))
    for n in (1.0, 2.0, 10.0):
        verts = zero_tangle_vertices(n, solve_p0(n))
        inside, weights = in_zero_polyhedron(vec, verts)
        assert inside
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert weights.min() >= 0.0


def test_membership_empty_vertices():
    with pytest.raises(EmptyInputError):
        in_zero_polyhedron(np.zeros(8), np.zeros((0, 8)))


def test_membership_rejects_mismatched_shapes():
    verts = zero_tangle_vertices(2.0, solve_p0(2.0))
    cases = [
        (np.zeros(7), verts),  # v shorter than the vertices
        (np.zeros(8), verts[0]),  # one vertex as a flat vector
        (np.zeros((1, 8)), verts),  # v as a row
        (np.zeros((5, 8)), verts[None]),  # stacked inputs
        (np.zeros(0), np.zeros((3, 0))),  # no coordinates
    ]
    for v, vertices in cases:
        shapes = f"{v.shape} and {vertices.shape}"
        with pytest.raises(BadDimensionError, match=f"got {re.escape(shapes)}$"):
            in_zero_polyhedron(v, vertices)


def test_hull_residual_rejects_mismatched_shapes():
    verts = zero_tangle_vertices(2.0, solve_p0(2.0))
    weights = np.full(5, 0.2)
    cases = [
        (np.zeros(7), verts, weights, "(7,) and (5, 8)"),  # v shorter than the vertices
        (np.zeros(8), verts, weights[:4], "(4,) and (5, 8)"),  # a weight short
        (np.zeros(8), verts[0], weights, "(8,) and (8,)"),  # one vertex as a flat vector
    ]
    for v, vertices, w, shapes in cases:
        with pytest.raises(BadDimensionError, match=f"got {re.escape(shapes)}$"):
            hull_residual(v, vertices, w)
    with pytest.raises(EmptyInputError):
        hull_residual(np.zeros(8), np.zeros((0, 8)), np.zeros(0))
    assert hull_residual(verts[0], verts, [1.0, 0.0, 0.0, 0.0, 0.0]) == 0.0


def test_projection_consistency_with_ensemble():
    # projecting a symmetric-ensemble average equals the family density image
    ens = symmetric_ensemble(0.6, 0.2)
    sigma = qutrit_project(density_from_ensemble(ens))
    assert np.max(np.abs(sigma.mat - qutrit_project(rho(0.6, 0.2)).mat)) <= 1e-12


def _membership_inputs():
    """(v, vertices) pairs: family points, random qutrit states of rank 1-3,
    convex combinations of the vertices and the vertices themselves."""
    rng = np.random.default_rng(57)
    for n in (1.0, 1.0 + 1e-12, 2.0, 3.0, 10.0, 1e6, 1e150, 4.7):
        verts = zero_tangle_vertices(n, solve_p0(n))
        for p in np.linspace(0.0, 1.0, 21):
            yield bloch_vector(qutrit_project(rho(p, (1.0 - p) / n))), verts
        for rank in (1, 2, 3):
            for _ in range(8):
                m = rng.standard_normal((3, rank)) + 1j * rng.standard_normal((3, rank))
                mat = m @ m.conj().T
                yield bloch_vector(DensityMatrix(mat / mat.trace().real)), verts
        for _ in range(10):
            yield verts.T @ rng.dirichlet(np.ones(5)), verts
        yield from ((row, verts) for row in verts)


def assert_kkt_optimal(v, vertices, weights, tol=1e-12):
    """First-order optimality of min |A w - v| over the simplex, A = vertices.T:
    the gradient g = A^T (A w - v) equals a common mu on the support and is at
    least mu off it."""
    a = np.asarray(vertices, dtype=float).T
    g = a.T @ (a @ weights - v)
    on = weights > 0.0
    assert weights.min() >= 0.0
    assert abs(weights.sum() - 1.0) <= 1e-15 * len(weights)
    mu = g[on].mean()
    assert np.max(np.abs(g[on] - mu)) <= tol
    assert np.all(g[~on] >= mu - tol)


def test_membership_kkt_certificate():
    count = 0
    for v, verts in _membership_inputs():
        _, weights = in_zero_polyhedron(v, verts)
        assert_kkt_optimal(v, verts, weights)
        count += 1
    assert count == 8 * (21 + 24 + 10 + 5)


def test_membership_repeated_vertex():
    verts = zero_tangle_vertices(2.0, solve_p0(2.0))
    doubled = np.vstack([verts, verts[1], verts[3]])
    rng = np.random.default_rng(58)
    for v in [*rng.standard_normal((20, 8)), verts[3], 0.2 * verts[0] + 0.8 * verts[1]]:
        _, w_plain = in_zero_polyhedron(v, verts)
        _, weights = in_zero_polyhedron(v, doubled)
        assert_kkt_optimal(v, doubled, weights)
        # the same hull, so the same minimum
        got = np.linalg.norm(doubled.T @ weights - v)
        assert abs(got - np.linalg.norm(verts.T @ w_plain - v)) <= 1e-15
        folded = weights[:5] + np.bincount([1, 3], weights[5:], minlength=5)
        assert np.max(np.abs(verts.T @ folded - verts.T @ w_plain)) <= 1e-12


def test_membership_all_zero_vertices():
    rng = np.random.default_rng(59)
    for v in [np.zeros(8), *rng.standard_normal((10, 8))]:
        inside, weights = in_zero_polyhedron(v, np.zeros((4, 8)))
        assert inside == (np.linalg.norm(v) <= 1e-8)
        assert weights.min() >= 0.0 and weights.sum() == 1.0
        assert np.linalg.norm(np.zeros((8, 4)) @ weights - v) == np.linalg.norm(v)


def test_membership_one_vertex():
    rng = np.random.default_rng(60)
    vert = rng.standard_normal(8)
    for v in [vert, *rng.standard_normal((10, 8))]:
        inside, weights = in_zero_polyhedron(v, vert[None])
        assert weights.tolist() == [1.0]
        assert inside == np.array_equal(v, vert)


def test_membership_two_vertices_is_segment_projection():
    rng = np.random.default_rng(61)
    for _ in range(50):
        v0, v1, v = rng.standard_normal((3, 8))
        # half the targets sit on the segment itself
        if rng.random() < 0.5:
            v = v0 + rng.random() * (v1 - v0)
        d = v1 - v0
        t = min(max(float((v - v0) @ d / (d @ d)), 0.0), 1.0)
        want = np.linalg.norm(v0 + t * d - v)
        inside, weights = in_zero_polyhedron(v, np.vstack([v0, v1]))
        got = np.linalg.norm(weights[0] * v0 + weights[1] * v1 - v)
        assert abs(got - want) <= 1e-14
        assert abs(weights[1] - t) <= 1e-12
        assert inside == (want <= 1e-8)


def test_membership_rejects_non_finite():
    verts = zero_tangle_vertices(2.0, solve_p0(2.0))
    with pytest.raises(BadParamsError):
        in_zero_polyhedron(np.full(8, np.nan), verts)
    bad = verts.copy()
    bad[2, 4] = np.inf
    with pytest.raises(BadParamsError):
        in_zero_polyhedron(np.zeros(8), bad)
    inside = verts.T @ np.full(5, 0.2)
    for tol in (np.nan, -1.0, np.inf):
        with pytest.raises(BadParamsError, match="tol"):
            in_zero_polyhedron(inside, verts, tol=tol)


def test_membership_weights_do_not_depend_on_scale():
    # min |s (A w - v)| has the same minimiser for every s > 0; A^T A of the
    # scaled vertices would overflow or underflow without the solver's rescaling
    verts = zero_tangle_vertices(3.0, solve_p0(3.0))
    rng = np.random.default_rng(62)
    inner, outer = verts.T @ rng.dirichlet(np.ones(5)), rng.standard_normal(8)
    small = (2.0**-600, 1e-160)
    for v, scales in ((inner, (2.0**520, 1e160, *small)), (outer, (2.0**520, *small))):
        _, want = in_zero_polyhedron(v, verts)
        for s in scales:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, got = in_zero_polyhedron(s * v, s * verts)
                residual = hull_residual(s * v, s * verts, got)
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.isfinite(residual)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    st.floats(min_value=1.0, max_value=1e3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(1.0, 0)
@example(2.0, 1)
@example(1e3, 2)
def test_membership_recovers_convex_weights(n, seed):
    verts = zero_tangle_vertices(n, solve_p0(n))
    w_true = np.random.default_rng(seed).dirichlet(np.ones(5))
    inside, weights = in_zero_polyhedron(verts.T @ w_true, verts)
    assert inside
    assert np.max(np.abs(weights - w_true)) <= 1e-12


def per_size_simplex_least_squares(a, b):
    """Reference solver: the same supports, candidates and tie order as
    bloch._simplex_least_squares, with one unpadded KKT batch per support size."""
    m = a.shape[1]
    e = np.frexp(max(np.abs(a).max(), np.abs(b).max()))[1]
    a, b = np.ldexp(a, -e), np.ldexp(b, -e)
    ata = a.T @ a
    atb = a.T @ b
    cands = []
    for k in range(1, m + 1):
        sup = np.array(list(itertools.combinations(range(m), k)))
        kkt = np.ones((len(sup), k + 1, k + 1))
        kkt[:, :k, :k] = ata[sup[:, :, None], sup[:, None, :]]
        kkt[:, k, k] = 0.0
        rhs = np.ones((len(sup), k + 1, 1))
        rhs[:, :k, 0] = atb[sup]
        regular = np.linalg.slogdet(kkt)[0] != 0.0
        sup = sup[regular]
        wts = np.maximum(np.linalg.solve(kkt[regular], rhs[regular])[:, :k, 0], 0.0)
        cand = np.zeros((len(sup), m))
        np.put_along_axis(cand, sup, wts / wts.sum(axis=1, keepdims=True), axis=1)
        cands.append(cand)
    cands = np.concatenate(cands)
    residuals = np.linalg.norm(cands @ a.T - b, axis=1)
    return cands[np.argmin(np.where(np.isfinite(residuals), residuals, np.inf))]


def _random_vertex_inputs():
    """(v, vertices) pairs for m = 1..7 random vertices, plus repeated and
    all-zero vertex sets: random targets, convex mixes and the vertices."""
    rng = np.random.default_rng(63)
    for m in range(1, 8):
        for _ in range(3):
            verts = rng.standard_normal((m, 8))
            repeated = verts[rng.integers(m, size=m + 2)]
            for vs in (verts, repeated, np.zeros((m, 8))):
                for v in rng.standard_normal((4, 8)):
                    yield v, vs
                yield vs.T @ rng.dirichlet(np.ones(len(vs))), vs
                yield vs[-1], vs


def fold_repeated(vertices, weights):
    """Weights summed over equal vertices, one entry per distinct vertex: the
    share of a vertex among its copies is not unique, their sum is."""
    _, index = np.unique(vertices, axis=0, return_inverse=True)
    return np.bincount(index.ravel(), weights)


def test_padded_solver_matches_per_size_reference():
    count = 0
    inputs = itertools.chain(_membership_inputs(), _random_vertex_inputs())
    for v, verts in inputs:
        inside, weights = in_zero_polyhedron(v, verts)
        want = per_size_simplex_least_squares(verts.T, v)
        want_res = hull_residual(v, verts, want)
        assert inside == (want_res <= 1e-8)
        assert abs(hull_residual(v, verts, weights) - want_res) <= 1e-15
        assert np.max(np.abs(fold_repeated(verts, weights - want))) <= 1e-15
        if not verts.any():
            # every support ties there, and the first one wins
            assert np.array_equal(weights, want)
        # scaling by 2^k is exact, so both solvers solve the same problem again
        for k in (520, -520):
            got = bloch._simplex_least_squares(np.ldexp(verts.T, k), np.ldexp(v, k))
            assert np.array_equal(got, weights)
            assert np.array_equal(
                per_size_simplex_least_squares(np.ldexp(verts.T, k), np.ldexp(v, k)), want
            )
        count += 1
    assert count == 8 * (21 + 24 + 10 + 5) + 7 * 3 * 3 * 6


@pytest.mark.parametrize("m", [1, 5, 7])
def test_membership_makes_one_slogdet_and_one_solve(monkeypatch, m):
    calls = {"slogdet": 0, "solve": 0}
    for name in calls:
        inner = getattr(np.linalg, name)

        def counting(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    rng = np.random.default_rng(64)
    in_zero_polyhedron(rng.standard_normal(8), rng.standard_normal((m, 8)))
    assert calls == {"slogdet": 1, "solve": 1}
