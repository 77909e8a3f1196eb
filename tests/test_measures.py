import numpy as np
import pytest

from tritangle import (
    BadDimensionError,
    DensityMatrix,
    Ensemble,
    ckw_residual,
    concurrence,
    ensemble_average_tangle,
    ghz,
    one_tangle_pure,
    partial_trace_pair,
    pure_from_amplitudes,
    symmetric_ensemble,
    tangle_from_amps,
    three_tangle_pure,
    w,
)
from expanded_hyperdet import hyperdet

Y = np.array([[0.0, -1j], [1j, 0.0]])
YY = np.kron(Y, Y)


def random_state(rng):
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return pure_from_amplitudes(a)


def random_unitary2(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def concurrence_oracle(mat):
    # spectrum of rho * (Y x Y) rho^* (Y x Y), no Hermitian shortcut
    m = mat @ YY @ mat.conj() @ YY
    vals = np.sqrt(np.abs(np.linalg.eigvals(m)))
    vals = np.sort(vals)[::-1]
    return max(0.0, vals[0] - vals[1] - vals[2] - vals[3])


def test_tangle_ghz_and_w():
    assert abs(three_tangle_pure(ghz()) - 1.0) <= 1e-12
    assert three_tangle_pure(w()) <= 1e-12


def test_tangle_product_states():
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = pure_from_amplitudes(np.kron(np.kron(a, b), c))
        assert three_tangle_pure(psi) <= 1e-12


def test_tangle_range():
    rng = np.random.default_rng(22)
    for _ in range(200):
        t = three_tangle_pure(random_state(rng))
        assert -1e-12 <= t <= 1.0 + 1e-10


def test_tangle_permutation_invariance():
    rng = np.random.default_rng(23)
    perms = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    for _ in range(20):
        s = random_state(rng)
        base = three_tangle_pure(s)
        cube = s.amps.reshape(2, 2, 2)
        for perm in perms:
            sp = pure_from_amplitudes(np.transpose(cube, perm).reshape(8))
            assert abs(three_tangle_pure(sp) - base) <= 1e-12


def test_tangle_local_unitary_invariance():
    rng = np.random.default_rng(24)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    xxx = np.kron(np.kron(x, x), x)
    for _ in range(20):
        s = random_state(rng)
        base = three_tangle_pure(s)
        flipped = pure_from_amplitudes(xxx @ s.amps)
        assert abs(three_tangle_pure(flipped) - base) <= 1e-12
        u = np.kron(np.kron(random_unitary2(rng), random_unitary2(rng)), random_unitary2(rng))
        rotated = pure_from_amplitudes(u @ s.amps)
        assert abs(three_tangle_pure(rotated) - base) <= 1e-10


def test_tangle_from_amps_homogeneous():
    rng = np.random.default_rng(25)
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert abs(tangle_from_amps(2.0 * a) - 16.0 * tangle_from_amps(a)) <= 1e-10 * abs(tangle_from_amps(a))


def test_tangle_from_amps_batched():
    rng = np.random.default_rng(26)
    batch = rng.standard_normal((7, 8)) + 1j * rng.standard_normal((7, 8))
    got = tangle_from_amps(batch)
    expect = np.array([tangle_from_amps(row) for row in batch])
    assert np.max(np.abs(got - expect)) == 0.0


def _tangle_on_strided_views(amps):
    """The expanded polynomial on strided views a[..., i], as the reference."""
    a = np.asarray(amps, dtype=complex)
    return 4.0 * np.abs(hyperdet(*(a[..., i] for i in range(8))))


def test_tangle_from_amps_equals_strided_reference():
    # Cayley's form and the expanded polynomial are one polynomial
    # (test_symbolic.py), so they differ by rounding only: within 1e-14 of
    # |a|^4 on random rows, and not at all on small integers, where neither
    # rounds; for single states and for stacks of any shape
    rng = np.random.default_rng(27)
    amps = rng.standard_normal((600, 8)) + 1j * rng.standard_normal((600, 8))
    ints = rng.integers(-3, 4, (600, 8)) + 1j * rng.integers(-3, 4, (600, 8))
    scale = np.sum(np.abs(amps) ** 2, axis=-1) ** 2
    for row, bound in zip(amps[:200], 1e-14 * scale):
        assert abs(tangle_from_amps(row) - _tangle_on_strided_views(row[None])[0]) <= bound
    for row in ints[:200]:
        assert tangle_from_amps(row) == _tangle_on_strided_views(row[None])[0]
    for shape in ((600, 8), (120, 5, 8), (4, 30, 5, 8)):
        got = tangle_from_amps(amps.reshape(shape))
        assert got.shape == shape[:-1]
        assert np.max(np.abs(got.ravel() - _tangle_on_strided_views(amps)) / scale) <= 1e-14
        stack = ints.reshape(shape)
        assert np.array_equal(tangle_from_amps(stack), _tangle_on_strided_views(stack))


def test_tangle_from_amps_single_state_equals_stack_row():
    # a single state goes through the same array loops as a row of a stack
    rng = np.random.default_rng(5)
    amps = rng.standard_normal((3000, 8)) + 1j * rng.standard_normal((3000, 8))
    stack = tangle_from_amps(amps)
    single = np.array([tangle_from_amps(row) for row in amps])
    assert np.array_equal(single, stack)
    assert tangle_from_amps(amps[0]).shape == ()


def test_concurrence_known_values():
    bell = DensityMatrix(np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0)
    assert abs(concurrence(bell) - 1.0) <= 1e-12
    sep = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex))
    assert concurrence(sep) <= 1e-12
    w_ab = partial_trace_pair(w().density(), "AB")
    assert abs(concurrence(w_ab) - 2 / 3) <= 1e-12


def test_concurrence_pure_two_qubit_formula():
    rng = np.random.default_rng(27)
    for _ in range(50):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        c = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
        got = concurrence(DensityMatrix(np.outer(v, v.conj())))
        assert abs(got - c) <= 1e-12


def test_concurrence_random_mixed_vs_oracle():
    rng = np.random.default_rng(28)
    for _ in range(50):
        wts = rng.random(3)
        wts /= wts.sum()
        mat = np.zeros((4, 4), dtype=complex)
        for wt in wts:
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            mat += wt * np.outer(v, v.conj())
        d = DensityMatrix(mat)
        assert abs(concurrence(d) - concurrence_oracle(mat)) <= 1e-7


def test_concurrence_dimension_error():
    with pytest.raises(BadDimensionError):
        concurrence(ghz().density())


def test_one_tangle_known_values():
    assert abs(one_tangle_pure(ghz()) - 1.0) <= 1e-12
    e000 = pure_from_amplitudes(np.eye(8)[0])
    assert one_tangle_pure(e000) <= 1e-12
    assert abs(one_tangle_pure(w()) - 8 / 9) <= 1e-12


def test_ckw_residual_nonnegative():
    rng = np.random.default_rng(29)
    for _ in range(100):
        s = random_state(rng)
        res = ckw_residual(s)
        assert res >= -1e-10
        assert abs(res - three_tangle_pure(s)) <= 1e-10


def test_ckw_residual_ghz():
    # GHZ: one-tangle 1, both pair concurrences 0, residual equals the tangle
    assert abs(ckw_residual(ghz()) - 1.0) <= 1e-12


def test_ensemble_average_tangle():
    ens = symmetric_ensemble(0.7, 0.2)
    avg = ensemble_average_tangle(ens)
    expect = sum(wt * three_tangle_pure(s) for wt, s in ens)
    assert abs(avg - expect) <= 1e-14
    assert abs(ensemble_average_tangle(symmetric_ensemble(1.0, 0.0)) - 1.0) <= 1e-12
    # one kernel call on the stacked members gives each member's tangle bits
    rng = np.random.default_rng(2804)
    for k in range(1, 9):
        ens = Ensemble([(wt, random_state(rng)) for wt in rng.dirichlet(np.ones(k))])
        expect = sum(wt * three_tangle_pure(s) for wt, s in ens)
        assert ensemble_average_tangle(ens) == expect
