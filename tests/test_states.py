import numpy as np
import pytest

from tritangle import (
    BadDimensionError,
    BadParamsError,
    DensityMatrix,
    Ensemble,
    PureState3,
    ZeroVectorError,
    density_from_ensemble,
    eigh_desc,
    ghz,
    load_density_matrix,
    partial_trace,
    partial_trace_pair,
    pure_from_amplitudes,
    rho,
    save_density_matrix,
    symmetric_ensemble,
    trace_distance,
    w,
)
from tritangle.states import check_density


def random_state(rng):
    a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return pure_from_amplitudes(a)


def random_density(rng, k=4):
    members = []
    wts = rng.random(k)
    wts /= wts.sum()
    for wt in wts:
        members.append((wt, random_state(rng)))
    return density_from_ensemble(Ensemble(members))


def bits(i):
    return ((i >> 2) & 1, (i >> 1) & 1, i & 1)


def partial_trace_oracle(mat, keep):
    # direct summation over the traced-out qubit labels
    out = np.zeros((2, 2), dtype=complex)
    for a in range(8):
        for b in range(8):
            ba, bb = bits(a), bits(b)
            other = [x for x in range(3) if x != keep]
            if all(ba[x] == bb[x] for x in other):
                out[ba[keep], bb[keep]] += mat[a, b]
    return out


def partial_trace_pair_oracle(mat, keep):
    out = np.zeros((4, 4), dtype=complex)
    for a in range(8):
        for b in range(8):
            ba, bb = bits(a), bits(b)
            other = [x for x in range(3) if x not in keep][0]
            if ba[other] == bb[other]:
                ia = 2 * ba[keep[0]] + ba[keep[1]]
                ib = 2 * bb[keep[0]] + bb[keep[1]]
                out[ia, ib] += mat[a, b]
    return out


def test_pure_from_amplitudes_basis_state():
    s = pure_from_amplitudes([1, 0, 0, 0, 0, 0, 0, 0])
    assert np.max(np.abs(s.amps - np.eye(8)[0])) == 0.0


def test_pure_from_amplitudes_normalizes():
    s = pure_from_amplitudes([1, 0, 0, 0, 0, 0, 0, 1])
    assert abs(np.linalg.norm(s.amps) - 1.0) <= 1e-15
    assert abs(s.amps[0] - 1 / np.sqrt(2)) <= 1e-15


def test_pure_from_amplitudes_zero_vector():
    with pytest.raises(ZeroVectorError):
        pure_from_amplitudes(np.zeros(8))


def test_pure_state_rejects_unnormalized():
    with pytest.raises(BadParamsError):
        PureState3(np.ones(8))


def test_pure_state_amps_read_only():
    s = ghz()
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


def test_density_matrix_validation():
    bad = np.eye(8, dtype=complex) / 8
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(BadParamsError):
        DensityMatrix(bad)
    with pytest.raises(BadParamsError):
        DensityMatrix(np.eye(8) / 4)  # trace 2
    neg = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(BadParamsError):
        DensityMatrix(neg)
    with pytest.raises(BadDimensionError):
        DensityMatrix(np.eye(5) / 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_rejected(bad):
    mat = np.eye(8, dtype=complex) / 8
    mat[0, 1] = mat[1, 0] = bad  # Hermitian, trace 1
    with pytest.raises(BadParamsError, match="finite"):
        DensityMatrix(mat)
    amps = ghz().amps.copy()
    amps[3] = bad
    with pytest.raises(BadParamsError):
        PureState3(amps)
    with pytest.raises(BadParamsError):
        Ensemble([(bad, ghz())])
    with pytest.raises(BadParamsError):
        Ensemble([(0.5, ghz()), (bad, w())])


def test_check_density_names_the_caller():
    two = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    assert check_density(two, 2, "f") is two
    for bad in (two, two.mat, None):
        with pytest.raises(BadDimensionError, match="^g expects a DensityMatrix of dimension 8"):
            check_density(bad, 8, "g")
    # one exception family for every malformed input
    assert issubclass(BadDimensionError, BadParamsError)


def test_ensemble_validation():
    with pytest.raises(BadParamsError):
        Ensemble([(0.5, ghz()), (0.2, w())])  # weights sum 0.7
    with pytest.raises(BadParamsError):
        Ensemble([(1.5, ghz()), (-0.5, w())])


def test_density_from_ensemble_pure_case():
    d = density_from_ensemble(Ensemble([(1.0, ghz())]))
    assert np.max(np.abs(d.mat - np.outer(ghz().amps, ghz().amps.conj()))) <= 1e-15


def test_density_from_ensemble_diagonal_mix():
    e000 = pure_from_amplitudes(np.eye(8)[0])
    e111 = pure_from_amplitudes(np.eye(8)[7])
    d = density_from_ensemble(Ensemble([(0.5, e000), (0.5, e111)]))
    expect = np.zeros((8, 8))
    expect[0, 0] = expect[7, 7] = 0.5
    assert np.max(np.abs(d.mat - expect)) <= 1e-15
    # random mixes, bit for bit: outer products, weighted, summed in member order
    rng = np.random.default_rng(2803)
    for k in range(1, 9):
        ens = Ensemble([(wt, random_state(rng)) for wt in rng.dirichlet(np.ones(k))])
        expect = np.zeros((8, 8), dtype=complex)
        for wt, s in ens:
            assert np.array_equal(s.density().mat, np.outer(s.amps, s.amps.conj()))
            expect += wt * np.outer(s.amps, s.amps.conj())
        assert np.array_equal(density_from_ensemble(ens).mat, expect)


def test_symmetric_ensemble_reconstructs_rho():
    for p in np.linspace(0.0, 1.0, 6):
        for q in np.linspace(0.0, 1.0, 6):
            if p + q > 1.0:
                continue
            d = density_from_ensemble(symmetric_ensemble(p, q))
            assert trace_distance(d, rho(p, q)) <= 1e-12


def test_partial_trace_known_values():
    half = np.diag([0.5, 0.5])
    assert np.max(np.abs(partial_trace(ghz().density(), "A").mat - half)) <= 1e-15
    e000 = pure_from_amplitudes(np.eye(8)[0])
    assert np.max(np.abs(partial_trace(e000.density(), "A").mat - np.diag([1.0, 0.0]))) <= 1e-15
    w_a = partial_trace(w().density(), "A").mat
    oracle = partial_trace_oracle(w().density().mat, 0)
    assert np.max(np.abs(w_a - oracle)) <= 1e-15
    assert np.max(np.abs(w_a - np.diag([2 / 3, 1 / 3]))) <= 1e-15


def test_partial_trace_random_vs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = random_density(rng)
        for label, axis in (("A", 0), ("B", 1), ("C", 2)):
            got = partial_trace(d, label).mat
            assert np.max(np.abs(got - partial_trace_oracle(d.mat, axis))) <= 1e-13


def test_partial_trace_pair_known_values():
    ghz_ab = partial_trace_pair(ghz().density(), "AB").mat
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.max(np.abs(ghz_ab - expect)) <= 1e-15
    # W reduced to AB: (1/3)|00><00| + (2/3)|psi+><psi+|
    psi_plus = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
    expect = np.zeros((4, 4))
    expect[0, 0] = 1 / 3
    expect += (2 / 3) * np.outer(psi_plus, psi_plus)
    w_ab = partial_trace_pair(w().density(), "AB").mat
    assert np.max(np.abs(w_ab - expect)) <= 1e-15
    e000 = pure_from_amplitudes(np.eye(8)[0])
    prod = partial_trace_pair(e000.density(), "AB").mat
    assert np.max(np.abs(prod - np.diag([1.0, 0, 0, 0]))) <= 1e-15


def test_partial_trace_pair_random_vs_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        d = random_density(rng)
        for label, axes in (("AB", (0, 1)), ("AC", (0, 2)), ("BC", (1, 2))):
            got = partial_trace_pair(d, label).mat
            assert np.max(np.abs(got - partial_trace_pair_oracle(d.mat, axes))) <= 1e-13


def test_partial_trace_dimension_errors():
    two = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(BadDimensionError):
        partial_trace(two, "A")
    with pytest.raises(BadDimensionError):
        partial_trace_pair(two, "AB")
    with pytest.raises(BadParamsError):
        partial_trace(ghz().density(), "D")


def test_partial_trace_linearity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        k = 3
        wts = rng.random(k)
        wts /= wts.sum()
        states = [random_state(rng) for _ in range(k)]
        ens = Ensemble(list(zip(wts, states)))
        full = partial_trace(density_from_ensemble(ens), "B").mat
        avg = sum(wt * partial_trace(s.density(), "B").mat for wt, s in zip(wts, states))
        assert np.max(np.abs(full - avg)) <= 1e-12


def test_trace_distance_values():
    d = ghz().density()
    assert trace_distance(d, d) == 0.0
    p0 = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
    p1 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    assert abs(trace_distance(p0, p1) - 1.0) <= 1e-15
    mixed = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    assert abs(trace_distance(p0, mixed) - 0.5) <= 1e-15


def test_trace_distance_dimension_mismatch():
    a = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
    with pytest.raises(BadDimensionError):
        trace_distance(a, ghz().density())


def test_trace_distance_triangle_inequality():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a, b, c = (random_density(rng) for _ in range(3))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10


def test_eigh_desc_sorted():
    rng = np.random.default_rng(15)
    d = random_density(rng)
    vals, vecs = eigh_desc(d.mat)
    assert np.all(np.diff(vals) <= 0)
    recon = (vecs * vals) @ vecs.conj().T
    assert np.max(np.abs(recon - d.mat)) <= 1e-12


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    d = random_density(rng)
    path = tmp_path / "rho.txt"
    save_density_matrix(d, path)
    back = load_density_matrix(path)
    assert back.dim == 8
    assert np.max(np.abs(back.mat - d.mat)) <= 1e-16


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 0 0 0\n")
    with pytest.raises(BadParamsError):
        load_density_matrix(path)
    path.write_text("")
    with pytest.raises(BadParamsError):
        load_density_matrix(path)


@pytest.mark.parametrize("dim", ["-2", "0"])
def test_load_rejects_non_positive_dimension(tmp_path, dim):
    path = tmp_path / "bad.txt"
    path.write_text(dim + "\n" + " ".join(["0.25"] * 8) + "\n")
    with pytest.raises(BadParamsError, match="dimension must be a positive integer"):
        load_density_matrix(path)
