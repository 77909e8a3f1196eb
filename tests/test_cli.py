import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import tritangle.cli as cli
from tritangle import (
    DensityMatrix,
    Ensemble,
    alpha_I,
    characteristic_curve,
    density_from_ensemble,
    ghz,
    pi_state,
    pure_from_amplitudes,
    rho,
    save_density_matrix,
    thresholds,
    w,
    w_tilde,
)

TABLE_P0 = (0.6269, 0.75, 0.7452, 0.712, 0.6604, 0.6382)
TABLE_P1 = (0.7087, 0.9330, 0.9250, 0.8667, 0.7710, 0.7298)
TABLE_P_STAR = (0.8257, 0.9618, 0.9572, 0.9230, 0.8650, 0.8391)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    return dict(line.split("=", 1) for line in text.strip().split("\n"))


def save(tmp_path, name, dm):
    path = tmp_path / name
    save_density_matrix(dm, path)
    return str(path)


def test_table1_default(capsys):
    code, out, err = run(capsys, ["table1"])
    assert code == cli.EXIT_OK
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 6
    for block, n, p0, p1, ps in zip(blocks, (1, 2, 3, 10, 100, 1000), TABLE_P0, TABLE_P1, TABLE_P_STAR):
        kv = parse_kv(block)
        assert set(kv) == {"n", "p0", "p1", "p_star", "p_c"}
        assert float(kv["n"]) == n
        assert abs(float(kv["p0"]) - p0) <= 5e-4
        assert abs(float(kv["p1"]) - p1) <= 5e-4
        assert abs(float(kv["p_star"]) - ps) <= 5e-4
        th = thresholds(n)
        got = [float(kv[k]) for k in ("p0", "p1", "p_star", "p_c")]
        assert got == [th.p0, th.p1, th.p_star, th.p_c]  # 17 significant digits round-trip


def test_table1_json(capsys):
    code, out, err = run(capsys, ["table1", "--json", "--n-list", "2", "10"])
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert [rec["n"] for rec in payload] == [2.0, 10.0]
    th = thresholds(2.0)
    assert payload[0]["p0"] == th.p0
    assert payload[0]["p_c"] == th.p_c


def test_table1_output_file(tmp_path, capsys):
    target = tmp_path / "table.txt"
    code, out, err = run(capsys, ["table1", "--n-list", "2", "-o", str(target)])
    assert code == cli.EXIT_OK
    assert out == ""
    kv = parse_kv(target.read_text())
    assert abs(float(kv["p0"]) - 0.75) <= 5e-4


def test_table1_rejects_bad_n(capsys):
    code, out, err = run(capsys, ["table1", "--n-list", "0.5"])
    assert code == cli.EXIT_USAGE
    assert err.startswith("error:")


def test_tangle_zero_region_exact_output(capsys):
    code, out, err = run(capsys, ["tangle", "--p", "0.5", "--n", "2"])
    assert code == cli.EXIT_OK
    assert out == "region=ZERO\nvalue=0\n"


def test_tangle_plateau_value(capsys):
    code, out, err = run(capsys, ["tangle", "--p", "0.9", "--n", "2"])
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    assert kv["region"] == "ALPHA_I"
    assert abs(float(kv["value"]) - alpha_I(0.9, 2.0)) <= 1e-15


def test_tangle_non_integer_n_flagged(capsys):
    code, out, err = run(capsys, ["tangle", "--p", "0.99", "--n", "2.5"])
    assert code == cli.EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "n_unvalidated=true"
    assert parse_kv(out)["region"] == "ALPHA_II"


def test_tangle_bad_p(capsys):
    code, out, err = run(capsys, ["tangle", "--p", "1.5", "--n", "2"])
    assert code == cli.EXIT_USAGE
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tangle", "--p", "nan", "--n", "3"], "error: p must"),
        (["tangle", "--p", "inf", "--n", "3"], "error: p must"),
        (["tangle", "--p", "0.8", "--n", "nan"], "error: n must"),
        (["tangle", "--p", "0.8", "--n", "inf"], "error: n must"),
        (["tangle", "--p", "0.8", "--n", "1e155"], "error: n must"),
        (["tangle", "--p", "0.8", "--n", "1e300"], "error: n must"),
        (["table1", "--n-list", "2", "nan"], "error: n must"),
        (["decompose", "--p", "nan", "--n", "2"], "error: p must"),
        (["decompose", "--p", "0.8", "--n", "1e300"], "error: n must"),
        (["ckw", "--n", "inf"], "error: n must"),
        (["curves", "--n", "nan", "--p-points", "3"], "error: n must"),
    ],
)
def test_non_finite_and_huge_inputs_exit_usage(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith(message)


def test_vanishing_rejects_huge_n(tmp_path, capsys):
    path = save(tmp_path, "rho.txt", rho(0.5, 0.25))
    code, out, err = run(capsys, ["vanishing", "--in", path, "--n", "1e160"])
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: n must")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_vanishing_rejects_bad_tol(tmp_path, capsys, tol):
    # rho(0.3, 0.35) lies inside the n = 2 polyhedron
    path = save(tmp_path, "rho.txt", rho(0.3, 0.35))
    code, out, err = run(capsys, ["vanishing", "--in", path, "--n", "2", "--tol", tol])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: tol must")


def test_largest_n_accepted(capsys):
    code, out, err = run(capsys, ["tangle", "--p", "0.8", "--n", "1e150"])
    assert code == cli.EXIT_OK
    assert parse_kv(out)["region"] == "ALPHA_II"


def test_missing_argument(capsys):
    code, out, err = run(capsys, ["tangle", "--p", "0.5"])
    assert code == cli.EXIT_USAGE


def test_unknown_command(capsys):
    code, out, err = run(capsys, ["frobnicate"])
    assert code == cli.EXIT_USAGE


def test_decompose_plateau_boundary(capsys):
    code, out, err = run(capsys, ["decompose", "--p", "0.9330", "--n", "2"])
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    assert kv["members"] == "3"
    assert kv["region"] == "ALPHA_I"
    for j in range(3):
        assert abs(float(kv[f"weight_{j}"]) - 1.0 / 3.0) <= 1e-12
        assert len(kv[f"state_{j}"].split()) == 16
    assert float(kv["reconstruction_error"]) <= 1e-12
    assert abs(float(kv["average_tangle"]) - float(kv["analytic"])) <= 1e-9


@pytest.mark.parametrize("outside, edge", [("-1e-13", "0"), ("1.0000000000001", "1")])
def test_decompose_clips_p_once(capsys, outside, edge):
    # a p a rounding outside [0, 1] builds the ensemble and the target it is
    # checked against from the same clipped p
    got = run(capsys, ["decompose", f"--p={outside}", "--n", "2"])
    assert got == run(capsys, ["decompose", "--p", edge, "--n", "2"])
    assert parse_kv(got[1])["reconstruction_error"] == "0"


def test_decompose_takes_n_a_rounding_below_one_as_one(capsys):
    # check_n takes such an n as 1, for the ensemble and its target alike
    got = run(capsys, ["decompose", "--p", "0.3", "--n", "0.9999999999999"])
    assert got[0] == cli.EXIT_OK
    assert got == run(capsys, ["decompose", "--p", "0.3", "--n", "1"])


def test_decompose_zero_region(capsys):
    code, out, err = run(capsys, ["decompose", "--p", "0.3", "--n", "2"])
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    assert kv["members"] == "5"
    assert kv["region"] == "ZERO"
    assert float(kv["analytic"]) == 0.0
    assert float(kv["average_tangle"]) <= 1e-9
    assert float(kv["reconstruction_error"]) <= 1e-12


def test_decompose_top_region(capsys):
    code, out, err = run(capsys, ["decompose", "--p", "0.98", "--n", "2"])
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    assert kv["members"] == "4"
    assert kv["region"] == "ALPHA_II"
    p1 = thresholds(2.0).p1
    assert abs(float(kv["weight_0"]) - (0.98 - p1) / (1.0 - p1)) <= 1e-12
    assert float(kv["reconstruction_error"]) <= 1e-12


def test_ckw_csv(capsys):
    code, out, err = run(capsys, ["ckw", "--n", "1", "--p-points", "101"])
    assert code == cli.EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "p,one_tangle,conc_sq_sum,tau3,margin"
    assert len(lines) == 102
    assert lines[-1] == "1,1,0,1,0"
    data = np.loadtxt(lines[1:], delimiter=",")
    assert data[:, 4].min() >= -1e-9


def test_ckw_inequality_exit_code(monkeypatch, capsys):
    arr = np.array([0.0])
    fake = SimpleNamespace(
        p=arr, one_tangle=arr, conc_sq_sum=arr, tau3=np.array([0.5]),
        margin=np.array([-0.5]), min_margin=-0.5,
    )
    monkeypatch.setattr(cli, "ckw_audit", lambda n, k: fake)
    code, out, err = run(capsys, ["ckw", "--n", "1", "--p-points", "1"])
    assert code == cli.EXIT_INEQUALITY
    assert "inequality" in err


def test_curves_small(capsys):
    code, out, err = run(capsys, ["curves", "--n", "2", "--p-points", "41"])
    assert code == cli.EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "p,tau_min,tau_analytic,envelope"
    data = np.loadtxt(lines[1:], delimiter=",")
    assert data.shape == (41, 4)
    assert data[0, 0] == 0.0 and data[-1, 0] == 1.0
    assert abs(data[-1, 1] - 1.0) <= 1e-12
    assert abs(data[-1, 2] - 1.0) <= 1e-12
    assert np.all(data[:, 3] <= data[:, 1] + 1e-12)  # envelope below the curve
    curve = characteristic_curve(2.0, p_points=41)
    assert np.array_equal(data[:, 0], curve.p)  # exact round trip
    assert np.array_equal(data[:, 1], curve.tau_min)


def test_curves_reproducible(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, ["curves", "--n", "1", "--p-points", "21", "-o", str(a)])
    run(capsys, ["curves", "--n", "1", "--p-points", "21", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.slow
def test_curves_envelope_crossing_n10(capsys):
    # the envelope leaves zero at the first threshold
    code, out, err = run(capsys, ["curves", "--n", "10", "--p-points", "1001"])
    assert code == cli.EXIT_OK
    data = np.loadtxt(out.strip().split("\n")[1:], delimiter=",")
    below = data[data[:, 3] <= 1e-4]
    crossing = below[:, 0].max()
    assert abs(crossing - 0.712) <= 1e-3


def test_vanishing_inside(tmp_path, capsys):
    path = save(tmp_path, "rho.txt", rho(0.5, 0.25))
    code, out, err = run(capsys, ["vanishing", "--in", path, "--n", "2"])
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    assert kv["vanishing"] == "true"
    assert abs(float(kv["p0"]) - 0.75) <= 1e-9
    assert kv["vertex_order"] == "W,W_TILDE,Z_00,Z_12,Z_21"
    weights = [float(kv[f"weight_{j}"]) for j in range(5)]
    expect = [1.0 / 6.0, 1.0 / 6.0, 2.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0]
    assert np.max(np.abs(np.array(weights) - expect)) <= 1e-6
    assert float(kv["residual"]) <= 1e-8


def test_vanishing_outside(tmp_path, capsys):
    path = save(tmp_path, "ghz.txt", ghz().density())
    code, out, err = run(capsys, ["vanishing", "--in", path, "--n", "2"])
    assert code == cli.EXIT_OK
    assert parse_kv(out)["vanishing"] == "false"


def test_vanishing_out_of_span(tmp_path, capsys):
    path = save(tmp_path, "basis.txt", pure_from_amplitudes(np.eye(8)[0]).density())
    code, out, err = run(capsys, ["vanishing", "--in", path, "--n", "2"])
    assert code == cli.EXIT_OUT_OF_SPAN
    assert err.startswith("error:")


def test_vanishing_missing_file(capsys):
    code, out, err = run(capsys, ["vanishing", "--in", "/nonexistent/x.txt", "--n", "2"])
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("command", [["vanishing", "--n", "2"], ["oracle"]])
def test_non_finite_matrix_file_exits_usage(tmp_path, capsys, command):
    mat = rho(0.3, 0.35).mat.copy()
    mat[0, 1] = mat[1, 0] = math.nan
    path = tmp_path / "nan.txt"
    rows = (" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) for row in mat)
    path.write_text("8\n" + "\n".join(rows) + "\n")
    code, out, err = run(capsys, [command[0], "--in", str(path), *command[1:]])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: matrix entries must be finite\n"


@pytest.mark.parametrize("command", ["vanishing", "oracle"])
def test_wrong_dimension_names_the_command(tmp_path, capsys, command):
    path = save(tmp_path, "qubit.txt", DensityMatrix(np.eye(2) / 2))
    argv = [command, "--in", path] + (["--n", "2"] if command == "vanishing" else [])
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_USAGE
    assert err.startswith(f"error: {command} expects a DensityMatrix of dimension 8")


def test_vanishing_wrong_dimension(tmp_path, capsys):
    path = save(tmp_path, "qubit.txt", DensityMatrix(np.eye(2) / 2))
    code, out, err = run(capsys, ["vanishing", "--in", path, "--n", "2"])
    assert code == cli.EXIT_USAGE


@pytest.mark.slow
def test_oracle_family_plateau(tmp_path, capsys):
    path = save(tmp_path, "rho.txt", rho(0.8, 0.1))
    code, out, err = run(capsys, ["oracle", "--in", path])
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    assert kv["rank"] == "3"
    assert kv["m"] == "5"
    assert kv["restarts_used"] == "20"
    assert kv["family"] == "true"
    assert abs(float(kv["p"]) - 0.8) <= 1e-12
    assert abs(float(kv["n_eff"]) - 2.0) <= 1e-9
    gap = float(kv["gap"])
    assert -1e-9 <= gap <= 0.02


def test_oracle_zero_region(tmp_path, capsys):
    path = save(tmp_path, "rho.txt", rho(0.3, 0.35))
    code, out, err = run(capsys, ["oracle", "--in", path, "--restarts", "6"])
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    assert kv["family"] == "true"
    assert float(kv["analytic"]) == 0.0
    assert float(kv["upper_bound"]) <= 1e-4


def test_oracle_converges_in_the_zero_region(tmp_path, capsys):
    # with 3 restarts the best one crept along a kink of |D| to a cap of 500
    # iterations and 8 pairs, and printed converged=false at 1.07e-5
    path = save(tmp_path, "rho.txt", rho(0.3, 0.35))
    code, out, err = run(capsys, ["oracle", "--in", path, "--restarts", "3"])
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    assert kv["converged"] == "true"
    assert float(kv["upper_bound"]) <= 1e-12


def test_oracle_json_adds_the_restart_telemetry(tmp_path, capsys):
    path = save(tmp_path, "rho.txt", rho(0.9, 0.05))
    _, text, _ = run(capsys, ["oracle", "--in", path, "--restarts", "3"])
    code, out, err = run(capsys, ["oracle", "--in", path, "--restarts", "3", "--json"])
    assert code == cli.EXIT_OK
    (rec,) = json.loads(out)
    kv = parse_kv(text)
    # the key=value record, in its order, then the telemetry
    assert list(rec) == [*kv, "restart_values", "restart_nfev", "restarts_agreeing", "restart_stops"]
    assert {key: cli._fmt(rec[key]) for key in kv} == kv
    assert min(rec["restart_values"]) == rec["upper_bound"]
    assert len(rec["restart_nfev"]) == len(rec["restart_stops"]) == 3
    assert 1 <= rec["restarts_agreeing"] <= 3
    assert set(rec["restart_stops"]) <= {"no_step", "small_step", "cap"}


def test_oracle_non_family_state(tmp_path, capsys):
    plus = pure_from_amplitudes(w().amps + w_tilde().amps)
    mix = density_from_ensemble(Ensemble([(0.5, ghz()), (0.5, plus)]))
    path = save(tmp_path, "mix.txt", mix)
    code, out, err = run(capsys, ["oracle", "--in", path, "--restarts", "2"])
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    assert kv["rank"] == "2"
    assert kv["family"] == "false"
    assert "gap" not in kv


def test_oracle_pi_state_outside_span(tmp_path, capsys):
    path = save(tmp_path, "pi.txt", pi_state(0.5, math.inf))
    code, out, err = run(capsys, ["oracle", "--in", path, "--restarts", "2"])
    assert code == cli.EXIT_OK
    assert parse_kv(out)["family"] == "false"


def test_oracle_deterministic(tmp_path, capsys):
    plus = pure_from_amplitudes(w().amps + w_tilde().amps)
    mix = density_from_ensemble(Ensemble([(0.5, ghz()), (0.5, plus)]))
    path = save(tmp_path, "mix.txt", mix)
    _, first, _ = run(capsys, ["oracle", "--in", path, "--restarts", "2"])
    _, second, _ = run(capsys, ["oracle", "--in", path, "--restarts", "2"])
    assert first == second


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--restarts", "0"), ("--m", "9")])
def test_oracle_bad_search_argument_names_it(tmp_path, capsys, flag, value):
    path = save(tmp_path, "rho.txt", rho(0.3, 0.35))
    code, out, err = run(capsys, ["oracle", "--in", path, flag, value])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {flag[2:]} must")
