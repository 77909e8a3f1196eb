"""Command-line front end: threshold tables, curve and CKW data, single-point
queries, decomposition construction, zero-tangle decisions, and the
decomposition-search oracle."""

import argparse
import json
import sys

import numpy as np

from .analytic import (
    ckw_audit,
    mixed_three_tangle,
    solve_p0,
    thresholds,
)
from .bloch import (
    bloch_vector,
    hull_residual,
    in_zero_polyhedron,
    qutrit_project,
    zero_tangle_vertices,
)
from .errors import (
    BadDimensionError,
    BadParamsError,
    EmptyInputError,
    NotIsometryError,
    OutOfSpanError,
    ZeroVectorError,
)
from .family import optimal_decomposition, rho
from .measures import ensemble_average_tangle
from .roof import characteristic_curve, lower_convex_envelope, min_avg_tangle, rank_of
from .states import density_from_ensemble, load_density_matrix, trace_distance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INEQUALITY = 3
EXIT_OUT_OF_SPAN = 4

_DEFAULT_N_LIST = [1, 2, 3, 10, 100, 1000]
_MARGIN_FLOOR = -1e-9


def _fmt(x):
    return f"{float(x):.17g}"


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _is_integer(n):
    return abs(n - round(n)) <= 1e-9


def cmd_table1(args):
    records = [thresholds(n) for n in args.n_list]
    if args.json:
        payload = [
            {"n": th.n, "p0": th.p0, "p1": th.p1, "p_star": th.p_star, "p_c": th.p_c}
            for th in records
        ]
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
        return EXIT_OK
    blocks = [th.record() for th in records]
    _emit("\n\n".join(blocks) + "\n", args.output)
    return EXIT_OK


def cmd_curves(args):
    n = args.n
    curve = characteristic_curve(n, p_points=args.p_points, phi_points=args.phi_points)
    env = lower_convex_envelope(np.column_stack([curve.p, curve.tau_min]))
    th = thresholds(n)
    lines = ["p,tau_min,tau_analytic,envelope"]
    env_vals = env(curve.p)
    for p, tmin, e in zip(curve.p, curve.tau_min, env_vals):
        ana = mixed_three_tangle(p, n, th).value
        lines.append(f"{p:.17g},{tmin:.17g},{ana:.17g},{e:.17g}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_ckw(args):
    audit = ckw_audit(args.n, args.p_points)
    lines = ["p,one_tangle,conc_sq_sum,tau3,margin"]
    for p, one, conc, tau, margin in zip(
        audit.p, audit.one_tangle, audit.conc_sq_sum, audit.tau3, audit.margin
    ):
        lines.append(f"{p:.17g},{one:.17g},{conc:.17g},{tau:.17g},{margin:.17g}")
    _emit("\n".join(lines) + "\n", args.output)
    if audit.min_margin < _MARGIN_FLOOR:
        print(f"error: inequality violated, min margin {audit.min_margin:.3e}", file=sys.stderr)
        return EXIT_INEQUALITY
    return EXIT_OK


def cmd_tangle(args):
    result = mixed_three_tangle(args.p, args.n)
    lines = []
    if not _is_integer(args.n):
        lines.append("n_unvalidated=true")
    lines.append(f"region={result.region.value}")
    lines.append(f"value={_fmt(result.value)}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_decompose(args):
    n = args.n
    th = thresholds(n)
    ens = optimal_decomposition(args.p, n, th)
    target = rho(args.p, (1.0 - args.p) / n)
    err = trace_distance(density_from_ensemble(ens), target)
    avg = ensemble_average_tangle(ens)
    analytic = mixed_three_tangle(args.p, n, th)
    lines = []
    if not _is_integer(n):
        lines.append("n_unvalidated=true")
    lines.append(f"members={len(ens)}")
    for j, (wt, s) in enumerate(ens):
        lines.append(f"weight_{j}={_fmt(wt)}")
        amps = " ".join(f"{z.real:.17g} {z.imag:.17g}" for z in s.amps)
        lines.append(f"state_{j}={amps}")
    lines.append(f"average_tangle={_fmt(avg)}")
    lines.append(f"analytic={_fmt(analytic.value)}")
    lines.append(f"region={analytic.region.value}")
    lines.append(f"reconstruction_error={_fmt(err)}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_vanishing(args):
    rho_in = load_density_matrix(args.infile)
    if rho_in.dim != 8:
        raise BadDimensionError(f"vanishing expects an 8x8 matrix, got dim {rho_in.dim}")
    n = args.n
    sigma = qutrit_project(rho_in)
    vec = bloch_vector(sigma)
    p0 = solve_p0(n)
    vertices = zero_tangle_vertices(n, p0)
    inside, weights = in_zero_polyhedron(vec, vertices, tol=args.tol)
    residual = hull_residual(vec, vertices, weights)
    lines = []
    if not _is_integer(n):
        lines.append("n_unvalidated=true")
    lines.append(f"p0={_fmt(p0)}")
    lines.append(f"vanishing={'true' if inside else 'false'}")
    lines.append(f"residual={_fmt(residual)}")
    lines.append("vertex_order=W,W_TILDE,Z_00,Z_12,Z_21")
    for j, wt in enumerate(weights):
        lines.append(f"weight_{j}={_fmt(wt)}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_oracle(args):
    rho_in = load_density_matrix(args.infile)
    if rho_in.dim != 8:
        raise BadDimensionError(f"oracle expects an 8x8 matrix, got dim {rho_in.dim}")
    r = rank_of(rho_in)
    m = args.m if args.m is not None else min(r + 2, 8)
    result = min_avg_tangle(rho_in, m, restarts=args.restarts, seed=args.seed)
    lines = [
        f"rank={r}",
        f"m={m}",
        f"restarts_used={result.restarts_used}",
        f"converged={'true' if result.converged else 'false'}",
        f"upper_bound={_fmt(result.upper_bound)}",
    ]
    family_info = _family_parameters(rho_in)
    if family_info is not None:
        p, n_eff = family_info
        analytic = mixed_three_tangle(p, n_eff)
        lines.append("family=true")
        lines.append(f"p={_fmt(p)}")
        lines.append(f"n_eff={_fmt(n_eff)}")
        if not _is_integer(n_eff):
            lines.append("n_unvalidated=true")
        lines.append(f"analytic={_fmt(analytic.value)}")
        lines.append(f"gap={_fmt(result.upper_bound - analytic.value)}")
    else:
        lines.append("family=false")
    print("\n".join(lines))
    return EXIT_OK


def _family_parameters(rho_in):
    """(p, effective n) when the input is a diagonal GHZ/W/W~ mixture, else None."""
    try:
        sigma = qutrit_project(rho_in)
    except OutOfSpanError:
        return None
    s = sigma.mat
    off = np.max(np.abs(s - np.diag(np.diag(s))))
    if off > 1e-10:
        return None
    p = float(s[0, 0].real)
    q = float(s[1, 1].real)
    if q <= 1e-12:
        # pure GHZ/W~ mixture: bit-flip of the n=1 family, same tangle
        return p, 1.0
    if p >= 1.0 - 1e-15:
        return 1.0, 1.0
    return p, (1.0 - p) / q


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tritangle",
        description="Three-tangle of three-qubit states: closed forms, decomposition "
        "search, and qutrit Bloch membership tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tab = sub.add_parser("table1", help="threshold table p0/p1/p_star/p_c per n")
    p_tab.add_argument("--n-list", type=float, nargs="+", default=_DEFAULT_N_LIST)
    p_tab.add_argument("--json", action="store_true")
    p_tab.add_argument("-o", "--output", default=None)
    p_tab.set_defaults(func=cmd_table1)

    p_cur = sub.add_parser("curves", help="characteristic curve, analytic curve, envelope CSV")
    p_cur.add_argument("--n", type=float, required=True)
    p_cur.add_argument("--p-points", type=int, default=401)
    p_cur.add_argument("--phi-points", type=int, default=64)
    p_cur.add_argument("-o", "--output", default=None)
    p_cur.set_defaults(func=cmd_curves)

    p_ckw = sub.add_parser("ckw", help="one-tangle / concurrence-sum / tangle margin CSV")
    p_ckw.add_argument("--n", type=float, required=True)
    p_ckw.add_argument("--p-points", type=int, default=1001)
    p_ckw.add_argument("-o", "--output", default=None)
    p_ckw.set_defaults(func=cmd_ckw)

    p_tan = sub.add_parser("tangle", help="piecewise mixture tangle at one (p, n)")
    p_tan.add_argument("--p", type=float, required=True)
    p_tan.add_argument("--n", type=float, required=True)
    p_tan.set_defaults(func=cmd_tangle)

    p_dec = sub.add_parser("decompose", help="optimal ensemble at one (p, n)")
    p_dec.add_argument("--p", type=float, required=True)
    p_dec.add_argument("--n", type=float, required=True)
    p_dec.set_defaults(func=cmd_decompose)

    p_van = sub.add_parser("vanishing", help="zero-tangle polyhedron membership")
    p_van.add_argument("--in", dest="infile", required=True)
    p_van.add_argument("--n", type=float, required=True)
    p_van.add_argument("--tol", type=float, default=1e-8)
    p_van.set_defaults(func=cmd_vanishing)

    p_orc = sub.add_parser("oracle", help="decomposition-search upper bound on the tangle")
    p_orc.add_argument("--in", dest="infile", required=True)
    p_orc.add_argument("--m", type=int, default=None)
    p_orc.add_argument("--restarts", type=int, default=20)
    p_orc.add_argument("--seed", type=int, default=0)
    p_orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except OutOfSpanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_SPAN
    except (
        BadParamsError,
        BadDimensionError,
        ZeroVectorError,
        NotIsometryError,
        EmptyInputError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
