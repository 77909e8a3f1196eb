"""Command-line front end: threshold tables, curve and CKW data, single-point
queries, decomposition construction, zero-tangle decisions, and the
decomposition-search oracle.

At module level only the closed forms are imported, which need no numpy; each
command that builds states or searches imports those modules itself, so
table1, ckw and tangle run without numpy. json is imported only for --json.
"""

import argparse
import sys
from enum import Enum

from .analytic import ckw_audit, mixed_three_tangle, solve_p0, thresholds
from .errors import OutOfSpanError
from .params import check_p

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INEQUALITY = 3
EXIT_OUT_OF_SPAN = 4

_DEFAULT_N_LIST = [1, 2, 3, 10, 100, 1000]
_MARGIN_FLOOR = -1e-9


def _fmt(x):
    """Every printed value: floats at 17 significant digits, so they read back
    exactly; bools as true/false; enums by value; sequences space-separated.
    numpy scalars and arrays print as the Python values their tolist() gives."""
    if type(x) is float:  # most values; numpy.float64 is a float subclass and goes on
        return f"{x:.17g}"
    if hasattr(x, "tolist"):
        x = x.tolist()
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Enum):
        return x.value
    if isinstance(x, (str, int)):
        return str(x)
    if isinstance(x, (list, tuple)):
        return " ".join(map(_fmt, x))
    return f"{float(x):.17g}"


def _render(out, as_json):
    """The text of a command's output: CSV for a dict of equal-length columns,
    headed by their names; for a list of records (dicts), key=value lines with
    a blank line between records, or a JSON array with as_json."""
    if as_json:
        import json

        return json.dumps(out, indent=2) + "\n"
    if isinstance(out, dict):
        rows = (",".join(map(_fmt, row)) for row in zip(*out.values()))
        return "\n".join([",".join(out), *rows]) + "\n"
    blocks = ("\n".join(f"{key}={_fmt(value)}" for key, value in rec.items()) for rec in out)
    return "\n\n".join(blocks) + "\n"


def _n_flag(n):
    """The n_unvalidated=true line for a non-integer n, or nothing."""
    return {} if abs(n - round(n)) <= 1e-9 else {"n_unvalidated": True}


def cmd_table1(args):
    return [thresholds(n)._asdict() for n in args.n_list], EXIT_OK


def cmd_curves(args):
    import numpy as np

    from .roof import characteristic_curve, lower_convex_envelope

    n = args.n
    curve = characteristic_curve(n, p_points=args.p_points)
    env = lower_convex_envelope(np.column_stack([curve.p, curve.tau_min]))
    th = thresholds(n)
    columns = {"p": curve.p, "tau_min": curve.tau_min}
    columns["tau_analytic"] = [mixed_three_tangle(p, n, th).value for p in curve.p]
    columns["envelope"] = env(curve.p)
    return columns, EXIT_OK


def cmd_ckw(args):
    audit = ckw_audit(args.n, args.p_points)
    columns = {k: getattr(audit, k) for k in ("p", "one_tangle", "conc_sq_sum", "tau3", "margin")}
    if audit.min_margin < _MARGIN_FLOOR:
        print(f"error: inequality violated, min margin {audit.min_margin:.3e}", file=sys.stderr)
        return columns, EXIT_INEQUALITY
    return columns, EXIT_OK


def cmd_tangle(args):
    result = mixed_three_tangle(args.p, args.n)
    return [{**_n_flag(args.n), "region": result.region, "value": result.value}], EXIT_OK


def cmd_decompose(args):
    from .family import optimal_decomposition, rho
    from .measures import ensemble_average_tangle
    from .states import density_from_ensemble, trace_distance

    n = args.n
    th = thresholds(n)
    p = check_p(args.p)  # one clipped p for the ensemble and the target it rebuilds
    ens = optimal_decomposition(p, n, th)
    target = rho(p, (1.0 - p) / th.n)  # th.n is n checked, as the ensemble takes it
    err = trace_distance(density_from_ensemble(ens), target)
    avg = ensemble_average_tangle(ens)
    analytic = mixed_three_tangle(p, n, th)
    rec = {**_n_flag(n), "members": len(ens)}
    for j, (wt, s) in enumerate(ens):
        rec[f"weight_{j}"] = wt
        rec[f"state_{j}"] = s.amps.view(float)  # real, imaginary, real, ...
    rec.update(average_tangle=avg, analytic=analytic.value, region=analytic.region)
    rec["reconstruction_error"] = err
    return [rec], EXIT_OK


def cmd_vanishing(args):
    from .bloch import (
        bloch_vector,
        hull_residual,
        in_zero_polyhedron,
        qutrit_project,
        zero_tangle_vertices,
    )
    from .states import check_density, load_density_matrix

    rho_in = check_density(load_density_matrix(args.infile), 8, "vanishing")
    n = args.n
    sigma = qutrit_project(rho_in)
    vec = bloch_vector(sigma)
    p0 = solve_p0(n)
    vertices = zero_tangle_vertices(n, p0)
    inside, weights = in_zero_polyhedron(vec, vertices, tol=args.tol)
    rec = {
        **_n_flag(n),
        "p0": p0,
        "vanishing": inside,
        "residual": hull_residual(vec, vertices, weights),
        "vertex_order": "W,W_TILDE,Z_00,Z_12,Z_21",
    }
    rec.update((f"weight_{j}", wt) for j, wt in enumerate(weights))
    return [rec], EXIT_OK


def cmd_oracle(args):
    from .roof import min_avg_tangle, rank_of
    from .states import check_density, load_density_matrix

    rho_in = check_density(load_density_matrix(args.infile), 8, "oracle")
    r = rank_of(rho_in)
    m = args.m if args.m is not None else min(r + 2, 8)
    result = min_avg_tangle(rho_in, m, restarts=args.restarts, seed=args.seed)
    rec = {
        "rank": r,
        "m": m,
        "restarts_used": result.restarts_used,
        "converged": result.converged,
        "upper_bound": result.upper_bound,
        "family": False,
    }
    family_info = _family_parameters(rho_in)
    if family_info is not None:
        p, n_eff = family_info
        analytic = mixed_three_tangle(p, n_eff)
        rec.update(family=True, p=p, n_eff=n_eff, **_n_flag(n_eff))
        rec.update(analytic=analytic.value, gap=result.upper_bound - analytic.value)
    if args.json:
        telemetry = ("restart_values", "restart_nfev", "restarts_agreeing", "restart_stops")
        rec.update((key, getattr(result, key)) for key in telemetry)
    return [rec], EXIT_OK


def _family_parameters(rho_in):
    """(p, effective n) when the input is a diagonal GHZ/W/W~ mixture, else None."""
    import numpy as np

    from .bloch import qutrit_project

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
    p_orc.add_argument("--json", action="store_true")
    p_orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        out, code = args.func(args)
        text = _render(out, getattr(args, "json", False))
        path = getattr(args, "output", None)
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", newline="\n") as fh:
                fh.write(text)
        return code
    except OutOfSpanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_SPAN
    except (OSError, ValueError) as exc:  # every other package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
