"""The benchmark workloads: seeded inputs, one op, and the op's gate.

Each op calls the library through module attributes (``analytic.thresholds``,
not a name bound at import), so the traced pass sees every call it wraps.
Inputs depend only on the seed; the library receives nothing else.
"""

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from cli_child import MARKER as CHILD_MARKER
from tritangle import analytic, bloch, family, measures, roof, states

N_FIXED = (1.0, 2.0, 3.0, 10.0)
N_LOG10_MAX = 3.0  # log-uniform n in [1, 1e3], drawn by sweep and cli

HERE = Path(__file__).resolve().parent
# per-layer figures of the cli workload; the in-process workloads report 0
CLI_LAYER_UNITS = {
    "cli.process_s": "s/op",
    "cli.import_tritangle_s": "s/op",
    "cli.import_scipy_optimize_s": "s/op",
    "cli.command_s": "s/op",
}


def draw_n(rng):
    """One of {1, 2, 3, 10} or a log-uniform value in [1, 1e3], with equal odds."""
    k = int(rng.integers(len(N_FIXED) + 1))
    if k < len(N_FIXED):
        return N_FIXED[k]
    return float(10.0 ** rng.uniform(0.0, N_LOG10_MAX))


class Workload:
    """Seeded op inputs, drawn in chunks so any index has a fixed input."""

    name = ""
    chunk = 64
    ops_per_round = 1  # a run measures whole rounds of this many ops
    has_accuracy = True

    def __init__(self, seed, out_dir):
        self.seed = int(seed)
        self.out_dir = Path(out_dir)
        self.traced = False
        self._chunks = {}
        self.input_at(0)

    def input_at(self, i):
        k, j = divmod(i, self.chunk)
        if k not in self._chunks:
            rng = np.random.default_rng([self.seed, k])
            self._chunks[k] = [self.draw(rng, k * self.chunk + t) for t in range(self.chunk)]
        return self._chunks[k][j]

    def inputs(self, count):
        return [self.input_at(i) for i in range(count)]

    def draw(self, rng, i):
        raise NotImplementedError

    def prepare(self):
        """Set-up beyond input generation; none for in-process workloads."""

    def warm_up(self):
        self.run(self.input_at(0))

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, result):
        """Return (err, failure): err feeds accuracy_digits, failure names a broken gate."""
        raise NotImplementedError

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_metrics(self, ops):
        return {name: (0.0, unit) for name, unit in CLI_LAYER_UNITS.items()}


class OracleInput(NamedTuple):
    region: str
    n: float
    u: float  # position of p inside the region's threshold interval
    search_seed: int
    restarts: int = 20


class Oracle(Workload):
    """min_avg_tangle(rho(p, (1-p)/n), m=5, restarts=20) on the family.

    A round is three ops, each in a fixed region at a fixed n, so every run
    holds the same mix whatever the seed; the seed draws only where p lies
    inside the region's threshold interval and the search seed. Every op
    spends 13-16 s. The ZERO region is left out: its search misses the 1e-4
    gate on some seeded inputs (test_oracle_zero_region_gate reproduces it).
    """

    name = "oracle"
    chunk = 8
    round = (("ALPHA_I", 2.0), ("ALPHA_I", 10.0), ("ALPHA_II", 3.0))
    ops_per_round = len(round)

    def draw(self, rng, i):
        region, n = self.round[i % self.ops_per_round]
        return OracleInput(region, n, float(rng.uniform(0.02, 0.98)), int(rng.integers(2**31)))

    def warm_up(self):
        # one restart on a fixed input: the set-up cost must not depend on the seed
        self.run(OracleInput("ALPHA_I", 2.0, 0.5, 0, restarts=1))

    def run(self, inp):
        n = inp.n
        th = analytic.thresholds(n)
        lo, hi = {"ZERO": (0.0, th.p0), "ALPHA_I": (th.p0, th.p1), "ALPHA_II": (th.p1, 1.0)}[
            inp.region
        ]
        p = lo + inp.u * (hi - lo)
        res = roof.min_avg_tangle(
            family.rho(p, (1.0 - p) / n), m=5, restarts=inp.restarts, seed=inp.search_seed
        )
        exact = analytic.mixed_three_tangle(p, n, th)
        return (p, res.upper_bound, exact.value, exact.region.value)

    def check(self, inp, result):
        _, upper, exact, region = result
        gap = upper - exact
        if upper < exact - 1e-9:
            return abs(gap), f"upper bound {upper!r} below closed form {exact!r}"
        limit = 1e-4 if region == "ZERO" else 0.02
        if gap > limit:
            return abs(gap), f"{region} gap {gap:.3e} > {limit:g}"
        return abs(gap), None


class SweepInput(NamedTuple):
    p: float
    n: float


class Sweep(Workload):
    """In-process point queries: the library calls of tangle, decompose,
    vanishing and ckw, at (p, n) with n from a seeded pool of 8 values."""

    name = "sweep"
    chunk = 1024
    pool_size = 8

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng([int(seed), 2**32 - 1])
        self.pool = [draw_n(rng) for _ in range(self.pool_size)]
        super().__init__(seed, out_dir)

    def draw(self, rng, i):
        return SweepInput(float(rng.uniform(0.0, 1.0)), self.pool[int(rng.integers(self.pool_size))])

    def run(self, inp):
        p, n = inp
        q = (1.0 - p) / n
        # tangle
        point = analytic.mixed_three_tangle(p, n)
        # decompose
        th = analytic.thresholds(n)
        ens = family.optimal_decomposition(p, n, th)
        target = family.rho(p, q)
        recon = states.trace_distance(states.density_from_ensemble(ens), target)
        average = measures.ensemble_average_tangle(ens)
        exact = analytic.mixed_three_tangle(p, n, th).value
        # vanishing
        vec = bloch.bloch_vector(bloch.qutrit_project(target))
        p0 = analytic.solve_p0(n)
        vertices = bloch.zero_tangle_vertices(n, p0)
        inside, weights = bloch.in_zero_polyhedron(vec, vertices, tol=1e-8)
        residual = float(np.linalg.norm(vertices.T @ weights - vec))
        # ckw, at this point
        margin = analytic.one_tangle_min(p, q) - analytic.concurrence_sum_sq(p, q) - point.value
        return (point.region.value, point.value, recon, average, exact, p0, bool(inside),
                residual, margin)

    def check(self, inp, result):
        _, _, recon, average, exact, p0, inside, _, margin = result
        gap = abs(average - exact)
        err = max(recon, gap)
        if recon > 1e-12:
            return err, f"reconstruction distance {recon:.3e} > 1e-12"
        if gap > 1e-9:
            return err, f"tangle gap {gap:.3e} > 1e-9"
        if inside != (inp.p <= p0 + 1e-6):
            return err, f"vanishing={inside} at p={inp.p!r}, p0={p0!r}"
        if margin < -1e-9:
            return err, f"CKW margin {margin:.3e} < -1e-9"
        return err, None


class CliInput(NamedTuple):
    command: str
    argv: tuple


def _num(x):
    return repr(float(x))


class Cli(Workload):
    """One ``python -m tritangle.cli`` process per op, awaited before the next."""

    name = "cli"
    chunk = 32
    has_accuracy = False
    commands = ("tangle", "decompose", "table1", "vanishing", "ckw")
    ops_per_round = len(commands)
    matrices = 8

    def __init__(self, seed, out_dir):
        self.matrix_dir = Path(out_dir) / f"cli-seed{int(seed)}"
        rng = np.random.default_rng([int(seed), 2**32 - 1])
        self.matrix_params = [
            (float(rng.uniform(0.0, 1.0)), draw_n(rng)) for _ in range(self.matrices)
        ]
        self.child_rss_kb = []
        self.child_reports = []
        super().__init__(seed, out_dir)

    def matrix_path(self, j):
        return self.matrix_dir / f"rho{j}.txt"

    def draw(self, rng, i):
        command = self.commands[i % self.ops_per_round]
        p, n = float(rng.uniform(0.0, 1.0)), draw_n(rng)
        if command in ("tangle", "decompose"):
            argv = (command, "--p", _num(p), "--n", _num(n))
        elif command == "table1":
            argv = (command, "--n-list", *(_num(draw_n(rng)) for _ in range(3)))
        elif command == "vanishing":
            j = int(rng.integers(self.matrices))
            argv = (command, "--in", str(self.matrix_path(j)), "--n", _num(self.matrix_params[j][1]))
        else:
            argv = (command, "--n", _num(n))
        return CliInput(command, argv)

    def prepare(self):
        self.matrix_dir.mkdir(parents=True, exist_ok=True)
        for j, (p, n) in enumerate(self.matrix_params):
            states.save_density_matrix(family.rho(p, (1.0 - p) / n), self.matrix_path(j))

    def run(self, inp):
        if self.traced:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), *inp.argv]
        else:
            cmd = [sys.executable, "-m", "tritangle.cli", *inp.argv]
        out_path = self.out_dir / "cli-stdout.txt"
        err_path = self.out_dir / "cli-stderr.txt"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env())
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read().decode()
            err.seek(0)
            stderr = err.read().decode()
        self.child_rss_kb.append(usage.ru_maxrss)
        if self.traced:
            self.child_reports.append(child_report(stderr, elapsed))
        return (proc.returncode, stdout)

    def peak_rss_mb(self):
        return max(self.child_rss_kb) / 1024.0

    def warm_up(self):
        super().warm_up()
        self.child_rss_kb.clear()
        self.child_reports.clear()

    def layer_metrics(self, ops):
        reports = self.child_reports[-ops:] if ops else []
        return {
            name: (float(np.mean([r[name] for r in reports])) if reports else 0.0, unit)
            for name, unit in CLI_LAYER_UNITS.items()
        }

    def check(self, inp, result):
        code, stdout = result
        if code != 0:
            return None, f"exit code {code}"
        expected = self.expected(inp)
        got = parse_cli_output(inp.command, stdout, {key for key, _ in expected})
        if len(got) != len(expected):
            return None, f"{inp.command}: {len(got)} values printed, {len(expected)} expected"
        for (key, want), (got_key, text) in zip(expected, got):
            if key != got_key or not _same(want, text):
                return None, f"{inp.command}: {got_key}={text} but library gives {key}={want!r}"
        return None, None

    def expected(self, inp):
        """(key, value) pairs the library gives for this command's printed values."""
        args = dict(zip(inp.argv[1::2], inp.argv[2::2]))
        if inp.command == "tangle":
            res = analytic.mixed_three_tangle(float(args["--p"]), float(args["--n"]))
            return [("region", res.region.value), ("value", res.value)]
        if inp.command == "decompose":
            p, n = float(args["--p"]), float(args["--n"])
            th = analytic.thresholds(n)
            ens = family.optimal_decomposition(p, n, th)
            target = family.rho(p, (1.0 - p) / n)
            exact = analytic.mixed_three_tangle(p, n, th)
            pairs = [("members", float(len(ens)))]
            for j, (wt, s) in enumerate(ens):
                amps = tuple(x for z in s.amps for x in (z.real, z.imag))
                pairs += [(f"weight_{j}", wt), (f"state_{j}", amps)]
            return pairs + [
                ("average_tangle", measures.ensemble_average_tangle(ens)),
                ("analytic", exact.value),
                ("region", exact.region.value),
                ("reconstruction_error",
                 states.trace_distance(states.density_from_ensemble(ens), target)),
            ]
        if inp.command == "table1":
            pairs = []
            for text in inp.argv[2:]:
                th = analytic.thresholds(float(text))
                pairs += [("n", th.n), ("p0", th.p0), ("p1", th.p1), ("p_star", th.p_star),
                          ("p_c", th.p_c)]
            return pairs
        if inp.command == "vanishing":
            n = float(args["--n"])
            vec = bloch.bloch_vector(bloch.qutrit_project(states.load_density_matrix(args["--in"])))
            p0 = analytic.solve_p0(n)
            vertices = bloch.zero_tangle_vertices(n, p0)
            inside, weights = bloch.in_zero_polyhedron(vec, vertices, tol=1e-8)
            residual = float(np.linalg.norm(vertices.T @ weights - vec))
            pairs = [("p0", p0), ("vanishing", "true" if inside else "false"),
                     ("residual", residual)]
            return pairs + [(f"weight_{j}", wt) for j, wt in enumerate(weights)]
        audit = analytic.ckw_audit(float(args["--n"]), 1001)
        rows = np.column_stack([audit.p, audit.one_tangle, audit.conc_sq_sum, audit.tau3,
                                audit.margin])
        return [(f"row_{j}", tuple(row)) for j, row in enumerate(rows.tolist())]


def _same(want, text):
    if isinstance(want, str):
        return text == want
    if isinstance(want, tuple):
        return tuple(float(t) for t in text.split()) == want
    return float(text) == want


def parse_cli_output(command, stdout, keys):
    """(key, text) pairs of the values the benchmark checks, in printed order.

    key=value lines with keys outside `keys` (flags such as n_unvalidated, or
    labels such as vertex_order) are skipped. ckw prints CSV; its data rows
    become row_<j> with the fields space-joined.
    """
    lines = stdout.splitlines()
    if command == "ckw":
        return [(f"row_{j}", line.replace(",", " ")) for j, line in enumerate(lines[1:])]
    pairs = []
    for line in lines:
        key, sep, text = line.partition("=")
        if sep and key in keys:
            pairs.append((key, text))
    return pairs


def child_env():
    """The environment of a cli op: this one, with the checkout's src/ first on the path."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child_report(stderr, process_s):
    """Import and command times of one traced cli op, from its ``-X importtime`` stderr."""
    cumulative = {}
    command_s = 0.0
    for line in stderr.splitlines():
        if line.startswith(CHILD_MARKER):
            command_s = json.loads(line[len(CHILD_MARKER):])["command_s"]
        elif line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            name = fields[2].strip()
            if fields[1].strip().isdigit() and name not in cumulative:
                cumulative[name] = int(fields[1]) * 1e-6
    return {
        "cli.process_s": process_s,
        "cli.import_tritangle_s": cumulative.get("tritangle", 0.0),
        "cli.import_scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
        "cli.command_s": command_s,
    }


WORKLOADS = {cls.name: cls for cls in (Oracle, Sweep, Cli)}
