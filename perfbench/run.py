#!/usr/bin/env python3
"""Benchmark for tritangle: one workload, one seed, one run.

    python3 perfbench/run.py --workload oracle --seed 0 --seconds 20 --trace 0

Workloads: oracle, sweep, cli (see perfbench/README.md). With
--trace 0 the last stdout line is a JSON object with the end-to-end metrics;
with --trace 1 the run also repeats its ops under span tracing and reports the
per-layer metrics instead. Every op is checked against its workload's gate.
A JSON record of the run, with a machine fingerprint, goes to perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


class Op(NamedTuple):
    index: int
    input: tuple
    result: object
    error: str
    start: float  # perf_counter() when the op began
    seconds: float


def tail_percentile(samples, ladder=TAIL_LADDER, min_beyond=TAIL_MIN_BEYOND):
    """(percentile, value, samples beyond) for the highest ladder percentile
    that leaves at least min_beyond samples above its nearest-rank value, or
    None when even the lowest does not."""
    ordered = sorted(samples)
    for q in sorted(ladder, reverse=True):
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        beyond = len(ordered) - rank
        if beyond >= min_beyond:
            return q, ordered[rank - 1], beyond
    return None


def accuracy_digits(errors):
    """Median of -log10(max(err, 1e-16)) over the ops that have an error figure."""
    if not errors:
        return None
    return statistics.median(-math.log10(max(e, 1e-16)) for e in errors)


def measure(wl, seconds=None, count=None, before_op=None):
    """Closed loop with one op in flight: start ops until `seconds` have
    elapsed and a whole round of wl.ops_per_round ops is done, or run exactly `count`
    ops. Returns (ops, wall seconds)."""
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        inp = wl.input_at(i)
        if before_op is not None:
            before_op(i)
        t0 = time.perf_counter()
        try:
            result, error = wl.run(inp), None
        except Exception as exc:  # a valid input that raises is a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        ops.append(Op(i, inp, result, error, t0, t1 - t0))
        if count is not None and len(ops) >= count:
            break
        if count is None and t1 - start >= seconds and len(ops) % wl.ops_per_round == 0:
            break
    return ops, time.perf_counter() - start


def set_up_and_measure(wl, seconds):
    """Prepare, run one untimed warm-up op, then time ops for `seconds`."""
    wl.prepare()
    wl.warm_up()
    return measure(wl, seconds=seconds)


def gate(wl, ops):
    """Check every op; return (op index -> failure, list of error figures)."""
    failures = {}
    errors = []
    for op in ops:
        if op.error is not None:
            failures[op.index] = op.error
            continue
        err, failure = wl.check(op.input, op.result)
        if err is not None:
            errors.append(err)
        if failure is not None:
            failures[op.index] = failure
    return failures, errors


def probe_setup(workload, seed):
    """Seconds from starting a fresh interpreter until it reports ready for ops."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode} after {line!r}")
    return elapsed


def fingerprint(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git": git_state(),
        "seed": seed,
    }


def git_state():
    if not (ROOT / ".git").exists():
        return None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True).stdout.strip()
        # only the library's own changes make the measured program differ from the sha
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no", "--", "src"], check=True,
                               capture_output=True, text=True).stdout.strip() != ""
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"sha": sha, "dirty": dirty}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle", "sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "tritangle" / "__init__.py").is_file():
        print(f"error: no tritangle package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    if args.setup_probe:
        wl.prepare()
        wl.warm_up()
        print("ready", flush=True)
        return 0

    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    ops, wall = set_up_and_measure(wl, args.seconds)
    peak_rss_mb = wl.peak_rss_mb()

    traced = []
    restored = True
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        wl.traced = True
        try:
            traced, traced_wall = measure(
                wl, count=len(ops), before_op=lambda i: setattr(tracer, "current_op", i)
            )
        finally:
            leftovers = tracer.uninstall()
            wl.traced = False
        restored = not leftovers
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    failures, errors = gate(wl, ops)
    divergent = [a.index for a, b in zip(ops, traced)
                 if (repr(a.result), a.error) != (repr(b.result), b.error)]
    for i in divergent:
        failures.setdefault(i, "traced result differs from untraced result")
    latencies_ms = [op.seconds * 1e3 for op in ops]
    completed = sum(op.error is None for op in ops)

    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (completed / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {"ops_attempted": (len(ops), "count"), "ops_failed": (len(failures), "count")}
    tail = tail_percentile(latencies_ms)
    if tail is not None:
        q, value, beyond = tail
        extra["op_tail_ms"] = (value, f"ms (p{q:g}, {beyond} of {len(ops)} ops beyond)")
    digits = accuracy_digits(errors) if wl.has_accuracy else None
    if digits is not None:
        extra["accuracy_digits"] = (digits, "digits")

    per_layer = {}
    if args.trace:
        per_layer.update(tracing.layer_metrics(tracer, len(traced)))
        per_layer.update(wl.layer_metrics(len(traced)))
        per_layer["trace.overhead_s"] = (traced_wall - wall, "s")
        per_layer["trace.ops"] = (len(traced), "count")

    shown = per_layer if args.trace else end_to_end
    for name, (value, unit) in {**end_to_end, **extra, **per_layer}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for i, why in sorted(failures.items()):
        print(f"{args.workload} failed op {i}: {why}")
    if args.trace:
        print(f"{args.workload} trace neutral: {not divergent}, names restored: {restored}")

    correct = not failures and restored
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "fingerprint": fingerprint(args.seed),
        "setup_samples_s": setup, "op_latencies_ms": latencies_ms,
        "failures": {str(i): why for i, why in failures.items()},
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in {**end_to_end, **extra, **per_layer}.items()},
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
