#!/usr/bin/env python3
"""Run the benchmark over several seeds, in one or more sets, and report each
metric's spread and each set's median against the metric's bound.

    python3 perfbench/repeat.py --workloads sweep cli --seeds 5
    python3 perfbench/repeat.py --seeds 10 --sets 2 --trace --out perfbench/baseline.json

Each run is ``run.py --workload W --seed S --seconds <run_seconds>`` with
run_seconds from BENCHMARK.json, for seeds 0 .. N-1. For every end-to-end
metric the spread is (Q3 - Q1) / median over the seeds of one set, with
quartiles from statistics.quantiles(values, n=4). Each later set's median is
compared with the first set's: it may be worse by at most the metric's bound.
A metric whose spread passes its bound in any set, or whose median moves past
it, is reported as over its bound, and the exit code is 1. With --trace, one
traced run (seed 0) per workload adds the per-layer metrics. --out writes the
summary, with the machine fingerprint.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json") as fh:
        record = json.load(fh)
    return result, record, elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf")}


def run_set(workload, seeds, seconds):
    """Untraced runs of seeds 0 .. seeds-1: (all correct, wall times, values by metric)."""
    values = {}
    correct = True
    walls = []
    fingerprint = None
    for seed in range(seeds):
        result, record, elapsed = run_once(workload, seed, seconds, 0)
        correct &= result["correct"] and result["failed"] == 0
        walls.append(elapsed)
        fingerprint = {**record["fingerprint"], "seed": None}
        for name, metric in record["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']}, "
              + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    return correct, walls, values, fingerprint


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    higher_is_better = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    summary = {"run_seconds": seconds, "seeds": args.seeds, "sets": args.sets, "workloads": {}}
    within = True
    for workload in args.workloads:
        summary["workloads"][workload] = {"sets": [], "over_bound": []}
    for k in range(args.sets):
        for workload in args.workloads:
            entry = summary["workloads"][workload]
            correct, walls, values, fingerprint = run_set(workload, args.seeds, seconds)
            summary["fingerprint"] = fingerprint
            table = {}
            for name, vals in values.items():
                row = {**spread(vals), "values": vals}
                flag = ""
                if name in bounds:
                    bound = row["bound"] = bounds[name]
                    over = row["spread"] > bound
                    flag = "OVER bound" if over else "within bound"
                    if k > 0:
                        first = entry["sets"][0]["metrics"][name]["median"]
                        worse = (row["median"] - first) / first
                        if name in higher_is_better:
                            worse = -worse
                        row["worse_than_set_1"] = worse
                        over |= worse > bound
                        flag += f"; median vs set 1 {worse:+.3f}" + (
                            " OVER bound" if worse > bound else "")
                    if over and name not in entry["over_bound"]:
                        entry["over_bound"].append(name)
                    within &= not over
                table[name] = row
                print(f"  set {k + 1} {name:>16}: median {row['median']:.5g}"
                      f"  spread {row['spread']:.3f}  bound {row.get('bound', '-')}  {flag}",
                      flush=True)
            within &= correct
            entry["sets"].append({"correct": correct, "run_wall_s": walls, "metrics": table})
    if args.trace:
        for workload in args.workloads:
            result, record, elapsed = run_once(workload, 0, seconds, 1)
            summary["workloads"][workload]["traced"] = {
                "correct": result["correct"], "run_wall_s": elapsed,
                "per_layer": record["metrics"]}
            within &= result["correct"]
            print(f"{workload} traced run: {elapsed:.1f} s, correct={result['correct']}",
                  flush=True)
    summary["within_bounds"] = within
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
