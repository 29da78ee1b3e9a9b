#!/usr/bin/env python3
"""Run the benchmark in sets and print each metric's median and quartiles.

Each set runs every selected workload once per seed; sets reuse the same
seeds, so two sets of the same code should agree.  For every metric the
script prints, per set, the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread (Q3 - Q1) / median,
then the change of each later set's median against the first set's.  With
the end-to-end metrics (`--trace 0`), it also compares both against the
bounds in BENCHMARK.json and exits 1 if a spread (other than `setup_s`) or
a median change exceeds its bound.

Runs the command in BENCHMARK.json from the repository root, e.g.:

    python3 perfbench/compare.py --workload cold_tenant --runs 10 --sets 2
    python3 perfbench/compare.py --runs 5 --sets 1 --seed-base 100
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    record = json.loads(lines[-1])
    if not record["correct"] or record["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect or failed ops: {lines[-1]}")
    return {name: m["value"] for name, m in record["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10, help="runs per set, one seed each")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed-base", type=int, default=1, help="seeds are seed-base .. seed-base + runs - 1")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    command = spec["command"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    over = []
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                runs.append(run_once(root, command, workload, args.seed_base + r, args.seconds, args.trace))
                print(f"  {workload} set {s + 1} seed {args.seed_base + r}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items() if k in bounds or args.trace),
                      flush=True)
            sets.append(runs)
        print(f"{workload}: {args.sets} set(s) x {args.runs} run(s), {args.seconds} s each")
        for name in sets[0][0]:
            base = None
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summary([r[name] for r in runs])
                line = f"  {name:<26} set {s + 1}: median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}"
                bound = bounds.get(name)
                if bound and not args.trace:
                    limit = bound["bound"]
                    if base is None:
                        base = med
                    else:
                        worse = (med - base) / base if bound["better"] == "lower" else (base - med) / base
                        line += f"  change {worse:+.4f}"
                        if worse > limit:
                            over.append(f"{workload} {name}: set {s + 1} median worse by {worse:.4f} > {limit}")
                    line += f"  (bound {limit}, spread/bound {spread / limit:.2f})"
                    if name != "setup_s" and spread > limit:
                        over.append(f"{workload} {name}: spread {spread:.4f} > bound {limit}")
                print(line)
    for o in over:
        print("OVER BOUND:", o)
    sys.exit(1 if over else 0)


if __name__ == "__main__":
    main()
