#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs each workload as two sets of runs, one run per seed 1..10, and prints
for every end-to-end metric each set's median and quartiles, the spread
(distance between the quartiles as a share of the median) against the
metric's bound in BENCHMARK.json, and how far the second set's median moved
from the first set's.

    python3 e2ebench/steady.py [--workload NAME ...]

Run it from the repository root. It runs the command BENCHMARK.json names,
so set CARGO_TARGET_DIR to reuse an existing build. Exits non-zero when a
run fails, a spread exceeds its bound, or either set's median is worse than
the other's by more than the bound (the order the sets ran in is chance, so
the check goes both ways).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETS = 2
SEEDS = range(1, 11)


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(argv)} reported incorrect output")
    return wall, {name: m["value"] for name, m in result["metrics"].items()}


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args()

    spec = bench["end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        sets = []
        for s in range(SETS):
            runs = []
            for seed in SEEDS:
                wall, metrics = run_once(bench["command"], workload, seed,
                                         bench["run_seconds"])
                runs.append(metrics)
                values = " ".join(f"{m['name']}={metrics[m['name']]:.6g}"
                                  for m in spec)
                print(f"# {workload} set {s + 1} seed {seed} ({wall:.1f} s): "
                      f"{values}", file=sys.stderr, flush=True)
            sets.append(runs)
        print(f"\n{workload}: {SETS} sets x {len(SEEDS)} seeds "
              f"(seeds {SEEDS[0]}..{SEEDS[-1]})")
        print(f"{'metric':<28}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}{'shift':>9}")
        for m in spec:
            name, bound = m["name"], m["bound"]
            first_median = None
            for s, runs in enumerate(sets):
                values = [r[name] for r in runs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med) if med else float("inf")
                if first_median is None:
                    first_median, shift, apart = med, 0.0, 0.0
                else:
                    shift = med / first_median - 1 if first_median else 0.0
                    # How much worse one median is than the other, in
                    # either direction.
                    apart = max(shift, 1 / (1 + shift) - 1) \
                        if shift > -1 else float("inf")
                flag = ""
                if spread > bound:
                    flag += " SPREAD>BOUND"
                elif spread > bound / 3:
                    flag += " (spread>bound/3)"
                if apart > bound:
                    flag += " SHIFT>BOUND"
                ok &= "BOUND" not in flag
                print(f"{name:<28}{s + 1:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.4f}{bound:>8}{shift:>+9.4f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
