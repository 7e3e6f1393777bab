#!/usr/bin/env python3
"""Runs one workload N times with consecutive seeds and prints the spread.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds <s>] [--trace 0|1]

For each metric it prints the median, the quartiles and min/max of the N
values, and the spread: (q3 - q1) / median, with the quartiles taken from
statistics.quantiles(values, n=4). For end-to-end metrics it also prints
the bound from BENCHMARK.json. The bounds were set from this output (see
README.md). --seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values, shares = {}, []
    units = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(a.seconds), "--trace", a.trace],
            stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT).stdout
        r = json.loads(out.strip().splitlines()[-1])
        if not r["correct"]:
            print(out, file=sys.stderr)
            sys.exit(f"seed {seed}: checks failed")
        shares.append(r["failed"] / r["attempted"])
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted {r['attempted']} failed {r['failed']}", file=sys.stderr)

    print(f"{a.workload}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}, "
          f"{a.seconds} s, trace {a.trace}; failed shares {sorted(set(shares))}")
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print(f"{name:<36} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {min(xs):>12.4f} {max(xs):>12.4f} "
              f"{spread:>8.4f} {bound if bound is not None else '':>6} {units[name]}")


if __name__ == "__main__":
    main()
