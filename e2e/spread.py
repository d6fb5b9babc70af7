#!/usr/bin/env python3
"""Run the benchmark as its driver does and print each metric's spread.

For every workload in BENCHMARK.json this runs the declared command with
`--trace 0` once per seed and prints, per end-to-end metric, the median
and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, beside
the metric's bound. A spread above a third of the bound is flagged:
the benchmark is accepted only while every spread except `setup_s`'s
stays within its bound.

    python3 e2e/spread.py [--seeds 10] [--first-seed 1] [--workload NAME ...]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    names = opts.workload or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for workload in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} operations failed")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
                if spread > m["bound"]:
                    flag = "  OVER THE BOUND"
                elif spread > m["bound"] / 3:
                    flag = "  over a third of the bound"
            print(f"{workload:<15} {m['name']:<12} median {med:>14.6f} {m['unit']:<4} "
                  f"spread {spread:7.2%}  bound {m['bound']:4.0%}{flag}", flush=True)
            if opts.values:
                print("   ", " ".join(f"{x:.4g}" for x in v), flush=True)
    print(f"worst spread is {worst:.2f} of its bound")


if __name__ == "__main__":
    main()
