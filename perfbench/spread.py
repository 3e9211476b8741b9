#!/usr/bin/env python3
"""Run a workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 ... [--trace 0]

The spread of a metric is the distance between the first and third
quartile of its values (statistics.quantiles, n=4) as a share of their
median -- the figure BENCHMARK.json's bounds are checked against.
"""

import argparse
import json
import statistics
import subprocess
import sys


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=int, nargs="+")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = json.load(f)["run_seconds"]

    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, check=True,
        ).stdout.decode()
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    if len(args.seeds) >= 2:
        for k, vs in values.items():
            print(f"{k:28s} median {statistics.median(vs):12.6g}  spread {spread(vs):.4f}")


if __name__ == "__main__":
    main()
