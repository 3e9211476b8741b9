#!/usr/bin/env python3
"""Build the benchmark harness and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The harness is built from source with
dune (into _build/), then run; its standard output, whose last line is
the JSON result, is passed through. Exits non-zero without a result
when the repository sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["fig4-fluid", "fig7-optimum", "scenario-churn", "loadsweep-tcp"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# A run measures --seconds of fixed work plus set-up; the traced run
# also replays it. Stay inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    for needed in ("dune-project", "lib", "scenarios", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            sys.exit(f"perfbench: {needed} not found; run from the repository root")

    # --cache=disabled keeps every build artifact inside the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        sys.exit(f"perfbench: build failed (exit {build.returncode})")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
