#!/usr/bin/env python3
"""Build and run the fpopt end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. It configures and builds perfbench/ (a
CMake package that compiles the library sources under src/) into
.bench_build/perfbench, then runs the driver binary. The driver's output
passes through unchanged: human-readable lines, then one JSON result line,
which is the last line of stdout. With --workload all every workload runs
in turn, each printing its own result line. Build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["bounded_fp4", "anneal_incremental", "service_mixed"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under src/ (run from a full checkout)")
    source = os.path.join(ROOT, "perfbench")
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", source, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, "fpopt_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    driver = build()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        cmd = [driver, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
        code = subprocess.run(cmd).returncode
        if code != 0:
            print("perfbench: %s exited with %d" % (workload, code), file=sys.stderr)
            status = code
    return status


if __name__ == "__main__":
    sys.exit(main())
