#!/usr/bin/env python3
"""Builds lht_perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload lookup|ingest|scan --seed N \
        --seconds S --trace 0|1

The build goes to .bench_build/ at the checkout root (configured once,
then only brought up to date). Build output goes to stderr; the
benchmark's report and result lines go to stdout, the result last.
A --trace 1 run also writes .bench_build/traces/<workload>-seed<N>.json,
a Chrome trace of the traced phase (see perfbench/README.md).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lht_perfbench")


def build():
    """Configures (first time) and builds the benchmark; returns success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry the configure next time
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "lht_perfbench",
           "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["lookup", "ingest", "scan"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={'true' if args.trace else 'false'}"]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append(f"--trace-out={traces}/{args.workload}-seed{args.seed}.json")

    # Become the benchmark, so it keeps this pid. Its own handler reaps the
    # daemons on SIGINT, SIGTERM and SIGHUP, and a SIGKILL sent to this pid
    # takes them down too: they are started with PR_SET_PDEATHSIG.
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(BINARY, cmd)


if __name__ == "__main__":
    sys.exit(main())
