#!/usr/bin/env python3
"""Builds the ticket benchmark from source and runs one workload.

    python3 ticketbench/run.py --workload univ_acl_serial --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds a Release
tree under .bench_build/ticketbench (the repository's libraries plus the
ticketbench binary); later calls only rebuild what changed. Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result. Traced
runs write their folded span table and raw spans under .bench_build/artifacts.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "ticketbench"


def run_quiet(command):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"run.py: {' '.join(map(str, command))} failed ({result.returncode})")


def revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (BUILD / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", ROOT / "ticketbench", "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD, "--target", "ticketbench",
               "-j", str(os.cpu_count() or 1)])

    command = [BUILD / "ticketbench", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--artifacts", ROOT / ".bench_build" / "artifacts", "--revision", revision()]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
