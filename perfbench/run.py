#!/usr/bin/env python3
"""Build the simulator's benchmark program and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which builds the simulator library from this
checkout's sources) into .bench_build/, then runs it. Its last
stdout line is the JSON result; build output goes to
stderr. --trace 1 also writes the traced run's spans to
.bench_out/spans-<workload>.json (Chrome trace-event format). The
exit code is the program's: nonzero when the build fails or any
correctness or determinism check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"


def build() -> bool:
    """Configure once, then build the program incrementally."""
    ninja = shutil.which("ninja") is not None
    configured = (BUILD / ("build.ninja" if ninja else "Makefile")).exists()
    if not configured:
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD)]
        if ninja:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{args.workload}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
