#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage, from the root of a RAGO checkout:

    python3 perfbench/run.py --workload rag_scan --seed 1 --seconds 20 --trace 0

The first call configures and builds the repository's libraries and the
benchmark binary into the build directory (``$CARGO_TARGET_DIR`` when
set, else ``.bench_build``); later calls only re-check the build. Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The exit code is the benchmark's (non-zero on a failed
correctness check) or 2 when the build fails.

``--self-test`` builds and runs the correctness checks' own tests
instead of a workload. A traced run (``--trace 1``) writes its spans as
a Chrome trace to ``spans-<workload>-<seed>.json`` in the build
directory.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(target):
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", BUILD_JOBS])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return out / target


def main(argv):
    target = "checks_test" if "--self-test" in argv else "rag_bench"
    binary = build(target)
    if binary is None:
        return 2
    args = [a for a in argv if a != "--self-test"]
    if target == "rag_bench" and "--spans-out" not in args:
        # The traced run writes its spans next to the build.
        tag = "-".join(args[i + 1] for i in range(len(args) - 1)
                       if args[i] in ("--workload", "--seed"))
        args += ["--spans-out", str(binary.parent / f"spans-{tag}.json")]
    return subprocess.run([str(binary)] + args, cwd=str(ROOT)).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
