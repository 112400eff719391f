#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload zoom-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench/ (the library sources under src/ plus the benchmark) in
Release mode into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench,
then runs one workload. The program's stdout passes through unchanged: its
last line is the JSON result. Build output goes to stderr. Exits non-zero
when the build fails, the sources are missing, a check fails, or the run
overstays its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("zoom-batch", "serve-zoom", "serve-live")
RUN_LIMIT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no sources at %s/src\n" % ROOT)
        return None
    out = build_dir()
    stamp = os.path.join(out, "source-dir")
    # A build tree configured from another checkout cannot be reused.
    if os.path.isfile(stamp) and open(stamp).read() != HERE:
        subprocess.run(["rm", "-rf", out], check=False)
    os.makedirs(out, exist_ok=True)
    with open(stamp, "w") as f:
        f.write(HERE)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            return None
    return os.path.join(out, target)


def run(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_LIMIT_S)
        return 124


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_test")
        return 1 if binary is None else run([binary])
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("perfbench")
    if binary is None:
        return 2
    sys.stdout.flush()
    return run([binary, "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--work-dir", os.path.join(ROOT, ".bench_work"),
                "--out-dir", os.path.join(ROOT, ".bench_out")])


if __name__ == "__main__":
    sys.exit(main())
