#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 tirbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds an
optimised tree (the repo's src/ libraries plus tirbench.cpp, no tests) under
.bench_build/ (or $CARGO_TARGET_DIR when set); later calls only re-check it.
The driver's stdout is passed through: its last line is the JSON result.
Exits non-zero when the build fails, the checkout has no sources, the run
fails a check, or it does not finish in time.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lu-b64-titb-smpi", "tird-closed-mix")
RUN_TIMEOUT_S = 170


def fail(message):
    print("tirbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_root):
    build_dir = os.path.join(build_root, "tirbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_root, "tirbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "tirbench", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "tirbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sources at %s/src; run from the root of a full checkout" % ROOT)
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)

    # Relative to the checkout root: the daemon's unix socket lives in the
    # work directory, and socket paths are limited to 107 bytes.
    work = os.path.relpath(os.path.join(build_root, "work-%d" % os.getpid()), ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--work", work]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = None
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    if code is None:
        fail("run did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
