#!/usr/bin/env python3
"""iScope benchmark: build the harness from source, run one workload.

    python3 perfbench/run.py --workload fig8_paper --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (which compiles the
repository's src/ and the iscope_serve daemon) into .bench_build/ with
CMake, runs the harness and passes its output through: the last line of
standard output is the result JSON. Build output goes to standard error.
Exits non-zero, printing no result, when the sources or the build are
missing or the harness fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig8_paper", "hyperscale_sharded", "daemon_stream")
RUN_TIMEOUT_S = 170
# Every run's outcomes are checked against this table; write_expected.py
# regenerates it.
EXPECTED = os.path.join(HERE, "expected.tsv")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD_DIR, "iscope_perfbench")
SERVE = os.path.join(BUILD_DIR, "iscope", "service", "iscope_serve")
WORKDIR = os.path.join(BUILD_DIR, "run")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no iScope sources next to perfbench/ (src/CMakeLists.txt)")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    os.makedirs(WORKDIR, exist_ok=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--expected", EXPECTED, "--serve-bin", SERVE, "--workdir", WORKDIR]
    # Own process group, so a timeout also stops any daemon the harness
    # spawned.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"harness exited with {code}")


if __name__ == "__main__":
    main()
