#!/usr/bin/env python3
"""Builds the pseq end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark program (perfbench/pseq_perfbench.cpp) is compiled with the
library sources in ../src into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; an up-to-date build
is reused. Build output goes to stderr. The program runs inside the build
directory, so the files it creates (the serve workload's socket) stay
there, and its standard output is passed through unchanged: the last line
is the JSON result. The exit code is the program's, or 1 when the build
fails or the program outlives its time limit.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINARY = "pseq_perfbench"


def seconds_arg(argv):
    """The --seconds value, or None when it is missing or malformed."""
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds" and value.isdigit():
            return int(value)
    return None


def build(build_dir):
    steps = []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", BINARY,
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"run.py: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    seconds = seconds_arg(argv)
    # A run takes --seconds plus set-up and a second of warm-up; anything
    # far beyond that is a hang.
    limit = 3 * seconds + 60 if seconds is not None else 60
    proc = subprocess.Popen([os.path.join(build_dir, BINARY)] + argv,
                            cwd=build_dir, start_new_session=True)
    try:
        return proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"run.py: {BINARY} exceeded {limit} s; killed", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
