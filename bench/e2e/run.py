#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 bench/e2e/run.py --workload fig5 --seed 42 --seconds 15 \
        --trace 0 [--out result.json]

Run from the repository root. The first call configures and builds
bench/e2e into .bench_build/e2e (Release); later calls only re-check
the build. An untraced run first times set-up alone in extra processes
(the calibration memo lives for one process): at least seven, and more
until their set-ups add up to 4 s, at most 31. setup_s is the median of
those and the run's own. A traced run writes its Chrome trace to
.bench_build/traces/<workload>-<seed>.json. The last stdout line is the
benchmark's JSON result; the exit code is the benchmark's.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "dpx_bench")
# Every child must end well inside the 180 s a run may take.
DEADLINE_S = 170.0
# Set-ups timed in processes of their own, besides the run's own: a
# short set-up is timed more often, so its median is as steady.
SETUP_EXTRA_MIN = 7
SETUP_EXTRA_MAX = 31
SETUP_EXTRA_SECONDS = 4.0


def run_logged(cmd, log):
    """Run a build step, appending its output to the build log."""
    with open(log, "a") as fh:
        return subprocess.run(cmd, cwd=ROOT, stdout=fh,
                              stderr=subprocess.STDOUT).returncode


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dpx_bench",
                  "-j", "4"])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            with open(log) as fh:
                sys.stderr.write(fh.read()[-4000:])
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def run_child(cmd, started):
    """Run the benchmark binary; kill it if it would overrun."""
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise subprocess.TimeoutExpired(cmd, 0)
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=left)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out", help="also write the full result record")
    args = parser.parse_args()

    started = time.monotonic()
    if not build():
        return 1
    base = [BINARY, "--workload", args.workload, "--seed", str(args.seed)]
    try:
        cmd = base + ["--seconds", str(args.seconds), "--trace", args.trace]
        if args.trace == "0":
            extra = []
            while len(extra) < SETUP_EXTRA_MAX and (
                    len(extra) < SETUP_EXTRA_MIN or
                    sum(map(float, extra)) < SETUP_EXTRA_SECONDS):
                setup = run_child(base + ["--setup-only"], started)
                if setup.returncode != 0:
                    return setup.returncode
                extra.append(setup.stdout.split()[-1])
            cmd += ["--setup-extra", ",".join(extra)]
        else:
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "%s-%d.json" % (args.workload, args.seed))]
        if args.out:
            cmd += ["--out", os.path.abspath(args.out)]
        result = run_child(cmd, started)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark overran %.0f s\n" % DEADLINE_S)
        return 1
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
