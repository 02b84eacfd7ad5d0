#!/usr/bin/env python3
"""Build the benchmark harness and the daemon from source, then run one workload
on one core.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Build output goes to stderr; the harness's
standard output, whose last line is the JSON result, is passed through.  The
exit code is the harness's, or 1 when the build fails.
"""

import os
import subprocess
import sys

HARNESS = os.path.join("_build", "default", "perfbench", "main.exe")
TARGETS = ["./perfbench/main.exe", "./bin/ee_synthd.exe"]
RUN_TIMEOUT_S = 170


def main():
    # Build without dune's shared cache, with temporary files in the checkout.
    tmp = os.path.abspath(os.path.join(".perfbench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
        )
    except FileNotFoundError:
        print("perfbench: dune is not installed", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.isfile(HARNESS):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Run the harness, and the daemon it spawns, on one core.  The daemon
    # has three domains (acceptor, shard, worker); left to the scheduler on
    # two cores, serve_mix ran either at about 0.020 s or at about 0.0135 s
    # per block depending on where the domains landed, so its run-to-run
    # spread was 0.46 of the median.  On one core every run sees the same
    # placement (spread 0.035).  The batch workloads are single-threaded.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    proc = subprocess.Popen([HARNESS] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The harness reaps its own daemon when it exits; SIGTERM lets it.
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
