#!/usr/bin/env python3
"""Fixed-work benchmark of the dramscoped daemon.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload miss|hit|query --seed N \
        --seconds N --trace 0|1

Builds the shipped `dramscoped` binary and the `perfbench` harness from
source (into $CARGO_TARGET_DIR, default `.bench_build`), then runs the
harness, which drives the daemon and prints the result object as the last
line of standard output. Build output goes to standard error. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The harness's own deadlines end a run well before this; it is the
# backstop that keeps one run under three minutes.
HARNESS_TIMEOUT_S = 170


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "dramscope-service", "--bin", "dramscoped"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["miss", "hit", "query"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "service", "Cargo.toml")):
        sys.exit("perfbench: %s holds no dramscope workspace to build" % ROOT)
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--daemon", os.path.join(release, "dramscoped"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # A session of its own, so one signal stops the harness and the
    # daemon it started alike, on a timeout or if anything is left over.
    harness = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = harness.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(harness.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        harness.wait()
    if code is None:
        sys.exit("perfbench: run exceeded %d s" % HARNESS_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
