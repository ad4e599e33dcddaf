#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload intra-campaign --seed 1 --seconds 36 --trace 0

The Go program is built into .bench_build/ (compiler cache included), so
the run reads and writes nothing outside the checkout apart from the Go
toolchain itself. Every argument is passed through to the program; its last
line of standard output is the result object. See perfbench/README.md.
"""

import os
import subprocess
import sys

# Longest a single run may take once built; the program itself stops
# measuring after --seconds, so this only catches a hung run.
RUN_TIMEOUT_S = 170


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gotmp", "tmp", "config"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(
        os.environ,
        # The go command's own files (telemetry counters) go under the
        # user config directory; keep them in the checkout too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed (is this a full checkout of the repository?)", file=sys.stderr)
        return 2
    args = [binary, "-tmp", os.path.join(build, "tmp"), "-commit", commit(root)] + sys.argv[1:]
    try:
        return subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


def commit(root):
    """The checkout's revision, or "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
