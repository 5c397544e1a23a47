#!/usr/bin/env python3
"""Build the benchmark and run it.

Run from the repository root:

    python3 perfbench/run.py --workload suite-solve --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (perfbench/go.mod) that replaces the
`tracer` module with the checkout around it. Everything the build writes
(binary, Go build cache, Go configuration) stays under .bench_build/ in the
checkout. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Any build failure, for instance in a
directory that holds the benchmark but not the repository, exits non-zero
without a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build", "perfbench")
    binary = os.path.join(out, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(root, ".bench_build", "gocache"),
        GOPATH=os.path.join(root, ".bench_build", "gopath"),
        XDG_CONFIG_HOME=os.path.join(root, ".bench_build", "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
    )
    # The benchmark runs with the Go runtime defaults, as the CLIs do.
    for knob in ("GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS"):
        env.pop(knob, None)
    os.makedirs(out, exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print("perfbench: cannot run the go toolchain: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
