#!/usr/bin/env python3
"""Build and run the masksim benchmark.

    python3 maskbench/run.py --workload contended --seed 1 --seconds 20 --trace 0

Run it from the root of a masksim checkout. It builds maskbench (a Go module
of its own that uses the masksim module one directory up) into .bench_build/
and runs it with the given arguments. The Go build cache, temporary files and
every output stay under .bench_build/. A build failure exits non-zero without
printing a result.
"""
import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
        GOPROXY="off",
    )
    binary = os.path.join(build, "maskbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if built.returncode != 0:
        print("maskbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
