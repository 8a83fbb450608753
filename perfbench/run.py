#!/usr/bin/env python3
"""Build and run the perfbench end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload ws-16k --seed 1 --seconds 21 --trace 0

The Go program is built from source into .bench_build/ at the repository
root, with the Go build cache, temporary files and HOME kept there too, so
a run reads and writes only inside the checkout. All arguments are passed
to the program; its last line of output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(WORK, "perfbench")


def go_env():
    env = dict(os.environ)
    for key, sub in (("HOME", "home"), ("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("GOPATH", "gopath")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=readonly", GOWORK="off",
               GOTELEMETRY="off", CGO_ENABLED="0")
    return env


def main():
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        print("perfbench: the repository's go.mod is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    env = go_env()
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    prog = subprocess.run([BINARY, "-workdir", WORK] + sys.argv[1:], cwd=ROOT, env=env)
    return prog.returncode


if __name__ == "__main__":
    sys.exit(main())
