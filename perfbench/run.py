#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nren-build --seed 1 --seconds 30 --trace 0

The arguments go to the Go program unchanged. Everything the build and the
run write (Go build cache, binary, journals, span dumps) stays under
.bench_build in the checkout. Exits non-zero without a result line when the
build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_build")
BENCH_DIR = os.path.join(ROOT, "perfbench")
BINARY = os.path.join(WORK, "bin", "perfbench")


def main():
    if not os.path.isfile(os.path.join(BENCH_DIR, "go.mod")):
        sys.exit("run.py: run from the root of a checkout")
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(WORK, "gocache"),
        "GOPATH": os.path.join(WORK, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOENV": "off",
    })
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH_DIR, env=env)
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    run = subprocess.run([BINARY, "--work", WORK] + sys.argv[1:], cwd=ROOT, env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
