#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fabric-mix --seed 1 --seconds 12 --trace 0

The benchmark is a Go program in its own module (perfbench/go.mod),
which uses the simulator's packages from the parent directory. This
script builds it into the build directory ($CARGO_TARGET_DIR, or
.bench_build when unset), keeping Go's build cache, temporary files and
configuration there too, so nothing outside the checkout is written.
It then runs the program with the given arguments and passes its exit
code on; the last line the program prints is the JSON result.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    src = os.path.join(root, "perfbench")
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "go-cache"), ("GOPATH", "go-path"),
                     ("GOMODCACHE", "go-path/pkg/mod"), ("GOTMPDIR", "go-tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    # Everything the build needs is local: the toolchain in use and the
    # simulator's source one directory up. Never reach for the network.
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOFLAGS="-mod=mod")
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return built.returncode
    try:
        ran = subprocess.run([exe] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
