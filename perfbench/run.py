#!/usr/bin/env python3
"""Build and run the NetTrails trace-replay benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload mesh-churn --seed 9108 --seconds 10 --trace 0

The benchmark is built from source (release profile) into $CARGO_TARGET_DIR,
or `.bench_build` under the working directory when that is unset. `--trace 0`
runs `perfbench` and prints the end-to-end metrics; `--trace 1` runs
`perfbench-traced` (counting allocator) and prints the per-layer metrics.
The last line of standard output is the result object. The exit code is
non-zero when the build fails or a correctness check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    traced = False
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            traced = value == "1"
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
            "--bins",
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rustc = subprocess.run(
        ["rustc", "--version"], capture_output=True, text=True, env=env
    ).stdout.strip()
    exe = os.path.join(target, "release", "perfbench-traced" if traced else "perfbench")
    run = subprocess.run(
        [
            exe,
            *argv,
            "--rustc",
            rustc or "unknown",
            "--state-dir",
            os.path.join(target, "perfbench-state"),
        ],
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
