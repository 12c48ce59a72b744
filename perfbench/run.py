#!/usr/bin/env python3
"""Build the benchmark driver from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload stream --seed 1 --seconds 25 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) with dune's
release profile and its shared cache off, so nothing is written outside
the checkout. The driver's standard output is passed through unchanged; its
last line is the JSON result. Build failures exit non-zero without a result.
"""

import os
import subprocess
import sys


def main() -> int:
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [
            "dune", "build", "--root", ".", "--build-dir", build_dir,
            "--profile", "release", "--display", "quiet",
            "./perfbench/perfbench.exe",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(build_dir, "default", "perfbench", "perfbench.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
