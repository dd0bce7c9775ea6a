#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload steady_write --seed 1 --seconds 15 --trace 0

It builds perfbench/perfbench.exe from source with dune (in _build, with
dune's shared cache off, so nothing is written outside the checkout), runs
it with the given arguments and passes its output and exit code through.
The last line of standard output is the result JSON object. See
perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 870
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    missing = [p for p in ("dune-project", "lib", "bin", "examples", "perfbench") if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the repository root; missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    build = ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet", "./perfbench/perfbench.exe"]
    try:
        built = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen([EXE] + sys.argv[1:])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
