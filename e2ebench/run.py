#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark (see RATIONALE.md).

Run from the repository root:

    python3 e2ebench/run.py --workload spectral-warm --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds the daemon and the e2ebench
program from source into $CARGO_TARGET_DIR (default .bench_build);
later runs only re-check the build. Build output goes to stderr, so
the last line of stdout is the program's JSON result. Any build or
run failure exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build, "-j", jobs, "--target", "paqocd",
              "e2ebench"]]
    if not os.path.exists(os.path.join(build, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("e2ebench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return 2
    bench = [os.path.join(build, "e2ebench"),
             "--paqocd", os.path.join(build, "paqocd"),
             "--workdir", os.path.join(build, "runs")] + sys.argv[1:]
    return subprocess.run(bench).returncode


if __name__ == "__main__":
    sys.exit(main())
