#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the repository libraries and the
benchmark binaries (Release) into the directory named by CARGO_TARGET_DIR,
or `.bench_build` when it is unset, relative to the repository root; later
calls only rebuild what changed.  Build output goes to stderr.  The last line
of stdout is the benchmark's JSON result.  The exit code is the benchmark's:
0 when every output passed the correctness gate, 1 when one failed or the
build failed, 2 on a usage or environment error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build(out):
    """Configure (once) and build both benchmark binaries; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "rcr_perfbench",
                  "rcr_perfbench_traced", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    trace = "1" if "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"] else "0"
    out = build_dir()
    if not build(out):
        return 1
    binary = os.path.join(out, "rcr_perfbench_traced" if trace == "1" else "rcr_perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
