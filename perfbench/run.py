#!/usr/bin/env python3
"""Build and run the compile / sweep / explain benchmark.

    python3 perfbench/run.py --workload compile|sweep|explain \
        --seed N --seconds S --trace 0|1 [--trace-out FILE]

Run from the root of a checkout. The benchmark builds itself from the
library sources under src/ into .bench_build/perfbench (or
$CARGO_TARGET_DIR/perfbench when that is set); a build that is current
costs well under a second. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. With --trace 1 the span
file defaults to <build dir>/trace-<workload>-<seed>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "workloads",
                                       "workload.h")):
        print("run.py: library sources not found under %s/src; run from "
              "a full checkout" % ROOT, file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print("run.py: build timed out", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("run.py: build failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def option(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    out = build_dir()
    if not build(out):
        return 1
    if option(args, "--trace", "0") == "1" and "--trace-out" not in args:
        name = "trace-%s-%s.json" % (option(args, "--workload", "none"),
                                     option(args, "--seed", "1"))
        args += ["--trace-out", os.path.join(out, name)]
    try:
        done = subprocess.run([os.path.join(out, "nupea_perfbench")] + args,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
