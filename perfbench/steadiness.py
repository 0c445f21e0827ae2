#!/usr/bin/env python3
"""Steadiness study: run each workload repeatedly and summarise.

    python3 perfbench/steadiness.py [--workloads compile,sweep,explain]
        [--runs 10] [--json-out FILE] [--compare FILE]

Run from the root of a checkout. Each run is one call of run.py for
BENCHMARK.json's run_seconds, with its own seed (1, 2, ...). For every
end-to-end metric the script prints the median, the first and third
quartile (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, and that spread as a share of the metric's bound
in BENCHMARK.json; the set is steady when every spread, setup_s's too,
is at most a third of its bound. --compare FILE also prints how far
this set's medians moved against an earlier set saved with --json-out.

It also checks that op_p90_ms does not sit on the boundary between two
kinds of operation, in every run: the two basket entries whose medians
bracket the 90th-percentile rank must come from the same kernel, or lie
within 10% of each other. A p90 that interpolates across the jump from
one kernel's operations to a slower kernel's would move by the whole
jump when two entries swap places.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import build_dir  # noqa: E402


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    ops_path = os.path.join(build_dir(), "ops-%s-%d.tsv" % (workload, seed))
    try:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0",
               "--ops-out", ops_path]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, check=False)
        if done.returncode != 0:
            sys.exit("run failed (%s seed %d):\n%s" %
                     (workload, seed, done.stderr.decode()[-2000:]))
        result = json.loads(done.stdout.decode().strip().splitlines()[-1])
        samples = collections.defaultdict(list)
        with open(ops_path) as f:
            for line in f:
                label, ms = line.rstrip("\n").split("\t")
                samples[label].append(float(ms))
    finally:
        if os.path.exists(ops_path):
            os.unlink(ops_path)
    return result, samples


def p90_boundary(samples):
    """(ok, description) for the basket entries around the p90 rank."""
    medians = sorted((statistics.median(v), label.split("/")[0])
                     for label, v in samples.items())
    pos = 0.9 * (len(medians) - 1)
    k = int(pos)
    (lo, lo_kind), (hi, hi_kind) = medians[k], medians[k + 1]
    gap = (hi - lo) / lo
    near = medians[max(k - 1, 0):k + 3]
    return lo_kind == hi_kind or gap <= 0.10, (
        "%s | %s, gap %.1f%%; four nearest %.3f..%.3f ms" %
        (lo_kind, hi_kind, 100 * gap, near[0][0], near[-1][0]))


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--json-out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    saved = {}
    steady = True
    for workload in args.workloads.split(","):
        values = collections.defaultdict(list)
        fail_shares = set()
        print("== %s: %d runs" % (workload, args.runs), flush=True)
        for r in range(args.runs):
            seed = 1 + r
            result, samples = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"]:
                steady = False
                print("  seed %d: correct=false" % seed)
            fail_shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            ok, where = p90_boundary(samples)
            steady &= ok
            print("  seed %d: attempted %d failed %d; p90 from %s%s" %
                  (seed, result["attempted"], result["failed"], where,
                   "" if ok else "  <-- boundary"), flush=True)
        print("  %-20s %14s %14s %14s %8s %10s %8s" %
              ("metric", "median", "q1", "q3", "spread", "of bound",
               "moved"))
        saved[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            share = spread / bounds[name] if name in bounds else 0.0
            moved = ""
            if workload in earlier and name in earlier[workload]:
                before = earlier[workload][name]["median"]
                moved = "%+.2f%%" % (100 * (med - before) / before)
            if share > 1 / 3:
                steady = False
            print("  %-20s %14.6g %14.6g %14.6g %7.2f%% %9.0f%% %8s" %
                  (name, med, q1, q3, 100 * spread, 100 * share, moved))
            saved[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                     "values": vals}
        print("  failed/attempted pairs: %s" % sorted(fail_shares))
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(saved, f, indent=1)
    print("steady" if steady else "NOT steady (see above)")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
