#!/usr/bin/env python3
"""Run one workload k times, each with another seed, and print for every
end-to-end metric its median and its spread: the distance between the
first and third quartile as a share of the median, next to the metric's
bound in BENCHMARK.json. Every run measures run_seconds of BENCHMARK.json.

    python3 perfbench/spread.py --workload NAME [-k 10] [--first-seed N]

Run it from the root of a checkout, like run.py.
"""

import argparse
import json
import os
import subprocess
import sys

import benchlib

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("-k", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.k < 2:
        sys.exit("spread.py: -k must be at least 2")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    shares = set()
    for i in range(args.k):
        seed = args.first_seed + i
        out = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (seed, res["correct"], res["attempted"], res["failed"]),
              file=sys.stderr, flush=True)
        shares.add((res["failed"], res["attempted"]))
        for name in values:
            values[name].append(res["metrics"][name]["value"])
    print("%-14s %14s %10s %8s  %s" % ("metric", "median", "spread", "bound", "values"))
    for m in spec["end_to_end"]:
        med, spread = benchlib.quartile_spread(values[m["name"]])
        flag = "" if m["name"] == "setup_s" or spread <= m["bound"] / 3 else "  <-- above a third of the bound"
        print("%-14s %14.6g %9.2f%% %7.0f%%  %s%s" % (
            m["name"], med, 100 * spread, 100 * m["bound"],
            " ".join("%.4g" % v for v in values[m["name"]]), flag))
    print("failed/attempted: %s" % sorted(shares))


if __name__ == "__main__":
    main()
