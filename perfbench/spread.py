#!/usr/bin/env python3
"""Run a workload once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload uq1-rw-eo --seeds 1-10 [--seconds 5] [--trace 0]

Run from the repository root. The spread is the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median; BENCHMARK.json bounds it per end-to-end metric. Runs are sequential.
Each result line is appended to --log (default .bench_build/spread.jsonl).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--log", default=os.path.join(".bench_build", "spread.jsonl"))
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("seed %d: exit %d" % (seed, out.returncode))
            continue
        res = json.loads(lines[-1])
        with open(args.log, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, "result": res}) + "\n")
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, res["correct"], res["attempted"], res["failed"],
            " ".join("%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items()
                     if k in bounds or args.trace == "1")), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    for k, vs in values.items():
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(k)
        print("%-32s median %-12.5g spread %.4f%s" % (
            k, med, spread, "" if bound is None else "  (bound %.2f)" % bound))


if __name__ == "__main__":
    main()
