#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the command in BENCHMARK.json once per seed for each workload named
and prints, per metric, the median and the quartile spread (Q3 - Q1) as a
share of the median, next to the metric's bound. Run from the repository
root:

    python3 wavebench/spread.py --workloads vga-neon-d2 --seeds 1 2 3 4 5
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    ok = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            ok &= result["correct"]
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']}", file=sys.stderr)
        print(f"== {workload} ({len(args.seeds)} seeds, {args.seconds} s)")
        for m in metrics:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(f"  {m['name']:<24} median {med:14.6f} {m['unit']:<9} spread {spread:8.4f}"
                  f"  bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
