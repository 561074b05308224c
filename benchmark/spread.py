#!/usr/bin/env python3
"""Run each workload with several seeds and print, per end-to-end metric,
the median and the quartile spread the acceptance rule is stated in:
(Q3 - Q1) / median with statistics.quantiles(values, n=4).

usage: spread.py <benchmark binary> [--seeds N] [--seconds S] [--workload W]...
Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import time

parser = argparse.ArgumentParser()
parser.add_argument("binary")
parser.add_argument("--seeds", type=int, default=10)
parser.add_argument("--first-seed", type=int, default=1)
parser.add_argument("--seconds", type=int)
parser.add_argument("--workload", action="append")
args = parser.parse_args()

spec = json.load(open("BENCHMARK.json"))
seconds = args.seconds or spec["run_seconds"]
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
for workload in args.workload or [w["name"] for w in spec["workloads"]]:
    values = {name: [] for name in bounds}
    walls = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        start = time.time()
        out = subprocess.run(
            [args.binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            check=True, capture_output=True, text=True,
        ).stdout
        walls.append(time.time() - start)
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    print(f"{workload}  ({args.seeds} seeds, {max(walls):.1f} s longest run)")
    for name, v in values.items():
        q1, median, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median
        flag = "" if spread < bounds[name] / 3 else ("  > bound/3" if spread < bounds[name] else "  > BOUND")
        print(f"  {name:<16} median {median:>12.5f}  spread {spread:6.3f}  bound {bounds[name]}{flag}")
