#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs every workload N times, each on its own seed, and prints for each
end-to-end metric its median, quartiles and spread (interquartile range as a
share of the median, from `statistics.quantiles(values, n=4)`) against the
metric's bound in BENCHMARK.json.  It also collects the heavy-tail flags the
runs print.  Run from the root of a source checkout:

    python3 perfbench/steadiness.py --runs 10 --first-seed 1000 --out a.json
    python3 perfbench/steadiness.py --runs 10 --first-seed 2000 --out b.json
    python3 perfbench/steadiness.py --compare a.json b.json

`--compare` checks that the second set's median is not worse than the
first's by more than each metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def load_spec():
    return json.loads(Path("BENCHMARK.json").read_text())


def run_once(spec, workload, seed):
    command = [*spec["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                 f"{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    over = [line.strip() for line in lines if "OVER-CEILING" in line]
    slowest = [line.strip() for line in lines if line.strip().endswith("]")
               and " ms " in line][:1]
    return result, over, slowest


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def collect(args, spec):
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    data = {}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, over, slowest = run_once(spec, workload, seed)
            runs.append({"seed": seed, "result": result, "over_ceiling": over,
                         "slowest": slowest})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"slowest: {slowest[0] if slowest else '-'}", file=sys.stderr)
        data[workload] = runs
    return data


def report(spec, data):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload, runs in data.items():
        print(f"\n### {workload} ({len(runs)} runs, seeds "
              f"{runs[0]['seed']}..{runs[-1]['seed']})\n")
        print("| metric | median | q1 | q3 | spread | bound | spread <= bound/3 |")
        print("|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, q2, q3, s = spread(values)
            steady = s <= bound / 3 or name == "setup_s"
            ok &= steady
            print(f"| {name} | {q2:.6g} | {q1:.6g} | {q3:.6g} | {s:.4f} | "
                  f"{bound} | {'yes' if s <= bound / 3 else 'no'} |")
        incorrect = [r["seed"] for r in runs if not r["result"]["correct"]]
        over = [o for r in runs for o in r["over_ceiling"]]
        print(f"\nincorrect runs: {incorrect or 'none'}; decisions over the "
              f"1%-of-run ceiling: {len(over)}")
        for line in over:
            print(f"    {line}")
        ok &= not incorrect
    return ok


def compare(spec, first, second):
    ok = True
    print("| workload | metric | median A | median B | change (worse +) | bound |")
    print("|---|---|---|---|---|---|")
    for workload in first:
        for m in spec["end_to_end"]:
            name = m["name"]
            a = statistics.median(r["result"]["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["result"]["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok &= worse <= m["bound"]
            print(f"| {workload} | {name} | {a:.6g} | {b:.6g} | {worse:+.4f} | {m['bound']} |")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out", help="write the raw results here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(spec, first, second) else 1
    data = collect(args, spec)
    if args.out:
        Path(args.out).write_text(json.dumps(data, indent=1))
    return 0 if report(spec, data) else 1


if __name__ == "__main__":
    sys.exit(main())
