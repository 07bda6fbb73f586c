#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workload W ...]
                                [--first-seed 1] [--trace] [--verbose]

Run from the root of a checkout.  Repeats each workload --runs times
through perfbench/run.py, each run with the next seed, and prints for
every end-to-end metric its median, first and third quartile
(statistics.quantiles(values, n=4)) and spread, the interquartile range
as a share of the median, against the metric's bound in BENCHMARK.json.
A spread at or above a third of the bound is flagged.  With --trace it
runs the traced mode instead and prints the per-layer metrics the same
way (they have no bound).  Exits nonzero if any run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    if proc.returncode != 0:
        print(f"  seed {seed}: run failed (exit {proc.returncode})")
        return None
    return json.loads(last)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in declared}
        for i in range(args.runs):
            res = run_once(w, args.first_seed + i, seconds, args.trace)
            if res is None:
                ok = False
                continue
            for name, m in res["metrics"].items():
                values[name].append(m["value"])
        print(f"\n{w}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {seconds:g} s each")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>7}")
        for m in declared:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and not spread < bound / 3:
                flag = "  <-- spread >= bound/3"
            print(f"  {m['name']:34} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bound if bound is not None else '-':>7}"
                  f"{flag}")
            if args.verbose:
                print("      " + " ".join(f"{x:.6g}" for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
