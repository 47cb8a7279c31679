#!/usr/bin/env python3
"""Runs alternating pairs of the same build and reports run-to-run spread.

    python3 wsrbench/pairs.py [--pairs 10] [--workload NAME ...] [--json OUT]

Run from the repository root. For each workload, pair i runs the benchmark
command from BENCHMARK.json twice, once for set A and once for set B, with
the side that goes first alternating between pairs and a fresh seed for
every run. For every end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median), and the gap
between the two medians in the metric's worse direction, against the bound
BENCHMARK.json fixes. It also compares the share of failed operations.
Exits 1 when a spread (other than setup_s's) or a gap exceeds its bound, or
the failed shares differ.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"pairs.py: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json", help="write every run's result here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = {w: {"A": [], "B": []} for w in workloads}
    seed = 1000
    for w in workloads:
        for i in range(args.pairs):
            for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
                seed += 1
                runs[w][side].append(run_once(bench, w, seed))
            print(f"{w}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<18} {'set':<3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7}   {'gap':>7} {'bound':>6}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = {}
            for side in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in runs[w][side]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                medians[side] = med
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, ok = " SPREAD>BOUND", False
                print(f"  {name:<18} {side:<3} {med:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>7.2%}{flag}")
            sign = 1 if m["better"] == "lower" else -1
            gap = sign * (medians["B"] - medians["A"]) / medians["A"]
            flag = ""
            if gap > bound:
                flag, ok = " GAP>BOUND", False
            print(f"  {'':<18} {'':<3} {'':>12} {'':>12} {'':>12} {'':>7}   "
                  f"{gap:>7.2%} {bound:>6.2f}{flag}")
        shares = {side: (sum(r["failed"] for r in runs[w][side]),
                         sum(r["attempted"] for r in runs[w][side]))
                  for side in ("A", "B")}
        same = (shares["A"][0] * shares["B"][1] == shares["B"][0] * shares["A"][1])
        correct = all(r["correct"] for s in ("A", "B") for r in runs[w][s])
        ok = ok and same and correct
        print(f"  failed/attempted: A {shares['A'][0]}/{shares['A'][1]}, "
              f"B {shares['B'][0]}/{shares['B'][1]}"
              f"{'' if same else '  SHARES DIFFER'}"
              f"{'' if correct else '  INCORRECT RUN'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
