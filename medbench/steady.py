#!/usr/bin/env python3
"""Steadiness check: run one workload k times and report each metric's spread.

    python3 medbench/steady.py --workload oo7-feedback --runs 10
    python3 medbench/steady.py --workload wide-adhoc --runs 5 --save a.json
    python3 medbench/steady.py --workload wide-adhoc --runs 5 --against a.json

Each run is an untraced run (--trace 0) of run_seconds from BENCHMARK.json;
run i uses seed FIRST_SEED + i. For every metric it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)), and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
A spread is "steady" below a third of the bound and "WIDE" above the
bound, which fails the check; setup_s is held to its bound like every
other metric. With --against, each median is also compared with a saved
earlier set: it may not be worse than the earlier median by more than the
bound. The share of failed operations must be the same in every run, and
in the saved set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = ["bash", "medbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="write the raw values to this JSON file")
    ap.add_argument("--against", help="compare medians with a set saved by --save")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values, shares, correct = {}, set(), True
    for i in range(args.runs):
        seed = args.first_seed + i
        res = run_once(args.workload, seed, bench["run_seconds"])
        correct = correct and res["correct"]
        shares.add(res["failed"] / res["attempted"])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}", file=sys.stderr)

    earlier = None
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)
        earlier = saved["values"]
        shares.update(saved["failed_shares"])

    ok = correct and len(shares) == 1
    print(f"{'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        spec = bounds.get(name, {})
        bound = spec.get("bound")
        if bound is None:
            verdict = "-"
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within"
        else:
            verdict, ok = "WIDE", False
        if earlier is not None and bound is not None and name in earlier:
            before = statistics.median(earlier[name])
            worse = (med - before) / before if spec["better"] == "lower" \
                else (before - med) / before
            verdict += f"  vs saved {worse:+.3f}"
            if worse > bound:
                verdict += " WORSE"
                ok = False
        print(f"{name:30} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} "
              f"{bound if bound is not None else '-':>6}  {verdict}")
    print(f"failed shares: {sorted(shares)}; all correct: {correct}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "values": values,
                       "failed_shares": sorted(shares)}, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
