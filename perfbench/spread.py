#!/usr/bin/env python3
"""Run workloads over several seeds and print each metric's quartiles.

    python3 perfbench/spread.py --runs 10 [--first-seed 101] [--workload NAME ...]

For every end-to-end metric: median, first and third quartile (as
statistics.quantiles(values, n=4) gives them) and the quartile distance as
a share of the median, next to the metric's bound from BENCHMARK.json.
Also prints the failed share of every run (failed / attempted, as an exact
fraction), which must not vary.
"""
import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for name in names:
        values, shares = {}, set()
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (name, seed, out.returncode,
                                                  out.stdout[-2000:]))
                ok = False
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            shares.add(fractions.Fraction(res["failed"], res["attempted"]))
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print("## %s (%d runs, seeds %d..%d)" % (name, args.runs, args.first_seed,
                                                args.first_seed + args.runs - 1))
        print("| metric | median | Q1 | Q3 | IQR/median | bound |")
        print("|---|---|---|---|---|---|")
        for k, v in values.items():
            if len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            print("| %s | %.6g | %.6g | %.6g | %.4f | %s |" % (
                k, med, q1, q3, spread, bounds.get(k, "-")))
        print("failed/attempted: %s\n" % ", ".join(str(f) for f in sorted(shares)))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
