#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics are steady.

Run from the repository root:

    python3 perfbench/steady.py --seed 100 --runs 10

Runs every workload of BENCHMARK.json --runs times, in alternating order
(run i starts at workload i mod n), with seeds seed, seed+1, ... and the
file's run_seconds. For each workload and end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread, the
interquartile range as a share of the median, against the metric's bound;
and the share of failed operations. It exits 1 if a run fails or is not
correct, a spread exceeds its bound, or the failed share differs between
runs of one workload.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", help="restrict to these workloads")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload:
        names = [n for n in names if n in args.workload]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]

    values = {n: {} for n in names}
    shares = {n: set() for n in names}
    ok = True
    for i in range(args.runs):
        for k in range(len(names)):
            name = names[(i + k) % len(names)]
            seed = args.seed + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            t0 = time.monotonic()
            p = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
            wall = time.monotonic() - t0
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {p.returncode}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            shares[name].add(res["failed"] / res["attempted"])
            if not res["correct"] or res["failed"]:
                ok = False
            for m, v in res["metrics"].items():
                values[name].setdefault(m, []).append(v["value"])
            vals = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}"
                            for m in metrics if m["name"] in res["metrics"])
            print(f"{name} seed {seed}: {wall:.1f}s attempted {res['attempted']} failed {res['failed']} {vals}",
                  file=sys.stderr)

    for name in names:
        print(f"\n{name}: failed share {sorted(shares[name])}")
        if len(shares[name]) > 1:
            ok = False
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for m in metrics:
            xs = values[name].get(m["name"], [])
            if len(xs) < 2:
                print(f"  {m['name']:34} missing")
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m.get("bound")
            mark = ""
            if bound is not None:
                if spread > bound:
                    mark, ok = " OVER", False
                elif spread > bound / 3:
                    mark = " >1/3"
            print(f"  {m['name']:34} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} "
                  f"{bound if bound is not None else '':>6}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
