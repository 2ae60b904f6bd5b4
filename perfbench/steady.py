#!/usr/bin/env python3
"""Steadiness self-check: run workloads repeatedly and judge the spread.

Run from the root of a checkout:

    python3 perfbench/steady.py                      # every workload, 10 seeds
    python3 perfbench/steady.py --workload lab-churn --runs 5
    python3 perfbench/steady.py --held-out           # the held-out seed only

Each run uses another seed (1, 2, ...). For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4), the spread
(interquartile distance over the median) and the metric's bound from
BENCHMARK.json. A spread at or above a third of the bound is marked
"WIDE"; setup_s is exempt from the spread test but still listed. Every
run's result line is appended to --out as JSON lines. Exits non-zero if a
run fails, reports an incorrect output, or a spread is wide.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# A seed kept out of tuning: gains claimed on the benchmark must also hold
# on it.
HELD_OUT_SEED = 9173


def run_once(bench, workload, seed, trace=0):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default all)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--held-out", action="store_true", help="run only the held-out seed, traced and untraced")
    ap.add_argument("--out", default=os.path.join(".bench_build", "steady.jsonl"))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    ok = True
    with open(args.out, "a") as out:
        for name in names:
            seeds = [HELD_OUT_SEED] if args.held_out else range(args.first_seed, args.first_seed + args.runs)
            results = []
            for seed in seeds:
                for trace in ([0, 1] if args.held_out else [0]):
                    res = run_once(bench, name, seed, trace)
                    out.write(json.dumps({"workload": name, "seed": seed, "trace": trace, "result": res}) + "\n")
                    out.flush()
                    if not res["correct"] or res["failed"]:
                        print(f"{name} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
                        ok = False
                    if trace == 0:
                        results.append(res)
                    else:
                        print(f"{name} seed {seed} traced: " + json.dumps(res["metrics"]))
            print(f"\n{name}: {len(results)} runs")
            print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            for m in bench["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                med = statistics.median(values)
                if len(values) >= 2:
                    q1, _, q3 = statistics.quantiles(values, n=4)
                else:
                    q1 = q3 = med
                spread = (q3 - q1) / med if med else float("inf")
                wide = m["name"] != "setup_s" and spread >= m["bound"] / 3
                ok = ok and not (wide and len(values) >= 4)
                print(f"  {m['name']:<20} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {m['bound']:>6}"
                      + ("  WIDE" if wide else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
