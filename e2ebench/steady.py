#!/usr/bin/env python3
"""Steadiness report and seed check for the end-to-end benchmark.

Run from the repository root. Reads the command, run length, workloads
and bounds from BENCHMARK.json.

    python3 e2ebench/steady.py [--runs 10] [--rounds 2]

runs every workload of BENCHMARK.json --runs times per round, each run
with its own seed (1, 2, ..., --runs), and prints per end-to-end metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound. A spread below a third of
the bound reads "steady", below the bound "within", above it "NOISY".
With --rounds 2 it repeats the
set and checks that no second-round median is worse than the first by
more than the bound.

    python3 e2ebench/steady.py --seed-check A B [--runs 5]

runs every workload --runs times on seed A and on seed B, interleaved,
and checks that each median on B is within the bound of the median on A
(in either direction).

Exits 1 if any check fails.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed ({result['failed']} failed ops)")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def spread_table(bench, workload, runs, prior=None):
    ok = True
    print(f"\n{workload}: {len(runs)} runs")
    print(f"  {'metric':<14} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    medians = {}
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        vals = [r[name] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        medians[name] = statistics.median(vals)
        spread = (q3 - q1) / med
        if spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within"
        else:
            verdict, ok = "NOISY", False
        if prior is not None:
            drift = worse_by(m, prior[name], medians[name])
            verdict += f"  vs round 1: {drift:+.3f}"
            if drift > bound:
                verdict, ok = verdict + " WORSE", False
        print(f"  {name:<14} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f} {bound:>6.3f}  {verdict}")
    return ok, medians


def steadiness(bench, workloads, n, rounds):
    ok = True
    first = {}
    for r in range(rounds):
        print(f"\n=== round {r + 1} of {rounds} ===")
        for w in workloads:
            runs = [one_run(bench, w, seed) for seed in range(1, n + 1)]
            good, medians = spread_table(bench, w, runs, first.get(w))
            ok &= good
            first.setdefault(w, medians)
    return ok


def seed_check(bench, workloads, n, seed_a, seed_b):
    ok = True
    for w in workloads:
        runs = {seed_a: [], seed_b: []}
        for _ in range(n):
            for s in (seed_a, seed_b):
                runs[s].append(one_run(bench, w, s))
        print(f"\n{w}: seed {seed_b} vs seed {seed_a}, {n} runs each")
        print(f"  {'metric':<14} {'median A':>14} {'median B':>14} {'change':>8} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = statistics.median(r[name] for r in runs[seed_a])
            b = statistics.median(r[name] for r in runs[seed_b])
            change = (b - a) / a
            verdict = "within" if abs(change) <= bound else "OUTSIDE"
            ok &= verdict == "within"
            print(f"  {name:<14} {a:>14.4f} {b:>14.4f} {change:>+8.4f} {bound:>6.3f}  {verdict}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--seed-check", type=int, nargs=2, metavar=("A", "B"))
    a = ap.parse_args()
    bench = load_bench()
    workloads = [w["name"] for w in bench["workloads"]]
    if a.seed_check:
        ok = seed_check(bench, workloads, a.runs, *a.seed_check)
    else:
        ok = steadiness(bench, workloads, a.runs, a.rounds)
    print("\nall checks passed" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
