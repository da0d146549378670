#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload in BENCHMARK.json N times for its run_seconds, on
seeds 1 to N, alternating the workload order from one round to the next,
and prints each metric's median, quartiles and spread (interquartile
range over median) next to its bound. A spread is steady below a third
of the bound; set-up time, whose spread matters less than its median, is
steady within its bound. With --save the raw values are written as JSON;
with --compare a saved set is checked against this one: the second
median may not be worse than the first by more than the metric's bound.

    python3 benchmark/steady.py --runs 10 --save first.json
    python3 benchmark/steady.py --runs 10 --compare first.json

Run it from the repository root. It only reads BENCHMARK.json and runs
the benchmark's command.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", help="write the raw values here")
    parser.add_argument("--compare", help="a file written by --save")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {w: {name: [] for name in metrics} for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for w in order:
            seed = 1 + r
            for name, v in run_once(bench["command"], w, seed, seconds, 0).items():
                values[w][name].append(v)
            print(f"run {r + 1}/{args.runs} {w} seed {seed} done", file=sys.stderr)

    steady = True
    for w in workloads:
        print(f"\n{w} ({args.runs} runs, {seconds} s each)")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, m in metrics.items():
            med, q1, q3, s = spread(values[w][name])
            limit = m["bound"] if name == "setup_s" else m["bound"] / 3
            flag = "" if s <= limit else "  WIDE"
            steady &= flag == ""
            print(f"  {name:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} {m['bound']:>6}{flag}")

    agree = True
    if args.compare:
        first = json.loads(Path(args.compare).read_text())
        print(f"\nagainst {args.compare}: second median worse by (bound)")
        for w in workloads:
            for name, m in metrics.items():
                a = statistics.median(first[w][name])
                b = statistics.median(values[w][name])
                worse = worse_by(a, b, m["better"])
                ok = worse <= m["bound"]
                agree &= ok
                print(f"  {w:<20} {name:<20} {worse:>+8.4f} ({m['bound']}){'' if ok else '  WORSE'}")
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    print(f"\nsteady: {steady}" + (f", sets agree: {agree}" if args.compare else ""))
    return 0 if steady and agree else 1


if __name__ == "__main__":
    sys.exit(main())
