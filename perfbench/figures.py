"""Regenerate the reference figures of perfbench/README.md.

    python3 perfbench/figures.py [--runs 10] [--first-seed 1]

Run from the root of a checkout.  For each workload of BENCHMARK.json it
makes two sets of ``--runs`` untraced runs, the first on seeds first-seed,
first-seed+1, ... and the second on the next ``--runs`` seeds, and prints
each end-to-end metric's median, quartiles and quartile spread
(IQR / median) for both sets, with the drift of the second median against
the first.  Then it makes two traced runs on the first seed, whose counts
must agree, and prints the per-layer breakdown with the tracing overhead:
traced ``run_s`` minus the first set's median ``run_s``, both at the
reference speed.  Last, it prints the bound that the rule of the README
gives each metric from these runs.  Runs are made one at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

from run import unit_of

RAW = ("wall_setup_s", "wall_run_s")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(Path(f"perfbench/_work/{workload}/report.json").read_text())
    return result, detail


def run_set(workload, seeds, seconds, names):
    """Values of every name in ``names`` (metrics, then raw report figures)
    over untraced runs on ``seeds``, the (failed, attempted, correct) triples
    seen."""
    values = {name: [] for name in names}
    shares = set()
    for seed in seeds:
        result, detail = run(workload, seed, seconds, 0)
        shares.add((result["failed"], result["attempted"], result["correct"]))
        for name in names:
            values[name].append(result["metrics"][name]["value"] if name in result["metrics"]
                                else detail[name])
        print(f"  {workload} seed {seed}: " + ", ".join(f"{n}={v[-1]:.4f}" for n, v in values.items())
              + f" rounds={len(detail['round_seconds'])} failed={result['failed']}/{result['attempted']}",
              file=sys.stderr)
    return values, shares


def spread(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = {name: [0.0, 0.0] for name in bounds}   # worst spread, worst |drift|

    for workload in (w["name"] for w in bench["workloads"]):
        first = range(args.first_seed, args.first_seed + args.runs)
        second = range(first.stop, first.stop + args.runs)
        a, shares_a = run_set(workload, first, seconds, list(bounds) + list(RAW))
        b, shares_b = run_set(workload, second, seconds, list(bounds) + list(RAW))
        print(f"\n### {workload}: {args.runs} untraced runs on seeds {first.start}-{first.stop - 1} "
              f"(first set) and {second.start}-{second.stop - 1} (second set)")
        print(f"(failed, attempted, correct) seen: first {sorted(shares_a)}, second {sorted(shares_b)}\n")
        print("| metric | median | q1 | q3 | spread | first-set median | first-set spread | drift | bound |")
        print("|---|---|---|---|---|---|---|---|---|")
        for name in a:
            _, med_a, _, spread_a = spread(a[name])
            q1, med, q3, spread_b = spread(b[name])
            drift = med / med_a - 1
            if name in worst:
                worst[name][0] = max(worst[name][0], spread_a, spread_b)
                worst[name][1] = max(worst[name][1], abs(drift))
            label = name if name in bounds else f"{name} (raw, no bound)"
            print(f"| {label} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread_b:.3f} | {med_a:.4g} "
                  f"| {spread_a:.3f} | {drift:+.1%} | {bounds.get(name, '')} |")

        (_, traced), (_, again) = (run(workload, args.first_seed, seconds, 1) for _ in range(2))
        layers = traced["layers"]
        counts_differ = [n for n, v in layers.items()
                         if unit_of(n) not in ("s", "us") and again["layers"][n] != v]
        untraced = statistics.median(a["run_s"])
        print(f"\ntraced run_s {traced['run_s']:.3f} s on seed {args.first_seed} vs untraced "
              f"first-set median {untraced:.3f} s: tracing overhead "
              f"{traced['run_s'] - untraced:+.3f} s ({traced['run_s'] / untraced - 1:+.0%}); "
              f"counts that differ between two traced runs: {counts_differ or 'none'}\n")
        print("| per-layer metric | value |")
        print("|---|---|")
        for name, value in layers.items():
            if value:
                print(f"| {name} | {value:.4g} |")

    # The rule: three times the worst spread, or twice the worst drift,
    # rounded up to 0.01 and at most 0.25; setup_s gets the largest bound.
    rule = {name: min(0.25, math.ceil(100 * max(3 * s, 2 * d)) / 100)
            for name, (s, d) in worst.items()}
    rule["setup_s"] = max(rule.values())
    print("\n| metric | worst spread | worst drift | bound by rule | bound in BENCHMARK.json |")
    print("|---|---|---|---|---|")
    for name, (s, d) in worst.items():
        print(f"| {name} | {s:.3f} | {d:.1%} | {rule[name]:.2f} | {bounds[name]} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
