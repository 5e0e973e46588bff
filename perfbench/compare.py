#!/usr/bin/env python3
"""Compares two benchmark result sets, or summarises one.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

A result set is the JSON-lines file that `perfbench/run.py --out` appends
to. Only --trace 0 runs (the end-to-end metrics) are compared. For each
(workload, metric) it prints each side's median and quartiles over its
runs, and the spread: the distance between the quartiles over the median.

With one file it also reports whether each spread is within the metric's
bound from BENCHMARK.json (setup_s is exempt, as the bound applies to its
median only).

With two files it gives a verdict for each (workload, metric):
  worse       the change's median is worse than the base's by more than
              the bound;
  better      the change wins at least 9 of 10 runs paired by seed (ties
              count for neither) and the medians differ by more than the
              base's spread;
  unresolved  the base's spread is wider than the bound and not every
              change run reads better than every base run;
  same        otherwise.
It exits 1 on any "worse", or when the change fails a larger share of its
rounds than the base.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{workload: {seed: result}} over the file's --trace 0 runs."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs.setdefault(rec["workload"], {})[rec["seed"]] = \
                        rec["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def fail_ratio(results):
    attempted = sum(r["attempted"] for r in results.values())
    return sum(r["failed"] for r in results.values()) / max(1, attempted)


def verdict(spec, base, change):
    better_lower = spec["better"] == "lower"
    bound = spec["bound"]
    b = [v for _, v in sorted(base.items())]
    c = [v for _, v in sorted(change.items())]
    b_med, c_med = statistics.median(b), statistics.median(c)
    rel = (c_med - b_med) / b_med if b_med else 0.0
    worse = rel > bound if better_lower else rel < -bound
    if worse:
        return "worse"

    def beats(x, y):
        return x < y if better_lower else x > y

    pairs = [(change[s], base[s]) for s in sorted(set(base) & set(change))]
    wins = sum(beats(x, y) for x, y in pairs)
    decided = sum(x != y for x, y in pairs)
    q1, _, q3 = quartiles(b)
    if decided and wins >= 0.9 * len(pairs) and abs(c_med - b_med) > q3 - q1:
        return "better"
    all_better = all(beats(x, y) for x in c for y in b)
    if spread(b) > bound and not all_better:
        return "unresolved"
    return "same"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = json.load(f)["end_to_end"]
    sides = [load(p) for p in argv[1:]]
    regress = False
    for workload in sorted(set().union(*sides)):
        if not all(workload in s for s in sides):
            print(f"{workload}: missing from one result set")
            regress = True
            continue
        print(f"== {workload} ==")
        for spec in specs:
            name = spec["name"]
            row = f"  {name:<16}"
            per_side = []
            for s in sides:
                by_seed = {seed: r["metrics"][name]["value"]
                           for seed, r in s[workload].items()}
                v = list(by_seed.values())
                q1, med, q3 = quartiles(v)
                per_side.append(by_seed)
                row += (f" | n={len(v):<2} median {med:<11.5g} "
                        f"q1 {q1:<11.5g} q3 {q3:<11.5g} "
                        f"spread {spread(v):.3f}")
            if len(sides) == 1:
                steady = name == "setup_s" or spread(v) <= spec["bound"]
                row += f" | bound {spec['bound']} {'ok' if steady else 'WIDE'}"
            else:
                outcome = verdict(spec, *per_side)
                regress |= outcome == "worse"
                row += f" | {outcome}"
            print(row)
        ratios = [fail_ratio(s[workload]) for s in sides]
        print("  round_fail_ratio " +
              " | ".join(f"{r:.4f}" for r in ratios))
        if len(sides) == 2 and ratios[1] > ratios[0]:
            print("  more failed rounds than the base: worse")
            regress = True
    return 1 if regress else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
