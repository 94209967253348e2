#!/usr/bin/env python3
"""Compares two sets of untraced benchmark runs of one commit.

usage: compare.py BENCHMARK.json RESULTS_DIR

RESULTS_DIR holds A/<workload>/<seed>.out and B/<workload>/<seed>.out,
each the standard output of one run (its last line the result JSON).
For every workload and end-to-end metric this prints each set's median
and quartiles, the spread (q3 - q1) / median, and the ratio of the
medians. It exits non-zero when a run failed or was incorrect, when the
two medians differ by more than the metric's bound, when a set's spread
exceeds the bound (setup_s excepted), or when a deterministic metric
differs at all. A spread above a third of the bound is flagged but
does not fail.
"""

import json
import statistics
import sys
from pathlib import Path

# Simulated results on the pinned reference inputs: every run of one
# commit must report exactly the same value.
DETERMINISTIC = {"cord_detect_vs_ideal", "cord_sim_time_pct"}


def load(path):
    """The run's result line, or None when the run printed none."""
    lines = path.read_text().strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return median, q1, q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads(Path(sys.argv[1]).read_text())
    root = Path(sys.argv[2])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        sets = {}
        for side in "AB":
            runs = sorted((root / side / workload).glob("*.out"))
            results = []
            for run in runs:
                result = load(run)
                if not result or not result["correct"] or result["failed"]:
                    problems.append(f"{workload}: run {run} failed or was incorrect")
                    continue
                results.append(result)
            sets[side] = results
        if not sets["A"] or not sets["B"]:
            problems.append(f"{workload}: no complete runs to compare")
            continue
        print(f"\n{workload}: {len(sets['A'])} runs in A, {len(sets['B'])} in B")
        print(f"  {'metric':<22} {'A median':>12} {'A q1..q3':>23} {'spread':>7}"
              f" {'B median':>12} {'spread':>7} {'B/A':>7} {'bound':>6}")
        for name, bound in bounds.items():
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            (ma, a1, a3), (mb, b1, b3) = summary(a), summary(b)
            spread_a, spread_b = (a3 - a1) / ma, (b3 - b1) / mb
            ratio = mb / ma
            flag = ""
            if name in DETERMINISTIC:
                if len(set(a + b)) != 1:
                    flag = "DIFFERS"
                    problems.append(f"{workload} {name}: deterministic values differ: {sorted(set(a + b))}")
            elif abs(ratio - 1) > bound:
                flag = "MEDIANS"
                problems.append(f"{workload} {name}: medians {ma:.6g} vs {mb:.6g} differ by more than {bound}")
            elif name != "setup_s" and max(spread_a, spread_b) > bound:
                flag = "SPREAD"
                problems.append(f"{workload} {name}: spread {max(spread_a, spread_b):.3f} exceeds {bound}")
            elif name != "setup_s" and max(spread_a, spread_b) > bound / 3:
                flag = "spread>bound/3"
            print(f"  {name:<22} {ma:>12.6g} {a1:>11.6g}..{a3:<11.6g} {spread_a:>7.3f}"
                  f" {mb:>12.6g} {spread_b:>7.3f} {ratio:>7.4f} {bound:>6} {flag}")
    if problems:
        print("\nFAILED:")
        for p in problems:
            print(f"  {p}")
        sys.exit(1)
    print("\nok: every end-to-end metric is within its bound")


if __name__ == "__main__":
    main()
