#!/usr/bin/env python3
"""Compare two sets of benchmark result files: A (parent) against B (change).

    python3 bench/compare.py DIR_A DIR_B

Each directory holds the ``*.json`` files ``bench/run.py --out`` wrote.
For every (end-to-end metric, workload) cell the table gives each set's
median and quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` it is, but a set's own spread (IQR / median) exceeds the
                 bound and the two interquartile ranges overlap;
* ``better``     B's median is better than A's by more than either IQR;
* ``same``       anything else.

Failure shares are printed side by side, and exact counts of traced runs
with the same seed are checked for equality.  Exit code 1 on any ``worse``.
Run it on two sets of runs of one commit for the A/A criterion.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> list:
    results = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and doc.get("schema") == "repro-bench-result/1":
            results.append(doc)
    if not results:
        sys.exit(f"compare.py: no result files in {directory}")
    return results


def quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list, b: list, better: str, bound: float) -> str:
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (bm - am) / abs(am)
    spread = max((a3 - a1) / abs(am), (b3 - b1) / abs(bm))
    overlap = a1 <= b3 and b1 <= a3
    if worse_by > bound:
        return "unresolved" if spread > bound and overlap else "worse"
    if -sign * (bm - am) > max(a3 - a1, b3 - b1):
        return "better"
    return "same"


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sets = [load(d) for d in argv]
    workloads = [w["name"] for w in spec["workloads"]]
    any_worse = False

    print(f"{'workload':15s} {'metric':12s} {'A q1':>10s} {'A med':>10s} {'A q3':>10s} "
          f"{'B q1':>10s} {'B med':>10s} {'B q3':>10s} {'B/A-1':>8s} {'bound':>6s}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            cells = [[r["metrics"][name]["value"] for r in s
                      if r["workload"] == workload and r["trace"] == 0 and name in r["metrics"]]
                     for s in sets]
            if not all(cells):
                continue
            a, b = cells
            v = verdict(a, b, metric["better"], metric["bound"])
            any_worse = any_worse or v == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:15s} {name:12s} " + " ".join(f"{x:10.4g}" for x in qa + qb)
                  + f" {qb[1] / qa[1] - 1:+8.1%} {metric['bound']:6.2f}  {v}"
                  + f"  (n={len(a)},{len(b)} {metric['unit']})")

    print("\nfailure share (failed / attempted)")
    for workload in workloads:
        shares = []
        for s in sets:
            runs = [r for r in s if r["workload"] == workload]
            shares.append(f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}")
        print(f"{workload:15s} A {shares[0]:>12s}   B {shares[1]:>12s}")

    # Exact counts must repeat bit for bit on the same inputs.
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    traced = [defaultdict(list), defaultdict(list)]
    for side, s in zip(traced, sets):
        for r in s:
            if r["trace"] == 1 and r["correct"]:
                side[(r["workload"], r["seed"])].append(r)
    mismatches = 0
    for key in sorted(set(traced[0]) & set(traced[1])):
        runs = traced[0][key] + traced[1][key]
        for name in counts:
            seen = {r["metrics"][name]["value"] for r in runs}
            if len(seen) > 1:
                mismatches += 1
                print(f"count differs: {key[0]} seed {key[1]} {name}: {sorted(seen)}")
    shared = len(set(traced[0]) & set(traced[1]))
    print(f"\nexact counts: {shared} traced (workload, seed) pairs in both sets, "
          f"{mismatches} mismatches")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
