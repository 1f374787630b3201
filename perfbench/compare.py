#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the run records perfbench/run.py writes under
<build>/results/ (one JSON file per run, --trace 0). Runs are paired by
seed. The comparison is refused (exit 2) when two records' fingerprints
differ in anything but the commit they measure: host, compiler, build
type, workload configuration and the set of seeds must all match. A
workload whose new runs fail more inferences than its base runs is worse
(exit 1) whatever its timings. Per metric it prints each side's median
and quartiles and a verdict against the bound BENCHMARK.json fixes:

  worse        the new median is worse than the base median by more than
               the bound (exit 1);
  better       the new side wins at least 9 of 10 seed pairs and the
               medians differ by more than the base runs' quartile spread;
  unresolved   the base runs spread wider than the bound;
  same         otherwise.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARED = ("git_commit", "seed")


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        fp = record.get("fingerprint", {})
        if fp.get("trace") != 0:
            continue
        runs.setdefault(fp["workload"], []).append(record)
    return runs


def setting(fp):
    return {k: v for k, v in fp.items() if k not in COMPARED}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def refusal(workload, a, b):
    """Why the runs of `workload` cannot be compared, or None."""
    fps = [setting(r["fingerprint"]) for r in a + b]
    if not a or not b:
        return "runs on one side only"
    for fp in fps:
        if fp != fps[0]:
            diff = {k for k in fp.keys() | fps[0].keys()
                    if fp.get(k) != fps[0].get(k)}
            return f"fingerprints differ in {sorted(diff)}"
    seeds_a = sorted(r["fingerprint"]["seed"] for r in a)
    seeds_b = sorted(r["fingerprint"]["seed"] for r in b)
    if seeds_a != seeds_b or len(set(seeds_a)) != len(seeds_a):
        return f"seeds differ ({seeds_a} vs {seeds_b})"
    return None


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load(sys.argv[1]), load(sys.argv[2])
    workloads = sorted(set(base) | set(new))
    for workload in workloads:
        why = refusal(workload, base.get(workload, []), new.get(workload, []))
        if why:
            print(f"{workload}: {why}; refusing to compare")
            return 2
    worse = False
    for workload in workloads:
        by_seed_a = {r["fingerprint"]["seed"]: r["result"]
                     for r in base[workload]}
        by_seed_b = {r["fingerprint"]["seed"]: r["result"]
                     for r in new[workload]}
        seeds = sorted(by_seed_a)
        failed_a = sum(r["failed"] for r in by_seed_a.values())
        failed_b = sum(r["failed"] for r in by_seed_b.values())
        print(f"== {workload}: {len(seeds)} seed pairs, failed inferences "
              f"base {failed_a}, new {failed_b}")
        if failed_b > failed_a:
            print("  worse: the new side fails more inferences")
            worse = True
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            va = [by_seed_a[s]["metrics"][name]["value"] for s in seeds]
            vb = [by_seed_b[s]["metrics"][name]["value"] for s in seeds]
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            regress = change > m["bound"] if lower else -change > m["bound"]
            wins = sum((y < x) if lower else (y > x) for x, y in zip(va, vb))
            if regress:
                verdict, worse = "worse", True
            elif (qa[2] - qa[0]) / qa[1] > m["bound"]:
                verdict = "unresolved"
            elif wins >= 0.9 * len(va) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                verdict = "better"
            else:
                verdict = "same"
            print(f"  {name:16s} base {qa[1]:11.4f} [{qa[0]:.4f}, {qa[2]:.4f}]"
                  f"  new {qb[1]:11.4f} [{qb[0]:.4f}, {qb[2]:.4f}]"
                  f"  {100 * change:+6.1f}% {m['unit']:5s} {verdict}")
    return 1 if worse else 0

if __name__ == "__main__":
    sys.exit(main())
