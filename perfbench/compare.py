#!/usr/bin/env python3
"""Compares benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds runs recorded with `run.py --record FILE`. Make at least ten
runs per side and workload, alternating which side runs first, with the same
seeds on both sides. For every workload and end-to-end metric the report
gives each side's median and quartiles, the share of pairs the change won
(pairs are matched by seed, ties count for neither side) and a verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ, in the better direction, by more than the parent's
              own quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  not worse, but the quartile spread of either side is wider
              than the bound and not every change run beats every parent
              run, so "no worse" cannot be told from noise;
  no worse    otherwise.

Per-layer metrics that are counts (unit "count" or "bytes") repeat exactly
for a given seed; they are reported as counts, parent -> change, never as
speed-ups. Digests are compared per (workload, seed).
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = []
    with open(path) as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, direction, bound):
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    win_share = wins / len(pairs) if pairs else 0.0
    parent_spread = p_q3 - p_q1
    spread = max(parent_spread / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    worse_by = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if (len(pairs) >= 10 and win_share >= 0.9
            and -worse_by > parent_spread):
        result = "improved"
    elif worse_by > bound * abs(p_med):
        result = "worse"
    elif spread > bound and not all_better:
        result = "unresolved"
    else:
        result = "no worse"
    return (p_q1, p_med, p_q3), (c_q1, c_med, c_q3), win_share, len(pairs), result


def by_workload(runs, trace):
    grouped = {}
    for run in runs:
        if run["trace"] == trace:
            grouped.setdefault(run["workload"], []).append(run)
    for workload in grouped:
        grouped[workload].sort(key=lambda run: run["seed"])
    return grouped


def paired(parent_runs, change_runs):
    """Runs matched by seed, in seed order (first run of each seed)."""
    change_by_seed = {}
    for run in change_runs:
        change_by_seed.setdefault(run["seed"], run)
    parent_by_seed = {}
    for run in parent_runs:
        parent_by_seed.setdefault(run["seed"], run)
    seeds = sorted(set(parent_by_seed) & set(change_by_seed))
    return [(parent_by_seed[s], change_by_seed[s]) for s in seeds]


def fmt(value):
    return f"{value:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    parent_runs, change_runs = load(args.parent), load(args.change)

    status = 0
    parent_e2e, change_e2e = by_workload(parent_runs, 0), by_workload(change_runs, 0)
    print("| workload | metric | parent q1/median/q3 | change q1/median/q3 "
          "| pairs won | verdict |")
    print("|---|---|---|---|---|---|")
    for workload in sorted(set(parent_e2e) | set(change_e2e)):
        pairs = paired(parent_e2e.get(workload, []), change_e2e.get(workload, []))
        if not pairs:
            print(f"| {workload} | - | - | - | 0 pairs | unresolved |")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            change = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            p, c, share, n, result = verdict(parent, change, metric["better"],
                                             metric["bound"])
            if result == "worse":
                status = 1
            print(f"| {workload} | {name} ({metric['unit']}) | "
                  f"{'/'.join(fmt(v) for v in p)} | {'/'.join(fmt(v) for v in c)} "
                  f"| {share:.0%} of {n} | {result} |")
        failed = [(p["result"]["failed"], c["result"]["failed"]) for p, c in pairs]
        if any(c > p for p, c in failed):
            status = 1
            print(f"| {workload} | failed cells | | | | more failures than parent |")

    print()
    print("Digests (per workload and seed):")
    for workload in sorted(set(parent_e2e) & set(change_e2e)):
        for p, c in paired(parent_e2e[workload], change_e2e[workload]):
            same = p["digests"] == c["digests"]
            print(f"  {workload} seed {p['seed']}: "
                  + ("identical" if same else
                     f"CHANGED {p['digests']} -> {c['digests']}"))

    parent_traced, change_traced = by_workload(parent_runs, 1), by_workload(change_runs, 1)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
    for workload in sorted(set(parent_traced) & set(change_traced)):
        pairs = paired(parent_traced[workload], change_traced[workload])
        if not pairs:
            continue
        p, c = pairs[0]
        print()
        print(f"Per-layer counts, {workload} seed {p['seed']} (parent -> change):")
        for name in counts:
            before = p["result"]["metrics"][name]["value"]
            after = c["result"]["metrics"][name]["value"]
            mark = "" if before == after else "  (changed)"
            print(f"  {name}: {fmt(before)} -> {fmt(after)}{mark}")
    return status


if __name__ == "__main__":
    sys.exit(main())
