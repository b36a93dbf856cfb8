#!/usr/bin/env python3
"""Compares two sets of perfbench runs: a parent build and a change.

Each input file holds perfbench result objects, one JSON object per line,
as the last stdout line of `python3 perfbench/run.py ...` prints them
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1):

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"svc_p50_ms": {"value": 1.2, "unit": "ms"}, ...}}

A line may carry a "workload" key naming the simulated GPU it ran on;
lines without one take --workload. Other lines (the host banner, blank
lines) are skipped. Runs pair up by order within a workload: the i-th
parent run with the i-th change run, as alternating runs produce them.

    python3 scripts/bench_compare.py --parent parent.jsonl --change change.jsonl

For every workload x metric it prints both medians and quartiles, the
share of pairs the change wins, and whether the change passes the gain
rule: it wins at least nine tenths of the pairs (ties count for neither
side) and its median beats the parent's by more than the parent's
interquartile range. It flags (WORSE) any metric whose median moved the
wrong way by more than its BENCHMARK.json bound (per-layer metrics have
no bound), and exits 1 if any metric is flagged or any run failed a check.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict

WIN_SHARE = 0.9


def load_runs(paths, default_workload):
    """{workload: [result, ...]} in file and line order."""
    runs = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "metrics" not in obj:
                    continue
                runs[obj.get("workload", default_workload)].append(obj)
    return runs


def quartiles(values):
    """(q1, median, q3), linearly interpolated between samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare_metric(spec, parent, change):
    """One table row for `spec` over paired parent/change runs."""
    name = spec["name"]
    lower = spec["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    pairs = list(zip(p, c))
    wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
    p_q1, p_med, p_q3 = quartiles(p)
    c_q1, c_med, c_q3 = quartiles(c)
    gain = (p_med - c_med) if lower else (c_med - p_med)
    share = wins / len(pairs) if pairs else 0.0
    passes = share >= WIN_SHARE and gain > (p_q3 - p_q1)
    # Relative move in the worse direction, against the bound (per-layer
    # metrics have none and are never flagged).
    worse = -gain / abs(p_med) if p_med != 0 else (1.0 if gain < 0 else 0.0)
    bound = spec.get("bound")
    flagged = bound is not None and worse > bound
    return {
        "metric": name,
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "wins": wins, "pairs": len(pairs), "passes": passes,
        "worse_share": worse, "bound": bound, "flagged": flagged,
    }


def fmt_q(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True,
                    help="result files of the parent build")
    ap.add_argument("--change", nargs="+", required=True,
                    help="result files of the change")
    ap.add_argument("--workload", default="default",
                    help="workload of lines without a 'workload' key")
    ap.add_argument("--benchmark", default="BENCHMARK.json",
                    help="metric directions and bounds")
    args = ap.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    specs = bench["end_to_end"] + bench["per_layer"]
    parent = load_runs(args.parent, args.workload)
    change = load_runs(args.change, args.workload)

    bad = False
    for workload in sorted(set(parent) | set(change)):
        pr, cr = parent.get(workload, []), change.get(workload, [])
        print(f"== {workload}: {len(pr)} parent runs, {len(cr)} change runs")
        for label, rs in (("parent", pr), ("change", cr)):
            failed = sum(r["failed"] for r in rs)
            incorrect = sum(1 for r in rs if not r["correct"])
            if failed or incorrect:
                bad = True
                print(f"   {label}: {incorrect} incorrect runs, "
                      f"{failed} failed operations")
        if not pr or not cr:
            print("   nothing to compare")
            continue
        if len(pr) != len(cr):
            print(f"   pairing the first {min(len(pr), len(cr))} runs of each")
        print(f"   {'metric':<28} {'parent median [q1, q3]':<30} "
              f"{'change median [q1, q3]':<30} {'wins':>7}  verdict")
        for spec in specs:
            if not all(spec["name"] in r["metrics"] for r in pr + cr):
                continue
            row = compare_metric(spec, pr, cr)
            verdict = "gain" if row["passes"] else "-"
            if row["flagged"]:
                verdict = (f"WORSE by {row['worse_share']:.1%} "
                           f"> bound {row['bound']:.0%}")
                bad = True
            print(f"   {row['metric']:<28} {fmt_q(row['parent']):<30} "
                  f"{fmt_q(row['change']):<30} "
                  f"{row['wins']:>3}/{row['pairs']:<3}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
