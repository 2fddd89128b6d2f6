#!/usr/bin/env python3
"""Compare two sets of benchmark runs, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the results run.py --save wrote. Runs pair up by
position within each workload, sorted by file name, which starts with
the seed: give both sides the same seeds, and alternate which side runs
first (README.md shows the loop). For every (metric,
workload) pair of BENCHMARK.json's end_to_end metrics the tool prints
both sides' median and quartiles, the share of pairs the change won and
a verdict under choosing-metrics section 8:

  improved    the change won at least 9 of 10 pairs and the medians
              differ by more than the parent's quartile distance
  no worse    the change's median is within the metric's bound
  worse       the change's median is worse by more than the bound
  unresolved  the parent's own spread is wider than the bound, and not
              every change run beats every parent run

Results from a build other than Release+LTO are skipped. Traced runs'
per-layer metrics are listed with medians only: they have no bound.
Those a workload takes from short runs of another workload are named,
not listed. Exit code 1 when any pair is worse.
"""

import argparse
import json
import sys
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): [result, ...]} of the valid runs in a dir."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if not result.get("valid"):
            print(f"skipping {path}: not a Release+LTO build",
                  file=sys.stderr)
            continue
        runs.setdefault((result["workload"], result["trace"]),
                        []).append(result)
    return runs


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    parent, change = load(args.parent), load(args.change)

    worse = False
    header = (f"{'workload':<14} {'metric':<14} {'parent med [q1,q3]':>32} "
              f"{'change med [q1,q3]':>32} {'won':>5}  verdict")
    print(header)
    for key in sorted(set(parent) & set(change)):
        workload, traced = key
        p_runs, c_runs = parent[key], change[key]
        if traced:
            continue
        tails = {r["info"].get("tail_percentile") for r in p_runs + c_runs}
        if len(tails) > 1:
            print(f"{workload}: req_tail_ms mixes percentiles {tails}; "
                  "compare it with care", file=sys.stderr)
        for m in spec["end_to_end"]:
            v = benchlib.verdict(values(p_runs, m["name"]),
                                 values(c_runs, m["name"]),
                                 m["better"], m["bound"])
            worse |= v["verdict"] == "worse"
            p = (f"{v['parent_median']:.6g} [{v['parent_q1']:.4g},"
                 f"{v['parent_q3']:.4g}]")
            c = (f"{v['change_median']:.6g} [{v['change_q1']:.4g},"
                 f"{v['change_q3']:.4g}]")
            print(f"{workload:<14} {m['name']:<14} {p:>32} {c:>32} "
                  f"{v['won_frac']:>5.0%}  {v['verdict']}")
        failed = [sum(r["failed"] for r in runs) for runs in (p_runs,
                                                              c_runs)]
        if failed[1] > failed[0]:
            print(f"{workload:<14} failures rose from {failed[0]} to "
                  f"{failed[1]}: no gain counts")
    for key in sorted(set(parent) & set(change)):
        workload, traced = key
        if not traced:
            continue
        print(f"\n{workload} per-layer medians (parent -> change)")
        # Metrics a workload does not run come from short runs of other
        # workloads; they describe those, so they are not listed here.
        filled = {name for r in parent[key] + change[key]
                  for name in r["info"].get("filled_from", {})}
        for m in spec["per_layer"]:
            if m["name"] in filled:
                continue
            pm = benchlib.median(values(parent[key], m["name"]))
            cm = benchlib.median(values(change[key], m["name"]))
            print(f"  {m['name']:<26} {pm:>14.6g} -> {cm:<14.6g} "
                  f"{m['unit']}")
        print(f"  not run by {workload}: {', '.join(sorted(filled))}")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
