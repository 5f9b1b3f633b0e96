#!/usr/bin/env python3
"""Append one perf-trajectory record and print its deltas.

    python3 tools/trajectory.py --commit 7c0e692 --note "what changed" \\
        rand_4k:9001-9010=rand.jsonl seq_64k:9001,9002=seq.jsonl

Each WORKLOAD:SEEDS=FILE argument names a file of perfbench result lines
(the last stdout line of `perfbench/run.py`, one per run, in seed order;
SEEDS is a range A-B or a comma list, one seed per line). The record
holds the commit, each workload's seeds and the median of every
end-to-end metric under perfbench's own names, and is appended to
BENCH_trajectory.json at the repository root (--file overrides). The
script then prints, per workload and metric, the change against the
previous record next to that metric's bound in BENCHMARK.json, marking
a change that is worse than its bound.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def medians(path, seeds):
    with open(path) as f:
        runs = [json.loads(line) for line in f if line.strip()]
    if len(runs) != len(seeds):
        sys.exit(f"{path}: {len(runs)} results for {len(seeds)} seeds")
    if not all(r["correct"] for r in runs):
        sys.exit(f"{path}: a run reported correct = false")
    names = runs[0]["metrics"]
    return {n: statistics.median(r["metrics"][n]["value"] for r in runs)
            for n in names}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--commit", required=True)
    ap.add_argument("--note", default="")
    ap.add_argument("--file", default=os.path.join(ROOT, "BENCH_trajectory.json"))
    ap.add_argument("results", nargs="+", metavar="WORKLOAD:SEEDS=FILE")
    args = ap.parse_args()

    record = {"commit": args.commit, "note": args.note, "workloads": {}}
    for spec in args.results:
        head, path = spec.split("=", 1)
        workload, seeds = head.split(":", 1)
        seeds = parse_seeds(seeds)
        record["workloads"][workload] = {"seeds": seeds,
                                         "medians": medians(path, seeds)}

    trajectory = []
    if os.path.exists(args.file):
        with open(args.file) as f:
            trajectory = json.load(f)
    prev = trajectory[-1] if trajectory else None
    trajectory.append(record)
    with open(args.file, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    if prev is None:
        print(f"{args.file}: first record, nothing to compare")
        return 0
    print(f"{prev['commit']} -> {args.commit}")
    for workload, now in record["workloads"].items():
        before = prev["workloads"].get(workload)
        if before is None:
            print(f"{workload}: not in the previous record")
            continue
        print(workload)
        for name, m in bounds.items():
            old, new = before["medians"].get(name), now["medians"].get(name)
            if old is None or new is None:
                continue
            delta = (new - old) / old if old else 0.0
            worse = -delta if m["better"] == "higher" else delta
            flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
            print(f"  {name:15} {old:12.4f} -> {new:12.4f} {m['unit']:7} "
                  f"{delta:+8.2%}  bound {m['bound']:.0%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
