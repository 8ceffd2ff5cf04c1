"""``run.py compare A B``: is B worse than A beyond the benchmark's bounds?

A and B are records written with ``--out`` — one file each, or one
directory of files each (several runs of one commit).  Per workload and
metric it prints both medians, the ratio B/A, the bound from
BENCHMARK.json and a verdict.  It exits 1 when an end-to-end metric is
worse beyond its bound or a larger share of operations failed.
"""

import glob
import json
import os
import statistics
import sys


def load(path):
    """{(workload, trace): [records]} of a file or a directory."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    groups = {}
    for name in files:
        with open(name) as fh:
            record = json.load(fh)
        groups.setdefault((record["workload"], record["trace"]),
                          []).append(record)
    return groups


def values(records, metric):
    return [r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"]]


def spread(runs):
    """Distance between the quartiles as a share of the median."""
    if len(runs) < 3 or not statistics.median(runs):
        return 0.0
    low, _, high = statistics.quantiles(runs, n=4)
    return (high - low) / abs(statistics.median(runs))


def verdict(a_runs, b_runs, better, bound):
    """worse / same / better, or unresolved when A's own runs spread
    wider than the bound and the two sets of runs overlap."""
    a, b = statistics.median(a_runs), statistics.median(b_runs)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a) / abs(a) if a else 0.0
    apart = max(a_runs) < min(b_runs) or max(b_runs) < min(a_runs)
    if spread(a_runs) > bound and not apart:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def failed_share(records):
    return sum(r["failed"] for r in records) \
        / max(1, sum(r["attempted"] for r in records))


def main(argv, declared):
    """``declared`` is the parsed BENCHMARK.json."""
    if len(argv) != 2:
        sys.exit("usage: run.py compare A.json|A_DIR B.json|B_DIR")
    metrics = {m["name"]: m
               for m in declared["end_to_end"] + declared["per_layer"]}
    a_groups, b_groups = load(argv[0]), load(argv[1])
    status = 0
    for key in sorted(set(a_groups) & set(b_groups)):
        a_records, b_records = a_groups[key], b_groups[key]
        print("{}  trace {}  (A: {} runs, B: {} runs)".format(
            *key, len(a_records), len(b_records)))
        for name, metric in metrics.items():
            a_runs, b_runs = values(a_records, name), values(b_records, name)
            if not a_runs or not b_runs:
                continue
            a, b = statistics.median(a_runs), statistics.median(b_runs)
            bound = metric.get("bound")
            outcome = "no bound" if bound is None else \
                verdict(a_runs, b_runs, metric["better"], bound)
            status |= outcome == "worse"
            print("  {:<36} A {:>12.6g}  B {:>12.6g} {:<6} B/A {:>7} "
                  " bound {:<5} {}".format(
                      name, a, b, metric["unit"],
                      "{:.3f}".format(b / a) if a else "-",
                      "-" if bound is None else bound, outcome))
        a_failed, b_failed = failed_share(a_records), failed_share(b_records)
        print("  ops failed/attempted                 A {:.6f}  B {:.6f}"
              .format(a_failed, b_failed))
        status |= b_failed > a_failed
    for key in sorted(set(a_groups) ^ set(b_groups)):
        print("{} trace {}: in one side only, not compared".format(*key))
    return int(status)
