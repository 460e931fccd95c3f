#!/usr/bin/env python3
"""Compare two benchmark result sets, metric by metric and workload by
workload.

    python3 benchmark/compare.py A.json B.json [--spec BENCHMARK.json]

A and B are result sets written by `benchmark/run.py --out`; A is the
base (the parent commit), B the change. For every end-to-end metric of
BENCHMARK.json and every workload both sets ran untraced, it prints each
side's median and quartiles and one verdict:

  unresolved  either side's quartile spread, as a share of its median,
              is wider than the metric's bound (unless every B run beats
              every A run, which reads as better)
  worse       B's median is worse than A's by more than the bound
  better      B's median beats A's by more than either side's spread
  same        anything else

Exits 1 when any verdict is worse or unresolved, or when either set has
failed correctness checks.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    """(q1, median, q3). The inclusive method keeps a set of three runs
    from reading its extremes as its quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def series(doc):
    """{(workload, metric): [values]} over the untraced runs."""
    out = {}
    for run in doc["runs"]:
        if run["trace"] != 0:
            continue
        for name, value in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(value)
    return out


def verdict(a, b, better, bound):
    """Verdict for one (metric, workload) pair: see the module doc."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means B is worse
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    spread = max((q3 - q1) / abs(m) if m else 0.0
                 for q1, m, q3 in (quartiles(a), quartiles(b)))
    if spread > bound:
        every_b_better = all(sign * (x - y) < 0 for x in b for y in a)
        return "better" if every_b_better else "unresolved"
    change = sign * (mb - ma) / abs(ma) if ma else 0.0
    if change > bound:
        return "worse"
    if -change > spread:
        return "better"
    return "same"


def failed_checks(doc):
    return (sum(r["failed"] for r in doc["runs"]),
            sum(r["attempted"] for r in doc["runs"]))


def compare(spec, a_doc, b_doc):
    """Rows of (workload, metric, A quartiles, B quartiles, verdict)."""
    a, b = series(a_doc), series(b_doc)
    workloads = [w["name"] for w in spec["workloads"]]
    rows = []
    for metric in spec["end_to_end"]:
        for workload in workloads:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            rows.append((workload, metric["name"], quartiles(a[key]),
                         quartiles(b[key]),
                         verdict(a[key], b[key], metric["better"],
                                 metric["bound"])))
    return rows


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--spec", default=str(SPEC))
    args = ap.parse_args(argv)
    with open(args.spec) as f:
        spec = json.load(f)
    docs = []
    for path in (args.a, args.b):
        with open(path) as f:
            docs.append(json.load(f))

    rows = compare(spec, *docs)

    def fmt(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    print(f"{'workload':<12} {'metric':<18} {'A median [q1, q3]':>36} "
          f"{'B median [q1, q3]':>36} {'change':>8}  verdict")
    bad = 0
    for workload, metric, qa, qb, v in rows:
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        print(f"{workload:<12} {metric:<18} {fmt(qa):>36} {fmt(qb):>36} "
              f"{change:>+8.1%}  {v}")
        bad += v in ("worse", "unresolved")
    for label, doc in zip("AB", docs):
        failed, attempted = failed_checks(doc)
        print(f"{label}: {failed} of {attempted} correctness checks failed")
        bad += failed > 0
    if not rows:
        print("no (metric, workload) pair in common")
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
