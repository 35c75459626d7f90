#!/usr/bin/env python3
"""Compare two sets of ctj_benchmark run records against BENCHMARK.json.

    python3 ctjbench/ctj_benchmark_compare.py BASE_DIR CHANGE_DIR

Each directory holds the JSON records run.py writes (one per run). For every
(workload, end-to-end metric) it prints each side's median and quartiles
(statistics.quantiles, n=4) and a verdict, judged against the metric's
bound in BENCHMARK.json (a share of the base median):

  better       the change's median beats the base by more than the base's
               own quartile spread
  no worse     the change's median is within the bound
  regression   the change's median is worse than the base by more than the
               bound
  unresolved   a side's quartile spread exceeds the bound, unless every
               change run beats every base run (then: better)

Traced runs are skipped: their end-to-end numbers include tracing work.
Exits 1 on any regression or on a record whose correctness checks failed.
Standard library only.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        runs.setdefault(record["workload"], []).append(record)
    return runs


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, bound, lower_is_better):
    b_q1, b_med, b_q3 = summary(base)
    c_q1, c_med, c_q3 = summary(change)
    sign = 1.0 if lower_is_better else -1.0
    worse_share = sign * (c_med - b_med) / b_med
    spread = max((b_q3 - b_q1) / b_med, (c_q3 - c_q1) / c_med)
    all_better = (max(change) < min(base)) if lower_is_better else (
        min(change) > max(base))
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worse_share > bound:
        return "regression"
    if -worse_share > (b_q3 - b_q1) / b_med:
        return "better"
    return "no worse"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    base, change = load_runs(args.base), load_runs(args.change)
    failed = False
    for side, runs in (("base", base), ("change", change)):
        for workload, records in runs.items():
            for r in records:
                if not r["correct"] or r["failed"]:
                    print(f"INCORRECT {side} {workload} seed {r['seed']}: "
                          f"{r.get('check_failures')} failed={r['failed']}")
                    failed = True
            hosts = {(r["host_cpus"], r["simd_level"]) for r in records}
            if len(hosts) > 1:
                print(f"warning: {side} {workload} mixes hosts {sorted(hosts)}")

    header = (f"{'workload':13} {'metric':17} {'n':>5} "
              f"{'base q1/med/q3':>32} {'change q1/med/q3':>32} "
              f"{'bound':>6}  verdict")
    print(header)
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            print(f"{workload:13} missing on one side")
            failed = True
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["end_to_end"][name]["value"] for r in base[workload]]
            c = [r["end_to_end"][name]["value"] for r in change[workload]]
            v = verdict(b, c, metric["bound"], metric["better"] == "lower")
            failed |= v == "regression"
            fmt = lambda s: "/".join(f"{x:.4g}" for x in summary(s))
            print(f"{workload:13} {name:17} {len(b):>2}/{len(c):<2} "
                  f"{fmt(b):>32} {fmt(c):>32} {metric['bound']:>6}  {v}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
