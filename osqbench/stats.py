#!/usr/bin/env python3
"""Runs the benchmark N times per workload and summarises each metric.

    python3 osqbench/stats.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                              [--trace 0|1|both]

Run from the root of the repository.  For every workload and metric it
prints the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median, which is how the bounds in BENCHMARK.json were set and how
two sets of runs are compared.  End-to-end spreads at or above a third of
their bound are flagged.  With --trace both it also prints how far the
traced runs' qps and median latency differ from the untraced runs': the
cost of the tracing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d trace %d" %
                         (workload, seed, trace))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0", choices=("0", "1", "both"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    raw = {}
    for workload in args.workloads.split(","):
        for trace in traces:
            runs = [run_once(workload, s, args.seconds, trace)
                    for s in parse_seeds(args.seeds)]
            raw["%s/trace%d" % (workload, trace)] = runs
            failed = [r["failed"] / r["attempted"] for r in runs]
            print("\n%s trace=%d  runs=%d  correct=%s  failed share=%s" %
                  (workload, trace, len(runs), all(r["correct"] for r in runs),
                   sorted(set(failed))))
            print("  %-32s %14s %14s %14s %8s" %
                  ("metric", "median", "q1", "q3", "spread"))
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summarise(values)
                flag = ""
                if name in bounds:
                    if spread >= bounds[name]:
                        flag = "  OVER BOUND %.2f" % bounds[name]
                    elif spread >= bounds[name] / 3:
                        flag = "  over bound/3"
                print("  %-32s %14.6g %14.6g %14.6g %7.1f%%%s" %
                      (name, med, q1, q3, 100 * spread, flag))
        if args.trace == "both":
            plain = raw["%s/trace0" % workload]
            traced = raw["%s/trace1" % workload]
            for e2e, tr in (("qps", "trace.qps"),
                            ("query_p50_ms", "trace.query_p50_ms")):
                a = statistics.median(r["metrics"][e2e]["value"] for r in plain)
                b = statistics.median(r["metrics"][tr]["value"] for r in traced)
                print("  tracing overhead on %-14s untraced %.4g traced %.4g "
                      "(%+.1f%%)" % (e2e, a, b, 100 * (b - a) / a))


if __name__ == "__main__":
    main()
