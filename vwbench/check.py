#!/usr/bin/env python3
"""Run-set tools for vwbench. Run from the repository root.

  vwbench/check.py runs OUT.jsonl [--seeds 1-10] [--seconds S] [--workload W]...
      Runs the benchmark command of BENCHMARK.json once per (workload, seed)
      with tracing off, appends each result to OUT.jsonl, and prints, per
      workload and end-to-end metric, the median and the quartile spread
      (Q3 - Q1) / median beside the metric's bound.

  vwbench/check.py compare A.jsonl B.jsonl
      One row per (workload, end-to-end metric): both medians, the change of
      B against A in the metric's worse direction, and a verdict
      `beyond bound: yes / no / unresolved` (unresolved: the quartile spread
      of either set exceeds the bound).

  vwbench/check.py agree A.jsonl B.jsonl
      As compare, and exits 1 if any metric is beyond its bound.
"""

import json
import statistics
import subprocess
import sys
from collections import defaultdict


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def load_runs(path):
    """workload -> metric -> [values], from a file of result lines."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if not record["correct"] or record["failed"]:
                sys.exit(f"{path}: a {record['workload']} run failed its output check")
            for name, metric in record["metrics"].items():
                runs[record["workload"]][name].append(metric["value"])
    return runs


def spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_runs(args):
    out = args.pop(0)
    spec = load_spec()
    seeds, seconds = range(1, 11), spec["run_seconds"]
    workloads = []
    while args:
        flag, value = args.pop(0), args.pop(0)
        if flag == "--seeds":
            lo, hi = value.split("-")
            seeds = range(int(lo), int(hi) + 1)
        elif flag == "--seconds":
            seconds = value
        elif flag == "--workload":
            workloads.append(value)
        else:
            sys.exit(f"unknown flag {flag}")
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for seed in seeds:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.exit(f"{' '.join(command)} exited with {done.returncode}")
            record = json.loads(done.stdout.strip().splitlines()[-1])
            record.update(workload=workload, seed=seed)
            with open(out, "a") as f:
                f.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed} done", file=sys.stderr)
    runs = load_runs(out)
    print(f"{'workload':<16} {'metric':<20} {'median':>16} {'spread':>8} {'bound':>6}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            values = runs[workload][metric["name"]]
            s = spread(values)
            flag = "" if s <= metric["bound"] / 3 else "  > bound/3" if s <= metric["bound"] else "  > BOUND"
            print(f"{workload:<16} {metric['name']:<20} {statistics.median(values):>16.6g} "
                  f"{s:>8.4f} {metric['bound']:>6}{flag}")


def cmd_compare(args, gate):
    a, b = load_runs(args[0]), load_runs(args[1])
    spec = load_spec()
    beyond = 0
    print(f"{'workload':<16} {'metric':<20} {'A':>14} {'B':>14} {'worse by':>9} {'bound':>6}  beyond bound")
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in a or workload not in b:
            continue
        for metric in spec["end_to_end"]:
            va, vb = a[workload][metric["name"]], b[workload][metric["name"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            if max(spread(va), spread(vb)) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "yes"
                beyond += 1
            else:
                verdict = "no"
            print(f"{workload:<16} {metric['name']:<20} {ma:>14.6g} {mb:>14.6g} "
                  f"{worse:>+9.4f} {metric['bound']:>6}  {verdict}")
    if gate and beyond:
        sys.exit(f"{beyond} metric(s) beyond their bound")


def main():
    args = sys.argv[1:]
    if len(args) >= 2 and args[0] == "runs":
        cmd_runs(args[1:])
    elif len(args) == 3 and args[0] in ("compare", "agree"):
        cmd_compare(args[1:], gate=args[0] == "agree")
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
