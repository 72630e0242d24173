#!/usr/bin/env python3
"""Collect, summarise and compare result sets of the repository benchmark.

Run from the repository root:

  python3 perfbench/compare.py collect DIR [--workloads a,b] [--seeds 1-10]
                                           [--trace 0|1]
      Runs the command of BENCHMARK.json for its run_seconds once per
      workload and seed and stores each run's output as
      DIR/<workload>/<seed>.out (last line: result).

  python3 perfbench/compare.py spread DIR
      Per workload and metric: median, quartiles, and the spread
      (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

  python3 perfbench/compare.py compare PARENT CHANGE
      One row per workload and metric, parent vs change.  A gain needs the
      change to win at least 9/10 of the seed-matched pairs (ties count for
      neither) and a median gap wider than the parent's IQR.  A regression
      is a change median worse than the parent's by more than the bound.
      A metric whose spread exceeds its bound on either side is
      unresolved unless every change run beats every parent run.  A
      workload whose change runs fail more often than the parent's fails.

Only runs that passed their oracle with no failed operation count
towards a metric; `spread` and `compare` report the others.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFINITION = os.path.join(HERE, "..", "BENCHMARK.json")


def load_definition(path=DEFINITION):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    """(Q1, median, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """(Q3 - Q1) / median; infinite for a zero median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_set(directory):
    """{workload: {seed: result object}} from a collected directory."""
    results = {}
    for workload in sorted(os.listdir(directory)):
        path = os.path.join(directory, workload)
        if not os.path.isdir(path):
            continue
        for name in sorted(os.listdir(path)):
            if not name.endswith(".out"):
                continue
            with open(os.path.join(path, name)) as f:
                lines = [line for line in f.read().splitlines() if line.strip()]
            if not lines:
                continue
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                continue
            results.setdefault(workload, {})[int(name[: -len(".out")])] = result
    return results


def failed_seeds(runs):
    """Seeds whose run failed its oracle or had failed operations."""
    return sorted(s for s, r in runs.items() if r.get("correct") is not True or r.get("failed"))


def metric_values(runs, metric):
    """{seed: value} over the runs that passed, skipping missing values."""
    bad = set(failed_seeds(runs))
    values = {
        seed: run.get("metrics", {}).get(metric, {}).get("value")
        for seed, run in runs.items()
        if seed not in bad
    }
    return {seed: value for seed, value in values.items() if value is not None}


def metric_specs(definition):
    """[(name, better, bound or None)] for every end-to-end and per-layer metric."""
    specs = [(m["name"], m["better"], m["bound"]) for m in definition["end_to_end"]]
    specs += [(m["name"], m["better"], None) for m in definition["per_layer"]]
    return specs


def verdict(parent, change, better, bound):
    """Classify one metric of one workload.

    `parent` and `change` map seed -> value.  Returns (verdict, wins, pairs).
    """
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    pairs = len(seeds)
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    _, c_med, _ = quartiles(list(change.values()))
    gap = sign * (c_med - p_med)
    if pairs and wins >= 0.9 * pairs and abs(c_med - p_med) > (p_q3 - p_q1) and gap > 0:
        return "improved", wins, pairs
    if bound is None:
        return "no bound", wins, pairs
    if p_med and -gap / abs(p_med) > bound:
        return "regressed", wins, pairs
    every_run_better = all(
        sign * (c - p) > 0 for c in change.values() for p in parent.values()
    )
    if max(spread(list(parent.values())), spread(list(change.values()))) > bound:
        return ("better in every run" if every_run_better else "unresolved"), wins, pairs
    return "within bound", wins, pairs


def cmd_collect(args):
    definition = load_definition()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in definition["workloads"]
    ]
    seconds = definition["run_seconds"]
    failures = 0
    for workload in workloads:
        os.makedirs(os.path.join(args.dir, workload), exist_ok=True)
        for seed in parse_seeds(args.seeds):
            command = definition["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            with open(os.path.join(args.dir, workload, f"{seed}.out"), "w") as f:
                f.write(done.stdout)
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {done.returncode} {last[0][:160]}",
                  flush=True)
            failures += done.returncode != 0
    return 1 if failures else 0


def cmd_spread(args):
    definition = load_definition()
    results = load_set(args.dir)
    status = 0
    print(f"{'workload':<16} {'metric':<34} {'n':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  check")
    for workload, runs in results.items():
        bad = failed_seeds(runs)
        if bad:
            status = 1
            print(f"{workload}: incorrect or failed runs for seeds {bad}, left out")
        for name, _, bound in metric_specs(definition):
            values = list(metric_values(runs, name).values())
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            s = spread(values)
            check = ""
            if bound is not None:
                check = "steady" if s < bound / 3 else ("ok" if s <= bound else "TOO WIDE")
                status |= s > bound
            print(f"{workload:<16} {name:<34} {len(values):>3} {median:>14.6g} "
                  f"{q1:>14.6g} {q3:>14.6g} {s:>8.4f} "
                  f"{'' if bound is None else bound:>6}  {check}")
    return status


def cmd_compare(args):
    definition = load_definition()
    parent, change = load_set(args.parent), load_set(args.change)
    status = 0
    print(f"{'workload':<16} {'metric':<34} {'parent med':>12} {'[q1, q3]':>27} "
          f"{'change med':>12} {'delta':>8} {'wins':>6}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_bad, c_bad = failed_seeds(parent[workload]), failed_seeds(change[workload])
        if p_bad or c_bad:
            failed = len(c_bad) > len(p_bad)
            status |= failed
            print(f"{workload:<16} incorrect or failed runs: parent {len(p_bad)}, "
                  f"change {len(c_bad)}, left out{'  FAILED' if failed else ''}")
        for name, better, bound in metric_specs(definition):
            p = metric_values(parent[workload], name)
            c = metric_values(change[workload], name)
            if not p or not c:
                continue
            q1, p_med, q3 = quartiles(list(p.values()))
            c_med = quartiles(list(c.values()))[1]
            delta = (c_med - p_med) / abs(p_med) if p_med else float("nan")
            result, wins, pairs = verdict(p, c, better, bound)
            status |= result == "regressed"
            print(f"{workload:<16} {name:<34} {p_med:>12.6g} "
                  f"[{q1:>12.6g}, {q3:>12.6g}] {c_med:>12.6g} {delta:>+8.2%} "
                  f"{wins:>2}/{pairs:<3}  {result}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    collect = sub.add_parser("collect")
    collect.add_argument("dir")
    collect.add_argument("--workloads", default="")
    collect.add_argument("--seeds", default="1-10")
    collect.add_argument("--trace", type=int, choices=(0, 1), default=0)
    collect.set_defaults(run=cmd_collect)
    summary = sub.add_parser("spread")
    summary.add_argument("dir")
    summary.set_defaults(run=cmd_spread)
    versus = sub.add_parser("compare")
    versus.add_argument("parent")
    versus.add_argument("change")
    versus.set_defaults(run=cmd_compare)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
