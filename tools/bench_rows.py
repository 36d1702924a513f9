#!/usr/bin/env python3
"""Commit-by-commit benchmark trajectory for hsq.

Runs alternating parent/change pairs of `perfbench/run.py` and appends
one row per side to `BENCH_<workload>.json` at the repo root:

    python3 tools/bench_rows.py run --workload serve-read \\
        --parent ../parent --change ../change --pairs 10 --seed 7 --seconds 15

`--parent` and `--change` are two `git clone` checkouts, one of each
commit. A row records the measured commit, the
visible core count, the seed, the run length, how many runs it
summarises, and min/median/p90 of every metric the runs reported. Pairs
alternate which side runs first, so drift on a shared machine hits both
sides alike. The run also prints, per metric, how many pairs the change
won and the two medians next to the parent's interquartile range.

    python3 tools/bench_rows.py --check BENCH_serve-read.json BENCH_accurate-disk.json

checks that each file parses, that every row carries the required
fields, and that every metric name is declared in BENCHMARK.json.

A row also records the box's load around its runs, under `box`: the
1-minute load average from `/proc/loadavg` before and after each run,
and each run's CPU seconds (the benchmark and the daemon it forks,
from `getrusage(RUSAGE_CHILDREN)` deltas), each as min/median/max.
A busy box shows up there before it shows up as a slow metric. Rows
written before `box` existed still pass `--check`.
"""

import argparse
import datetime
import json
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROW_KEYS = ("workload", "side", "commit", "visible_cores", "seed", "seconds", "trace", "runs",
            "correct", "failed", "metrics")
RUN_TIMEOUT_S = 1200
BOX_KEYS = ("loadavg_before", "loadavg_after", "child_cpu_s")
# Printed after each pair, parent -> change.
PROGRESS_METRICS = ("setup_s", "quick_p50_ms", "accurate_p50_ms", "throughput_per_s")


def bench_file(workload):
    return os.path.join(ROOT, f"BENCH_{workload}.json")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_rows(path):
    if not os.path.exists(path):
        return []
    with open(path) as f:
        rows = json.load(f)
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON list of rows")
    return rows


def save_rows(path, rows):
    # One row per line, so a new row is a one-line diff.
    with open(path, "w") as f:
        f.write("[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n]\n")


def commit_of(checkout):
    try:
        out = subprocess.run(["git", "-C", checkout, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sys.exit(f"bench_rows: {checkout} is not a git checkout")


def loadavg_1m():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_once(checkout, args):
    """One run: its setup line, its result line, and the box's load around it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    load0, cpu0 = loadavg_1m(), children_cpu_s()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    box = {"loadavg_before": load0, "loadavg_after": loadavg_1m(),
           "child_cpu_s": children_cpu_s() - cpu0}
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_rows: run in {checkout} failed (exit {proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1]), box


def quantile(xs, q):
    # Nearest rank, so every reported figure is one a run produced.
    xs = sorted(xs)
    return xs[min(len(xs) - 1, max(0, int(round(q * (len(xs) - 1)))))]


def summarise(values):
    return {"min": min(values), "median": statistics.median(values), "p90": quantile(values, 0.9)}


def make_row(args, side, commit, runs):
    setup = runs[0][0]
    names = sorted(set().union(*(r["metrics"] for _, r, _ in runs)))
    metrics = {}
    for name in names:
        vals = [r["metrics"][name]["value"] for _, r, _ in runs if name in r["metrics"]]
        metrics[name] = dict(summarise(vals), unit=runs[0][1]["metrics"][name]["unit"])
    box = {}
    for key in BOX_KEYS:
        vals = [b[key] for _, _, b in runs]
        box[key] = {"min": min(vals), "median": statistics.median(vals), "max": max(vals)}
    return {
        "workload": args.workload,
        "side": side,
        "commit": commit,
        "date": datetime.date.today().isoformat(),
        "visible_cores": setup.get("visible_cores"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": len(runs),
        "correct": all(r["correct"] for _, r, _ in runs),
        "failed": sum(r["failed"] for _, r, _ in runs),
        "metrics": metrics,
        "box": box,
    }


def report(parent, change, declared):
    """Per metric: pairs the change won, both medians, the parent's IQR."""
    names = sorted(set(parent[0][1]["metrics"]) & set(change[0][1]["metrics"]))
    print(f"{'metric':34} {'wins':>7} {'parent med':>12} {'change med':>12} {'delta':>8} "
          f"{'parent IQR':>11}")
    for name in names:
        better = declared.get(name, {}).get("better", "lower")
        p = [r["metrics"][name]["value"] for _, r, _ in parent]
        c = [r["metrics"][name]["value"] for _, r, _ in change]
        wins = sum(1 for a, b in zip(p, c) if (b < a if better == "lower" else b > a))
        pm, cm = statistics.median(p), statistics.median(c)
        iqr = quantile(p, 0.75) - quantile(p, 0.25)
        delta = (cm - pm) / pm * 100 if pm else 0.0
        print(f"{name:34} {wins:>3}/{len(p):<3} {pm:12.4g} {cm:12.4g} {delta:7.1f}% {iqr:11.4g}")


def cmd_run(args):
    declared = declared_metrics()
    parent_commit = commit_of(args.parent)
    change_commit = commit_of(args.change)
    sides = {"parent": [], "change": []}
    dirs = {"parent": args.parent, "change": args.change}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(run_once(dirs[side], args))
        (_, p, pb), (_, c, cb) = sides["parent"][-1], sides["change"][-1]
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{k} {p['metrics'][k]['value']:.4g}->{c['metrics'][k]['value']:.4g}"
            for k in PROGRESS_METRICS if k in p["metrics"])
            + f", load {pb['loadavg_before']:.2f}->{cb['loadavg_before']:.2f}", flush=True)
    report(sides["parent"], sides["change"], declared)
    path = bench_file(args.workload)
    rows = load_rows(path)
    rows.append(make_row(args, "parent", parent_commit, sides["parent"]))
    rows.append(make_row(args, "change", change_commit, sides["change"]))
    save_rows(path, rows)
    print(f"appended 2 rows to {os.path.relpath(path, ROOT)}")


def cmd_check(paths):
    declared = declared_metrics()
    errors = []
    for path in paths:
        try:
            rows = load_rows(path)
        except (OSError, ValueError) as e:
            errors.append(f"{path}: {e}")
            continue
        if not rows:
            errors.append(f"{path}: no rows")
        for i, row in enumerate(rows):
            missing = [k for k in ROW_KEYS if k not in row]
            if missing:
                errors.append(f"{path}: row {i} lacks {', '.join(missing)}")
                continue
            for name, stats in row["metrics"].items():
                if name not in declared:
                    errors.append(f"{path}: row {i}: metric {name} is not in BENCHMARK.json")
                elif not all(k in stats for k in ("min", "median", "p90")):
                    errors.append(f"{path}: row {i}: metric {name} lacks min/median/p90")
            for key in BOX_KEYS if "box" in row else ():
                stats = row["box"].get(key)
                if not isinstance(stats, dict) or not all(
                        k in stats for k in ("min", "median", "max")):
                    errors.append(f"{path}: row {i}: box {key} lacks min/median/max")
    for e in errors:
        print(f"bench_rows: {e}", file=sys.stderr)
    if not errors:
        print(f"bench_rows: {len(paths)} file(s) ok")
    return 1 if errors else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--check":
        if len(sys.argv) < 3:
            sys.exit("usage: bench_rows.py --check BENCH_<workload>.json ...")
        return cmd_check(sys.argv[2:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating pairs and append one row per side")
    r.add_argument("--workload", required=True, choices=("serve-read", "accurate-disk"))
    r.add_argument("--parent", required=True, help="checkout of the parent commit")
    r.add_argument("--change", required=True, help="checkout of the change")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--seconds", type=int, default=15)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    cmd_run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
