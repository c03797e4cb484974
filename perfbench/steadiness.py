#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and records how steady
each end-to-end metric is: its median, quartiles and the spread between the
quartiles as a share of the median, next to the metric's bound. Each
workload's start time and every run's host-speed guard (the benchmark's own
kernel, timed before and after the timed phase) are recorded beside it.

    python3 perfbench/steadiness.py --seeds 1-10 --label "seeds 1-10" \
        --out perfbench/steadiness/seeds-1-10.md

Run it from the repository root. Each run is the command in BENCHMARK.json
with --workload, --seed, --seconds and --trace 0 appended.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed):
    command = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    guard = re.search(r"host\.kernel_ms (\S+) before and (\S+) after", done.stdout)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, (guard.group(1), guard.group(2)) if guard else ("?", "?")


def now():
    return time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--label", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]
    ]
    seeds = parse_seeds(args.seeds)

    header = [
        f"## {args.label or 'seeds ' + args.seeds}",
        "",
        f"{len(seeds)} runs per workload, seeds {args.seeds}, "
        f"{bench['run_seconds']} s each, one after another.",
        "",
    ]
    table = [
        "| workload | metric | median | q1 | q3 | (q3-q1)/median | bound | runs |",
        "|---|---|---|---|---|---|---|---|",
    ]
    guards = []
    for workload in workloads:
        started = now()
        runs = [run_once(bench, workload, seed) for seed in seeds]
        guards.append(
            f"- {workload}: started {started}, ended {now()}; host.kernel_ms "
            "before/after each run: "
            + " ".join(f"{before}/{after}" for _, (before, after) in runs)
        )
        print(guards[-1], flush=True)
        for name in bounds:
            values = [values[name] for values, _ in runs]
            q1, q2, q3, share = spread(values)
            table.append(
                f"| {workload} | {name} | {q2:.6g} | {q1:.6g} | {q3:.6g} | "
                f"{share:.4f} | {bounds[name]} | {' '.join(f'{v:.6g}' for v in values)} |"
            )
            print(table[-1], flush=True)
    text = "\n".join(header + guards + [""] + table) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
