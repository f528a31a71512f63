#!/usr/bin/env python3
"""Run the benchmark ten times per workload and summarize the spread.

Run from the repository root:

    python3 perfbench/calibrate.py [--vary-seed] [--trace] [--out FILE] [--compare FILE]

Each run is the command of BENCHMARK.json with
`--workload W --seed S --seconds run_seconds --trace 0|1`. Every run uses
the benchmark's default seed, 1, so all runs do the same work; with
--vary-seed the runs use seeds 1 to 10 instead, which also shows how far
a metric moves from seed to seed.

For every metric the summary holds min, median, max, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, next to the
metric's bound. A same-seed traced summary also checks that the
deterministic counters read the same in every run, and fails if not.
--compare reads an earlier summary and reports, per workload and metric,
how far each median moved against the bound; it fails if a metric got
worse by more than its bound, and refuses a summary made on a host with
another nproc, since their timings do not compare.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SEED = 1
# Per-layer counters that depend only on the seed, never on timing.
DETERMINISTIC = [
    "ode.rhs_evals",
    "pool.tasks_per_op",
    "ctmc.uniformization_steps",
    "core.trajectory_solves",
]


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    stamp = next((l for l in lines if l.startswith("# benchmark rev")), "")
    fields = stamp.split()
    info = {fields[i]: fields[i + 1] for i in range(2, len(fields) - 1, 2)}
    return json.loads(lines[-1]), info, wall


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "min": min(values),
        "q1": q1,
        "median": median,
        "q3": q3,
        "max": max(values),
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def compare(base, summary, metrics):
    if base.get("nproc") != summary.get("nproc"):
        raise SystemExit(f"refused: baseline nproc {base.get('nproc')} vs {summary.get('nproc')} here")
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}
    worse_than_bound = 0
    for w, entry in summary["workloads"].items():
        for name, s in entry["metrics"].items():
            b = base["workloads"].get(w, {}).get("metrics", {}).get(name)
            if not b or not b["median"]:
                continue
            change = s["median"] / b["median"] - 1
            worse = change if better[name] == "lower" else -change
            verdict = ""
            if bounds[name] is not None:
                verdict = "WORSE" if worse > bounds[name] else "within bound"
                worse_than_bound += verdict == "WORSE"
            s["change_vs_compared"] = change
            print(f"{w:13s} {name:26s} {b['median']:14.4f} -> {s['median']:14.4f} "
                  f"({change:+.2%}) {verdict}")
    return worse_than_bound


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--vary-seed", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    seeds = [SEED + i for i in range(RUNS)] if args.vary_seed else [SEED] * RUNS

    summary = {"runs": RUNS, "seeds": seeds, "trace": args.trace, "workloads": {}}
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        per_metric = {m["name"]: [] for m in metrics}
        walls, failed = [], 0
        for seed in seeds:
            result, info, wall = run_once(bench, w, seed, args.trace)
            summary["rev"], summary["nproc"] = info.get("rev"), int(info.get("nproc", 0))
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: outputs incorrect")
            failed += result["failed"]
            walls.append(round(wall, 2))
            for name in per_metric:
                per_metric[name].append(result["metrics"][name]["value"])
        entry = {"failed": failed, "run_wall_s": walls, "metrics": {}}
        for name, values in per_metric.items():
            s = summarize(values)
            s["bound"] = bounds[name]
            entry["metrics"][name] = s
            flag = ""
            if bounds[name] is not None and s["spread"] is not None:
                flag = "ok" if s["spread"] <= bounds[name] / 3 else "WIDE"
            if args.trace and not args.vary_seed and name in DETERMINISTIC:
                flag = "identical" if s["min"] == s["max"] else "DIFFERS"
                if flag == "DIFFERS":
                    problems.append(f"{w} {name} differs across runs at one seed: {values}")
            print(f"{w:13s} {name:26s} median {s['median']:14.4f} spread {s['spread'] or 0:7.4f} "
                  f"bound {bounds[name]} {flag}", flush=True)
        print(f"{w:13s} run wall s {walls} failed {failed}", flush=True)
        summary["workloads"][w] = entry

    if args.compare:
        with open(args.compare) as f:
            worse = compare(json.load(f), summary, metrics)
        summary["compared_with"] = os.path.relpath(os.path.abspath(args.compare), ROOT)
        if worse:
            problems.append(f"{worse} metric(s) worse than their bound")

    if args.out:
        with open(os.path.join(ROOT, args.out), "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    if problems:
        raise SystemExit("\n".join(problems))


if __name__ == "__main__":
    main()
