#!/usr/bin/env python3
"""Run the benchmark once per seed, one process after another, and report
each end-to-end metric's median and quartile spread against its bound.

    python3 perfbench/spread.py --workload gorenstein --seeds 1-10
    python3 perfbench/spread.py --workload documents --seeds 1,1 --trace 1

The spread is (q3 - q1) / median over the runs, with the quartiles of
statistics.quantiles(values, n=4); the bound comes from BENCHMARK.json.
With --trace 1 the per-layer counts of runs that share a seed are compared
and any difference is reported.  --out writes every run's detail record and
the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count", "B", "ratio")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
    return detail, json.loads(lines[-1])


def summarize(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"runs": [], "summary": {}}
    problems = 0
    for workload in args.workload:
        values, counts = {}, {}
        for seed in parse_seeds(args.seeds):
            detail, last = run_once(workload, seed, seconds, args.trace)
            record["runs"].append(detail)
            print(f"{workload} seed {seed}: correct {last['correct']} "
                  f"failed {last['failed']}/{last['attempted']} "
                  f"reference {detail['reference']} digest {detail['digest'][:16]} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()
                             if k in bounds), flush=True)
            problems += not last["correct"]
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                if args.trace and m["unit"] in EXACT_UNITS:
                    seen = counts.setdefault((seed, name), m["value"])
                    if seen != m["value"]:
                        print(f"  {name} differs between runs of seed {seed}: "
                              f"{seen} != {m['value']}")
                        problems += 1
        summary = {}
        for name, vals in values.items():
            if name not in bounds:
                continue
            s = summarize(vals)
            s["bound"] = bounds[name]
            summary[name] = s
            flag = "ok" if s["spread"] < bounds[name] / 3 else (
                "within bound" if s["spread"] <= bounds[name] else "OVER BOUND")
            print(f"  {workload:<14} {name:<12} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"bound {bounds[name]} {flag}", flush=True)
            problems += name != "setup_s" and s["spread"] > bounds[name]
        record["summary"][workload] = summary
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
