#!/usr/bin/env python3
"""The morita-lab benchmark: runs one workload in this process and prints
every metric by name with its unit.

    python3 perfbench/run.py --workload gorenstein --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports morita_lab from ./src.  The
process is a closed loop with one caller: repetitions of (set-up, body) run
one after another until the next one would end past --seconds (at least
one).  All repetitions of a run see the same inputs, made from --seed.

Times are net of the speed probe (speed.py) and rescaled by it to the
reference machine speed; the raw readings are in the detail record.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and
one traced repetition and prints the per-layer metrics of the traced one.
Outputs are checked against digests in refs.json when the seed has one;
otherwise the digests are printed so two commits can be compared.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from tracer import Tracer, metric_units  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, Outcome, workdir  # noqa: E402

SETUP_SAMPLES = 15
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cli_p50_ms": "ms", "cli_p95_ms": "ms"}
PER_LAYER_UNITS = {**metric_units(), "trace.overhead_s": "s", "process.peak_rss_mb": "MB"}


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(threads_before):
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "MORITA_LAB_THREADS": os.environ.get("MORITA_LAB_THREADS", "unset"),
        "MORITA_LAB_THREADS_before_clearing": threads_before,
    }


def load_refs():
    with open(os.path.join(HERE, "refs.json")) as fh:
        return json.load(fh)


def one_rep(workload, seed, tracer=None):
    """Set-up and body in a fresh work directory.  Returns the body's
    outcome and the perf_counter readings at the start, after the set-up
    and at the end."""
    with workdir():
        t0 = time.perf_counter()
        cli = workload.setup()
        t1 = time.perf_counter()
        out = Outcome()
        if tracer is not None:
            tracer.install()
        try:
            workload.body(cli, seed, out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        t2 = time.perf_counter()
    return out, (t0, t1, t2)


def measure(workload, seed, seconds, trace, refs):
    """Run the repetitions and return the full result record."""
    probe = SpeedProbe()
    setups, bodies, reps = [], [], []
    tracer = traced = None
    with probe:
        for _ in range(SETUP_SAMPLES - 1):
            with workdir():
                t0 = time.perf_counter()
                workload.setup()
                setups.append((t0, time.perf_counter()))
        start = time.perf_counter()
        while True:
            out, (t0, t1, t2) = one_rep(workload, seed)
            reps.append(out)
            setups.append((t0, t1))
            bodies.append((t1, t2))
            if trace or t2 - start + (t2 - t0) > seconds:
                break
        if trace:
            tracer = Tracer()
            out, (_, t1, t2) = one_rep(workload, seed, tracer)
            reps.append(out)
            traced = (t1, t2)
    walls = [probe.scaled(a, b) for a, b in bodies]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref = refs.get(workload.name, {}).get(str(seed))
    expected = ref or reps[0].digest
    for out in reps:
        if out.digest != expected:
            out.notes.append(f"digest {out.digest} != expected {expected}")
            out.failed = out.attempted
    attempted = sum(out.attempted for out in reps)
    failed = sum(out.failed for out in reps)
    latencies = [probe.scaled(a, b) * 1000.0
                 for out in reps[:len(bodies)] for a, b in out.commands]

    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(probe.scaled(a, b) for a, b in setups),
        "cli_p50_ms": percentile(latencies, 50),
        "cli_p95_ms": percentile(latencies, 95),
    }
    per_layer = None
    if tracer is not None:
        per_layer = tracer.metrics()
        per_layer["trace.overhead_s"] = probe.scaled(*traced) - statistics.median(walls)
        per_layer["process.peak_rss_mb"] = peak_rss_mb
    return {
        "workload": workload.name,
        "size": workload.size,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted if attempted else 1.0,
        "digest": reps[0].digest,
        "reference": "match" if ref == reps[0].digest else (
            "mismatch" if ref else "none for this seed"),
        "reps": len(walls),
        "wall_samples_s": walls,
        "raw_wall_samples_s": [b - a for a, b in bodies],
        "raw_setup_samples_s": [b - a for a, b in setups],
        "traced_wall_s": probe.scaled(*traced) if traced else None,
        "peak_rss_mb": peak_rss_mb,
        "probe_ticks": len(probe.durations),
        "probe_median_s": statistics.median(probe.durations) if probe.durations else None,
        "latency_samples": len(latencies),
        "notes": [n for out in reps for n in out.notes][:20],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: morita_lab.lab.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "morita_lab", "cli.py")):
        sys.stderr.write(f"perfbench: no morita_lab source under {SRC}\n")
        return 2
    threads_before = os.environ.pop("MORITA_LAB_THREADS", None)
    workload = WORKLOADS[args.workload]()
    env = environment(threads_before)
    if args.seed is None:
        sys.path.insert(0, SRC)
        from morita_lab.lab import DEFAULT_SEED

        args.seed = DEFAULT_SEED
    res = measure(workload, args.seed, args.seconds, args.trace, load_refs())
    res["env"] = env

    if args.trace:
        metrics, units = res["per_layer"], PER_LAYER_UNITS
    else:
        metrics, units = res["end_to_end"], END_TO_END_UNITS
    for name, value in res["end_to_end"].items():
        print(f"{name:<12} {value:14.6f} {END_TO_END_UNITS[name]}")
    for name, value in (res["per_layer"] or {}).items():
        print(f"{name:<48} {value:16.6f} {PER_LAYER_UNITS[name]}")
    print(f"reps {res['reps']}, cli latency samples {res['latency_samples']}, "
          f"fail_share {res['fail_share']} ({res['failed']}/{res['attempted']}), "
          f"digest {res['digest']} (reference: {res['reference']})")
    for note in res["notes"]:
        print(f"note: {note}")
    print("detail " + json.dumps(res, sort_keys=True))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
