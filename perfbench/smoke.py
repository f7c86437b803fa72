#!/usr/bin/env python3
"""Fast smoke test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload once at a tiny size with tracing (which also runs one
untraced repetition), and checks that the end-to-end and per-layer metric
names are exactly those declared in BENCHMARK.json, that no operation failed
and that the traced outputs equal the untraced ones.  It then checks that
the benchmark refuses to run, with a nonzero exit code and no result, in a
directory holding only BENCHMARK.json and perfbench/.  The gorenstein
workload cannot be made tiny (the ctp4 suite draws at least 200 samples),
so it dominates the run time, about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import ROOT, WORKLOADS, workdir  # noqa: E402

TINY = {"gorenstein": 1, "approximation": 2, "documents": 2}


def check(ok, message):
    if not ok:
        raise SystemExit(f"smoke: FAIL: {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    check(sorted(WORKLOADS) == sorted(w["name"] for w in bench["workloads"]),
          "workload names differ from BENCHMARK.json")
    check(list(run.END_TO_END_UNITS) == end_to_end, "end-to-end metric names")
    check(list(run.PER_LAYER_UNITS) == per_layer, "per-layer metric names")
    os.environ.pop("MORITA_LAB_THREADS", None)
    for name, size in TINY.items():
        res = run.measure(WORKLOADS[name](size), 1, 0, True, {})
        check(list(res["end_to_end"]) == end_to_end, f"{name}: end-to-end names")
        check(list(res["per_layer"]) == per_layer, f"{name}: per-layer names")
        check(res["fail_share"] == 0 and res["correct"],
              f"{name}: fail_share {res['fail_share']}, notes {res['notes']}")
        print(f"smoke: {name} ok ({res['attempted']} operations, "
              f"wall {res['end_to_end']['wall_s']:.3f}s, "
              f"traced {res['traced_wall_s']:.3f}s)", flush=True)

    # the final line of a real run is one JSON object with the four keys
    docs = WORKLOADS["documents"]
    default, docs.default_size = docs.default_size, TINY["documents"]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", "documents", "--seed", "1",
                             "--seconds", "0", "--trace", "0"])
    finally:
        docs.default_size = default
    last = json.loads(buf.getvalue().splitlines()[-1])
    check(code == 0 and sorted(last) == ["attempted", "correct", "failed", "metrics"],
          "final line of run.main")
    check(list(last["metrics"]) == end_to_end, "final line metric names")

    with workdir() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "documents",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
