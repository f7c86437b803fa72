"""Time the benchmark's documents commands with one process per command.

perfbench drives the CLI in process (``cli.main``), so the definitions that
``jsonio._DEFINITIONS`` keeps are reused from one command to the next.  The
``morita-lab`` console script runs one command per process, and each such
process starts with nothing kept.  This script runs the documents workload's
commands that way, each as ``python -m morita_lab.cli`` over the given source
tree, one at a time, in a fresh temporary directory:

    python3 scripts/documents_per_process.py --count 20 --seed 1
    python3 scripts/documents_per_process.py --src /path/to/other/src --count 20

It prints one JSON document: the body's wall time, the nearest-rank p50 and
p95 of the command latencies, and a digest of every argv, exit code, stdout
and written file (the catalog emission is set-up and is not timed), so two
source trees can be compared on the same bytes.  The script itself uses
this checkout's perfbench command list and its morita_lab.jsonio.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.workloads import Documents  # noqa: E402
from morita_lab.jsonio import canonical_dumps  # noqa: E402


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    env.pop("MORITA_LAB_THREADS", None)

    def run(argv):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "morita_lab.cli", *argv],
                              env=env, capture_output=True, text=True)
        return time.perf_counter() - t0, proc

    h, latencies = hashlib.sha256(), []
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        _, proc = run(["catalog", "ie", "--field", "Q", "--out", "ie.json"])
        if proc.returncode != 0:
            sys.exit(f"catalog emission failed: {proc.stderr}")
        start = time.perf_counter()
        for argv in Documents(size=args.count).commands(args.seed):
            seconds, proc = run(argv)
            latencies.append(seconds)
            h.update(canonical_dumps([argv, proc.returncode, proc.stdout]).encode())
        wall = time.perf_counter() - start
        for name in sorted(os.listdir(".")):
            with open(name, "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
        os.chdir(ROOT)
    sys.stdout.write(canonical_dumps({
        "src": os.path.abspath(args.src), "count": args.count, "seed": args.seed,
        "commands": len(latencies), "wall_s": round(wall, 4),
        "cli_p50_ms": round(1000 * percentile(latencies, 50), 3),
        "cli_p95_ms": round(1000 * percentile(latencies, 95), 3),
        "digest": h.hexdigest()}))

if __name__ == "__main__":
    main()
