#!/usr/bin/env python3
"""Size sweep of the ctp4 suite over examctp4(n, h, i, j) on F_3: one traced
pass per size, not gated, so that scaling is visible.

    python3 perfbench/sweep.py [--out FILE]

For each size it prints the traced wall time, raw and rescaled by the speed
probe, and the exact work counts linalg.kron.cells, linalg.rref.cells and
fields.normalize.calls.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import fresh_import  # noqa: E402

SIZES = ((3, 2, 1, 3), (4, 2, 1, 3), (5, 3, 1, 4), (6, 3, 1, 5))
COUNT = 200
KEYS = ("linalg.kron.cells", "linalg.rref.cells", "fields.normalize.calls",
        "algebras.tensor_over.time_s", "linalg.rref.time_s")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out")
    args = parser.parse_args()
    os.environ.pop("MORITA_LAB_THREADS", None)
    rows = []
    for n, h, i, j in SIZES:
        cli = fresh_import()
        lab = cli.lab
        seed = lab.DEFAULT_SEED
        inst = lab.catalog("examctp4", cli.field_from_token("3"), n=n, h=h, i=i, j=j)
        tracer, probe = Tracer(), SpeedProbe()
        tracer.install()
        try:
            with probe:
                t0 = time.perf_counter()
                rep = lab.run_suite("ctp4", inst, lab.SampleConfig(seed=seed, count=COUNT))
                t1 = time.perf_counter()
        finally:
            tracer.uninstall()
        m = tracer.metrics()
        row = {"size": [n, h, i, j], "seed": seed, "count": COUNT,
               "passed": rep.passed, "traced_raw_wall_s": t1 - t0,
               "traced_wall_s": probe.scaled(t0, t1),
               **{k: m[k] for k in KEYS}}
        rows.append(row)
        print(json.dumps(row), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["passed"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
