#!/usr/bin/env python3
"""Run every verification suite on its canonical instance and write the
reports to a directory (default: ./reports).

Usage: python scripts/run_all_suites.py [--out reports] [--count 100] [--seed N]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from morita_lab.fields import F2, F3, QQ
from morita_lab import lab
from morita_lab.jsonio import emit

RUNS = [
    ("green", "ie", F3, {}),
    ("green", "examctp4", F3, dict(n=3, h=2, i=1, j=3)),
    ("adjunction", "ie", F3, {}),
    ("orthogonality", "ie", F3, {}),
    ("compare", "ie", F3, {}),
    ("example-ie", "ie", F3, {}),
    ("char2", "ie", F2, {}),
    ("ctp4", "examctp4", F3, dict(n=3, h=2, i=1, j=3)),
    ("resolutions", "ie", F3, {}),
    ("completeness", "examctp4", F3, dict(n=3, h=2, i=1, j=3)),
    ("differences", "ie", F3, {}),
    ("hovey", "examctp4", F3, dict(n=3, h=2, i=1, j=3)),
    ("oracle", "ie", F2, {}),
    # over Q, so that the reports diffed across hash seeds cover the
    # object-dtype path too
    ("green", "ie", QQ, {}),
    ("resolutions", "ie", QQ, {}),
    ("compare", "ie", QQ, {}),
    ("differences", "ie", QQ, {}),
]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="reports")
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=lab.DEFAULT_SEED)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    cfg = lab.SampleConfig(seed=args.seed, count=args.count)
    failures = 0
    for suite, name, field, params in RUNS:
        t0 = time.perf_counter()
        inst = lab.catalog(name, field, **params)
        rep = lab.run_suite(suite, inst, cfg)
        doc = rep.to_dict()
        tag = f"{suite}-{name}-" + (f"p{field.p}" if field.p else "Q")
        path = os.path.join(args.out, f"{tag}.json")
        emit(doc, path)
        n_pass = sum(1 for c in doc["claims"] if c["verdict"] == "pass")
        n_fail = sum(1 for c in doc["claims"] if c["verdict"] == "fail")
        verdict = "PASS" if rep.passed else "FAIL"
        print(f"{verdict}  {tag:38s} {n_pass:3d} pass  {n_fail:2d} fail  "
              f"{time.perf_counter() - t0:6.2f}s  -> {path}")
        if not rep.passed:
            failures += 1
    if failures:
        print(f"{failures} suite(s) failed")
        return 1
    print("all suites passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
