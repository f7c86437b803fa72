"""The benchmark's workloads.

Each workload is driven through the morita-lab command line in process
(``cli.main(argv)``), one command at a time, so every workload has the same
notion of an operation's latency.  A repetition is a fresh set-up (import of
the package plus instance construction) followed by the body; both run in a
fresh work directory under the checkout, removed afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

EXAMCTP4 = dict(n=3, h=2, i=1, j=3)


@dataclass
class Outcome:
    """What one repetition's body did."""

    commands: list = field(default_factory=list)  # (start, end) perf_counter
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    notes: list = field(default_factory=list)


def fresh_import():
    """Import morita_lab anew from the checkout's source tree, dropping any
    copy already loaded, and return its cli module."""
    for name in [n for n in sys.modules
                 if n == "morita_lab" or n.startswith("morita_lab.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    cli = importlib.import_module("morita_lab.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"morita_lab imported from {cli.__file__}, not {SRC}")
    return cli


def run_command(cli, argv, out):
    """Run one CLI command, recording its start and end in ``out``; returns
    the exit code and the stdout text."""
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    out.commands.append((t0, time.perf_counter()))
    if code != 0:
        out.notes.append(f"{' '.join(argv)}: exit {code}: {stderr.getvalue().strip()}")
    return code, stdout.getvalue()


class Workload:
    name = ""

    def __init__(self, size=None):
        self.size = self.default_size if size is None else size

    def setup(self):
        """Fresh import plus instance construction; returns the cli module."""
        raise NotImplementedError

    def body(self, cli, seed, out):
        raise NotImplementedError


class SuiteWorkload(Workload):
    """One ``morita-lab verify`` command on examctp4(3,2,1,3) over F_3.  The
    operations are the report's claims; the digest is over the canonical
    report bytes."""

    suite = ""

    def setup(self):
        cli = fresh_import()
        cli.lab.catalog("examctp4", cli.field_from_token("3"), **EXAMCTP4)
        return cli

    def body(self, cli, seed, out):
        argv = ["verify", self.suite, "--instance", "examctp4", "--field", "3"]
        for k, v in EXAMCTP4.items():
            argv += ["--param", f"{k}={v}"]
        argv += ["--seed", str(seed), "--count", str(self.size), "--out", "report.json"]
        code, _ = run_command(cli, argv, out)
        with open("report.json", "rb") as fh:
            raw = fh.read()
        out.digest = hashlib.sha256(raw).hexdigest()
        claims = json.loads(raw)["claims"]
        out.attempted += len(claims)
        bad = [c["id"] for c in claims if c["verdict"] == "fail"]
        out.notes += [f"claim {cid} failed" for cid in bad]
        # a nonzero exit without a failed claim fails every claim
        out.failed += len(bad) if bad or not code else len(claims)


class Gorenstein(SuiteWorkload):
    """Acceptance criterion 3; ctp4 draws at least 200 samples whatever the
    count."""

    name = "gorenstein"
    suite = "ctp4"
    default_size = 200


class Approximation(SuiteWorkload):
    """Acceptance criterion 6 at twice its count: rare samples with a slow
    isomorphism search make the cost of 100 samples vary too much between
    seeds."""

    name = "approximation"
    suite = "completeness"
    default_size = 200


class Documents(Workload):
    """CLI commands over JSON documents on the ie instance over Q.  Set-up
    includes the catalog emission.  The digest covers every command's argv,
    exit code and stdout, then every file left in the work directory."""

    name = "documents"
    default_size = 200  # 100 samples vary too much in size between seeds

    def setup(self):
        cli = fresh_import()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["catalog", "ie", "--field", "Q", "--out", "ie.json"])
        if code != 0:
            raise RuntimeError(f"catalog emission failed with exit code {code}")
        return cli

    def commands(self, seed):
        n = self.size
        yield ["sample", "--morita", "ie.json", "--seed", str(seed),
               "--count", str(n), "--out", "s"]
        yield ["sample", "--algebra", "ie.A.json", "--seed", str(seed),
               "--count", str(n), "--out", "x"]
        for i in range(n):
            s, x, t = f"s{i:03d}.json", f"x{i:03d}.json", f"t{i:03d}.json"
            yield ["functor", "TA", "--morita", "ie.json", "--in", x, "--out", t]
            yield ["ext", "--src", t, "--tgt", s]
            yield ["classify", "--module", s, "--class", "mon"]
            yield ["classify", "--module", s, "--class", "epi"]
            yield ["resolve", "--module", s, "--kind", "present",
                   "--out", f"r{i:03d}.json"]

    def body(self, cli, seed, out):
        h = hashlib.sha256()
        for argv in self.commands(seed):
            code, text = run_command(cli, argv, out)
            out.attempted += 1
            out.failed += code != 0
            h.update(json.dumps([argv, code, text]).encode())
        for name in sorted(os.listdir(".")):
            with open(name, "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
        out.digest = h.hexdigest()


WORKLOADS = {w.name: w for w in (Gorenstein, Approximation, Documents)}


@contextlib.contextmanager
def workdir():
    """A fresh directory under the checkout, made current for the block."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(dir=WORK_ROOT)
    here = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(here)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
