"""One process that runs many commands writes what one process per command
writes: definitions kept from command to command (jsonio._DEFINITIONS), and
the memos they carry, change no exit code, stdout byte or file byte."""

import contextlib
import functools
import io

import pytest

from morita_lab import cli
from morita_lab import jsonio


def documents_commands(field, count):
    """The documents sequence that CI runs through the console script."""
    yield ["catalog", "ie", "--field", field, "--out", "ie.json"]
    yield ["sample", "--morita", "ie.json", "--seed", "1", "--count", str(count), "--out", "s"]
    yield ["sample", "--algebra", "ie.A.json", "--seed", "1", "--count", str(count),
           "--out", "x"]
    for i in range(count):
        s, x, t = f"s{i:03d}.json", f"x{i:03d}.json", f"t{i:03d}.json"
        yield ["functor", "TA", "--morita", "ie.json", "--in", x, "--out", t]
        yield ["ext", "--src", t, "--tgt", s]
        yield ["classify", "--module", s, "--class", "mon"]
        yield ["classify", "--module", s, "--class", "epi"]
        yield ["resolve", "--module", s, "--kind", "present", "--out", f"r{i:03d}.json"]


def run_sequence(directory, field, cold, monkeypatch):
    """Each command's exit code and stdout, then each written file's bytes,
    and the number of bimodules built; a cold run forgets every kept
    definition before each command."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    built = []
    monkeypatch.setattr(jsonio, "bimodule_from_json", functools.partial(
        lambda build, *a: built.append(1) or build(*a), jsonio.bimodule_from_json))
    outputs = []
    for argv in documents_commands(field, 3):
        if cold:
            jsonio._DEFINITIONS.clear()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        outputs.append((argv, code, stdout.getvalue()))
    monkeypatch.undo()
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return outputs, files, len(built)


@pytest.mark.parametrize("field", ["Q", "3"])
def test_warm_process_writes_what_cold_processes_write(tmp_path, monkeypatch, field):
    *warm, warm_builds = run_sequence(tmp_path / "warm", field, False, monkeypatch)
    *cold, cold_builds = run_sequence(tmp_path / "cold", field, True, monkeypatch)
    assert all(code == 0 for _, code, _ in warm[0])
    assert warm == cold
    # M and N once, against once for each command that reads the Morita
    # data: sample --morita, and five commands on each of three samples
    assert (warm_builds, cold_builds) == (2, 2 * (1 + 5 * 3))
