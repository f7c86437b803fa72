"""jsonio.canonical_dumps writes exactly the bytes of json.dumps(v,
indent=2) + "\\n", the reference it replaces, and refuses with a TypeError
what json.dumps refuses: on generated values, on every catalog document and
on every report that scripts/run_all_suites.py writes."""

import enum
import importlib.util
import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morita_lab import cli, jsonio

ROOT = Path(__file__).resolve().parents[1]


def reference(v):
    return json.dumps(v, indent=2) + "\n"


SPECIAL_FLOATS = [-0.0, 0.0, 1e300, -1e300, 5e-324, math.nan, math.inf, -math.inf]
# strings with non-ASCII characters, control characters, quotes and backslashes
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\n\t é€😀')))
INTS = st.one_of(st.integers(), st.integers(min_value=1 << 63, max_value=1 << 200),
                 st.integers(min_value=-(1 << 200), max_value=-(1 << 63) - 1))
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from(SPECIAL_FLOATS))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
KEYS = st.one_of(TEXT, INTS, FLOATS, st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
        # lists of scalars of one type, which are joined in one piece
        *(st.lists(s, min_size=1, max_size=5) for s in (TEXT, INTS, FLOATS, st.booleans())),
    )


VALUES = st.recursive(SCALARS, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_generated_values_match_json_dumps(v):
    assert jsonio.canonical_dumps(v) == reference(v)


class Colour(enum.IntEnum):
    RED = 3


class Label(str):
    pass


@pytest.mark.parametrize("v", [
    {}, [], (), [[]], [{}], {"a": [], "b": {}, "c": ()},
    [Colour.RED, Label("x"), np.float64(2.5)],
    {Label("k"): Colour.RED, Colour.RED: np.float64(-0.0), 1.5: None, True: 1, None: 2},
    [1, "1", 1.0, True, None], [True, False], [None, None],
])
def test_empty_containers_and_subclasses_match_json_dumps(v):
    assert jsonio.canonical_dumps(v) == reference(v)


@pytest.mark.parametrize("v", [
    {1, 2}, np.int64(3), b"x", [1, {2}], {"a": np.int64(1)}, [b"x"],
    {b"key": 1}, {(1, 2): 3}, np.array([1, 2]),
])
def test_what_json_dumps_refuses_is_refused(v):
    with pytest.raises(TypeError) as want:
        reference(v)
    with pytest.raises(TypeError) as got:
        jsonio.canonical_dumps(v)
    assert str(got.value) == str(want.value)


@pytest.fixture()
def checked_dumps(monkeypatch):
    """jsonio.canonical_dumps, replaced by one that also checks its text
    against json.dumps; returns the list of checked texts."""
    dumps, texts = jsonio.canonical_dumps, []

    def checking(doc):
        text = dumps(doc)
        assert text == reference(doc)
        texts.append(text)
        return text

    monkeypatch.setattr(jsonio, "canonical_dumps", checking)
    return texts


@pytest.mark.parametrize("name", ["ie", "examctp4", "a2", "triangular", "product", "irem1"])
def test_every_catalog_document_matches_json_dumps(tmp_path, checked_dumps, name):
    for field in ("2", "3", "Q"):
        with redirect_stdout(io.StringIO()):
            assert cli.main(["catalog", name, "--field", field,
                             "--out", str(tmp_path / f"{name}{field}.json")]) == 0
    # five documents and one stdout object per field
    assert len(checked_dumps) == 18


def test_every_suite_report_matches_json_dumps(tmp_path, checked_dumps, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location(
        "run_all_suites", ROOT / "scripts" / "run_all_suites.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["run_all_suites.py", "--count", "2",
                                      "--out", str(tmp_path)])
    with redirect_stdout(io.StringIO()):
        assert script.main() == 0
    assert len(checked_dumps) == len(script.RUNS)
