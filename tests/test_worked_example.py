"""The worked example script runs and shows the field dependence it is for:
the displayed self-extension of L = (Ae1; Ae1) is not split over F_3 and
split over F_2."""

import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "worked_example.py")


def test_worked_example_output():
    run = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True,
                         timeout=120, check=True)
    sections = run.stdout.split("== ground field ")[1:]
    assert [s.splitlines()[0] for s in sections] == ["F_3", "F_2"]
    for section, splits in zip(sections, ("False", "True")):
        lines = section.splitlines()
        assert "dim Lambda = 8" in lines
        assert "dim Ext^1(L, L) = 1   proj.dim L = 1" in lines
        assert f"the displayed self-extension splits: {splits}" in lines
