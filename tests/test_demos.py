"""The narrative demo scripts must keep running end to end and print
exactly their committed output in ``golden/<demo>.txt``."""

import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).parent
DEMOS = sorted((TESTS.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (TESTS / "golden" / f"{script.stem}.txt").read_text()
