"""Smoke test of the demo scripts: each runs to completion and prints."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    # conftest.py puts src/ on PYTHONPATH for child processes
    r = subprocess.run([sys.executable, str(script)], capture_output=True,
                       text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()
