"""Smoke test: every script under ``demos/`` runs to the end, silently on
stderr, in a fresh interpreter that imports ``icmech`` from this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import icmech

SRC = Path(icmech.__file__).resolve().parent.parent
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
