"""Smoke tests: the walkthrough scripts run from this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeres

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    src = str(Path(treeres.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )


def test_worked_example():
    proc = _run_script("worked_example.py")
    assert proc.returncode == 0, proc.stderr
    assert "frame exact: True\n" in proc.stdout
    assert "frame reads back as the tree: ((0, 1), (1, 2), (1, 3))\n" in proc.stdout


def test_census_report():
    proc = _run_script("census_report.py", "--max-vertices", "4")
    assert proc.returncode == 0, proc.stderr
    assert "complexes on <= 4 vertices: 126 (28 up to relabeling)\n" in proc.stdout
    assert "violations: 0\n" in proc.stdout


@pytest.mark.parametrize("flag", ["--max-vertices", "--workers"])
def test_census_report_rejects_bad_sizes(flag):
    proc = _run_script("census_report.py", flag, "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: census needs")
