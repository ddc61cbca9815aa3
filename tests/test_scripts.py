"""The example scripts run end to end and print what the library derives."""

import subprocess
import sys
from pathlib import Path

from test_acceptance import GOLDEN_CSV

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_cooking_report_prints_the_golden_grid():
    done = subprocess.run(
        [sys.executable, "scripts/run_cooking_report.py"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    section = done.stdout.split("== frequency grid ==\n", 1)[1]
    assert section.split("\n\n== clusters ==", 1)[0] + "\n" == GOLDEN_CSV
