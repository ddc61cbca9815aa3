"""The example scripts run end to end and print what the library derives."""

import os
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


def test_memory_demo_prints_the_same_and_leaves_no_files(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    outputs = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "scripts/memory_demo.py"], cwd=REPO_ROOT,
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("stored 4 scenes\n")
    assert list(tmp_path.iterdir()) == []


def test_cooking_report_on_an_inconsistent_scene_exits_1():
    done = subprocess.run(
        [sys.executable, "scripts/run_cooking_report.py",
         "scenes/inconsistent.cpl"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr == (
        "  scenes/inconsistent.cpl:25:5: error: 'Cupboard < Kitchen' (r1) "
        "contradicts 'Kitchen < Cupboard' (r9)\n")
