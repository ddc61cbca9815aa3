"""The example scripts run end to end and print what the library derives."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def run_report(path):
    return subprocess.run(
        [sys.executable, "scripts/run_cooking_report.py", str(path)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60)


def test_cooking_report_on_a_scene_without_rules_exits_1(tmp_path):
    path = tmp_path / "no-rules.cpl"
    path.write_text("scene E {\n  entities { A; }\n  rules { }\n}\n",
                    encoding="utf-8")
    done = run_report(path)
    assert done.returncode == 1
    assert done.stderr == (
        f"  {path}:1:1: error: cannot select a root from an empty ensemble\n")
    assert done.stdout.endswith("== ensemble strengths ==\n")


def test_cooking_report_on_a_disjoint_scene_exits_1(tmp_path):
    """r2 shares no concept with r1, whose concepts root the hierarchy: the
    report names it as ``cpl hierarchy`` does and prints no hierarchy."""
    path = tmp_path / "disjoint.cpl"
    path.write_text(
        "scene T {\n  entities { A; B; C; D; E; F; }\n  rules {\n"
        "    r1: A + B.C -> A.C.B;\n    r2: D + E.F -> D.F.E;\n  }\n}\n",
        encoding="utf-8")
    done = run_report(path)
    assert done.returncode == 1
    assert done.stderr == (
        f"  {path}:5:5: error: rules share no concept with the hierarchy "
        "rooted at 'A': r2\n")
    assert "== hierarchy" not in done.stdout
    assert "trace events" not in done.stdout


def test_cooking_report_on_an_unreadable_path_writes_cpl_checks_line(
        tmp_path):
    """A missing path, a directory and a file that is not UTF-8 each get
    the line ``cpl check`` writes, and exit 2."""
    missing = tmp_path / "missing.cpl"
    latin = tmp_path / "latin.cpl"
    latin.write_bytes("scene Café { }\n".encode("latin-1"))
    cases = (
        (missing, "No such file or directory"),
        (tmp_path, "Is a directory"),
        (latin, "'utf-8' codec can't decode byte 0xe9 in position 9: "
                "invalid continuation byte"))
    for path, reason in cases:
        done = run_report(path)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", f"cpl: cannot read {path}: {reason}\n")


def run_memory_demo(directory):
    return subprocess.run(
        [sys.executable, "scripts/memory_demo.py", str(directory)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60)


def test_memory_demo_on_a_path_it_cannot_use_exits_2(tmp_path):
    """A file, and a path under a file: the directory cannot be made."""
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    cases = ((taken, "File exists"), (taken / "sub", "Not a directory"))
    for directory, reason in cases:
        done = run_memory_demo(directory)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", f"memory_demo: cannot use {directory}: {reason}\n")


def test_memory_demo_on_memory_it_cannot_load_exits_2(tmp_path):
    """A malformed scene, and a scene whose id the demo stores too: the
    message is ``cpl predict``'s."""
    malformed, clash = tmp_path / "malformed", tmp_path / "clash"
    malformed.mkdir()
    (malformed / "a.json").write_text("{", encoding="utf-8")
    clash.mkdir()
    (clash / "other.json").write_text(
        '{"id": "tea", "features": ["Cup"]}', encoding="utf-8")
    cases = (
        (malformed, "Expecting property name enclosed in double quotes: "
                    "line 1 column 2 (char 1)"),
        (clash, "scene id 'tea' already stored"))
    for directory, reason in cases:
        done = run_memory_demo(directory)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", f"cpl: cannot load memory from {directory}: {reason}\n")


def test_memory_demo_stores_in_a_new_directory(tmp_path):
    directory = tmp_path / "a" / "b"
    done = run_memory_demo(directory)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("stored 4 scenes\n")
    assert sorted(path.name for path in directory.iterdir()) == [
        "breakfast.json", "pasta.json", "soup.json", "tea.json"]



@pytest.mark.parametrize(
    "script", ["scripts/run_cooking_report.py", "scripts/memory_demo.py"])
def test_script_into_a_closed_pipe_exits_2(script, tmp_path):
    """Stdout is a pipe whose read end is already closed, so the script's
    first flush fails with EPIPE."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, script], cwd=REPO_ROOT, stdout=write,
            stderr=subprocess.PIPE, env=dict(os.environ, TMPDIR=str(tmp_path)),
            text=True, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (
        2, "cpl: cannot write stdout: Broken pipe\n")
    assert list(tmp_path.iterdir()) == []
