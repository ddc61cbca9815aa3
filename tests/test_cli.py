import json
import random
import tempfile
from pathlib import Path

from hypothesis import assume, given, strategies as st

from cpl.check import check_all
from cpl.cli import main
from cpl.parser import format_scene, parse_scene

from genhelpers import make_scene


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_clean(capsys, cooking_path):
    code, out, err = run(capsys, "check", str(cooking_path))
    assert code == 0
    assert out == "0 errors\n"
    assert err == ""


def test_check_inconsistent(capsys, scenes_dir):
    code, out, err = run(capsys, "check", str(scenes_dir / "inconsistent.cpl"))
    assert code == 1
    assert "r1" in err and "r9" in err
    assert out == "1 error\n"


def test_check_parse_failure(capsys, scenes_dir):
    code, out, err = run(capsys, "check", str(scenes_dir / "first_attempt.cpl"))
    assert code == 2
    assert "error" in err


def test_check_places_short_result_term_at_its_first_token(capsys, tmp_path):
    """A result term of one entity is reported at that entity, not at the
    token after the term."""
    path = tmp_path / "short.cpl"
    path.write_text("scene S { entities { A; B; C; } "
                    "rules { r1: A + B.C -> A; } }", encoding="utf-8")
    assert run(capsys, "check", str(path)) == (
        2, "",
        f"{path}:1:56: error: a result term needs at least two entities\n")


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "scenes/does_not_exist.cpl")
    assert code == 2
    assert "cannot read" in err


def test_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "latin1.cpl"
    path.write_bytes("scene Caf\xe9 {}\n".encode("latin-1"))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"cpl: cannot read {path}: ")
    assert "Traceback" not in err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_grid_csv_deterministic(capsys, cooking_path):
    code, first, _ = run(capsys, "grid", str(cooking_path))
    assert code == 0
    code, second, _ = run(capsys, "grid", str(cooking_path))
    assert first == second
    assert first.startswith(",Pot,Kitchen,")


def test_grid_json_format_version(capsys, cooking_path):
    code, out, _ = run(capsys, "grid", str(cooking_path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["format_version"] == 1
    assert payload["concepts"][0] == "Pot"
    assert ["Heat", "Pot", 3] in payload["secondary_links"]


def assert_grid_json_matches_csv(path: Path, workdir: Path) -> None:
    """``grid --format json`` holds the same concepts and rows as the CSV,
    with 0 where the CSV leaves the diagonal blank."""
    csv_path, json_path = workdir / "grid.csv", workdir / "grid.json"
    assert main(["grid", str(path), "--out", str(csv_path)]) == 0
    assert main(["grid", str(path), "--format", "json",
                 "--out", str(json_path)]) == 0
    header, *rows = csv_path.read_text(encoding="utf-8").splitlines()
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    names = header.removeprefix(",")
    assert payload["concepts"] == (names.split(",") if names else [])
    assert len(payload["counts"]) == len(rows)
    for i, (row, counts) in enumerate(zip(rows, payload["counts"])):
        label, *cells = row.split(",")
        assert label == payload["concepts"][i]
        assert cells[i] == "" and counts[i] == 0
        assert counts == [int(cell) if cell else 0 for cell in cells]


def test_grid_json_rows_match_csv_on_bundled_scenes(scenes_dir, tmp_path):
    checked = []
    for path in sorted(scenes_dir.glob("*.cpl")):
        scene = parse_scene(path.read_text(encoding="utf-8")).scene
        if scene is None or check_all(scene):
            continue
        assert_grid_json_matches_csv(path, tmp_path)
        checked.append(path.name)
    assert "cooking.cpl" in checked


@given(st.integers(0, 10**9))
def test_grid_json_rows_match_csv_on_generated_scenes(seed):
    scene = make_scene(random.Random(seed))
    assume(not check_all(scene))
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "scene.cpl"
        path.write_text(format_scene(scene), encoding="utf-8")
        assert_grid_json_matches_csv(path, Path(workdir))


def test_cluster_output(capsys, cooking_path):
    code, out, _ = run(capsys, "cluster", str(cooking_path))
    assert code == 0
    assert "cluster: Egg, Pot, Water" in out
    assert "link: Heat - Pot (3)" in out


def test_trees_sorted(capsys, cooking_path):
    code, out, _ = run(capsys, "trees", str(cooking_path), "--sorted")
    assert code == 0
    assert out.strip() == ("Kitchen(Cooker(Hob(Heat)), Cupboard(Pot), "
                           "Pot(Egg, Heat, Water), Tap(Water))")


COOKING_TREES_DOT = (
    "digraph concept_forest {\n"
    "  node [shape=box];\n"
    "  subgraph cluster_0 {\n"
    '    label="Kitchen";\n'
    '    n0 [label="Kitchen"];\n'
    '    n1 [label="Cupboard"];\n'
    '    n2 [label="Pot"];\n'
    "    n1 -> n2 [style=dotted];\n"
    "    n0 -> n1;\n"
    '    n3 [label="Pot"];\n'
    '    n4 [label="Egg"];\n'
    "    n3 -> n4;\n"
    '    n5 [label="Water"];\n'
    "    n3 -> n5;\n"
    '    n6 [label="Heat"];\n'
    "    n3 -> n6;\n"
    "    n0 -> n3;\n"
    '    n7 [label="Tap"];\n'
    '    n8 [label="Water"];\n'
    "    n7 -> n8;\n"
    "    n0 -> n7;\n"
    '    n9 [label="Cooker"];\n'
    '    n10 [label="Hob"];\n'
    '    n11 [label="Heat"];\n'
    "    n10 -> n11;\n"
    "    n9 -> n10;\n"
    "    n0 -> n9;\n"
    "  }\n"
    "  n11 -> n6 [style=dashed, dir=none];\n"
    "  n2 -> n3 [style=dashed, dir=none];\n"
    "  n8 -> n5 [style=dashed, dir=none];\n"
    "}\n"
)


def test_trees_dot(capsys, cooking_path):
    """No concept occurs more than twice in the cooking scene, so each
    repeat is one dashed line between its two occurrences."""
    assert run(capsys, "trees", str(cooking_path), "--dot") == (
        0, COOKING_TREES_DOT, "")


def test_cycles_text(capsys, cooking_path):
    code, out, _ = run(capsys, "cycles", str(cooking_path))
    assert code == 0
    assert "Kitchen, Cupboard, Pot -> Pot" in out
    assert "Pot -> Heat -> Pot  [r5, r7]" in out


def test_cycles_dot(capsys, cooking_path):
    code, out, _ = run(capsys, "cycles", str(cooking_path), "--dot")
    assert code == 0
    assert out.startswith("digraph process_cycles")
    assert "penwidth=2" in out  # cycle edges are highlighted in color


def test_cycles_dot_builds_no_uni_link(capsys, cooking_path, monkeypatch):
    """The DOT form draws only the cycles, so it never builds the links."""
    _, want, _ = run(capsys, "cycles", str(cooking_path), "--dot")

    def refuse(*args):
        raise AssertionError("cycles --dot built the uni-links")

    monkeypatch.setattr("cpl.forest.uni_links", refuse)
    assert run(capsys, "cycles", str(cooking_path), "--dot") == (0, want, "")


def test_hierarchy_text(capsys, cooking_path):
    code, out, _ = run(capsys, "hierarchy", str(cooking_path))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "root: Pot"
    assert "Pot -> Water" in lines


def test_hierarchy_dot(capsys, cooking_path):
    code, out, _ = run(capsys, "hierarchy", str(cooking_path), "--dot")
    assert code == 0
    assert "rankdir=BT" in out


def test_out_writes_file(tmp_path, capsys, cooking_path):
    target = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "grid", str(cooking_path), "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith(",Pot,")


def test_out_unwritable_is_usage_failure(tmp_path, capsys, cooking_path):
    cases = (
        ("trees", tmp_path / "missing" / "x", "No such file or directory"),
        ("grid", tmp_path, "Is a directory"))
    for cmd, target, reason in cases:
        code, out, err = run(
            capsys, cmd, str(cooking_path), "--out", str(target))
        assert code == 2
        assert out == ""
        assert err == f"cpl: cannot write {target}: {reason}\n"


SCENE_COMMANDS = ("grid", "cluster", "trees", "cycles", "hierarchy")
REVERSED_NESTING = ("error: 'Cupboard < Kitchen' (r1) contradicts "
                    "'Kitchen < Cupboard' (r9)")


def test_scene_commands_exit_on_unusable_scenes(capsys, scenes_dir):
    missing = scenes_dir / "does_not_exist.cpl"
    rejected = scenes_dir / "first_attempt.cpl"
    inconsistent = scenes_dir / "inconsistent.cpl"
    cases = (
        (missing, 2, f"cpl: cannot read {missing}: No such file or directory\n"),
        (rejected, 2,
         f"{rejected}:11:16: error: expected entity name, found '('\n"),
        (inconsistent, 1, f"{inconsistent}:25:5: {REVERSED_NESTING}\n"))
    for cmd in SCENE_COMMANDS:
        for path, code, err in cases:
            assert run(capsys, cmd, str(path)) == (code, "", err), cmd


def test_hierarchy_diagnostics_exit_1(capsys, tmp_path):
    cases = (
        ("empty", "scene E {\n  entities { A; }\n  rules { }\n}\n",
         "1:1: error: cannot select a root from an empty ensemble"),
        ("disjoint",
         "scene T {\n  entities { A; B; C; D; E; F; }\n  rules {\n"
         "    r1: A + B.C -> A.C.B;\n    r2: D + E.F -> D.F.E;\n  }\n}\n",
         "5:5: error: rules share no concept with the hierarchy rooted at "
         "'A': r2"))
    for name, source, message in cases:
        path = tmp_path / f"{name}.cpl"
        path.write_text(source, encoding="utf-8")
        assert run(capsys, "hierarchy", str(path)) == (
            1, "", f"{path}:{message}\n")


def test_check_out_keeps_diagnostics_and_exit_code(tmp_path, capsys,
                                                   scenes_dir):
    path = scenes_dir / "inconsistent.cpl"
    diagnostics = f"{path}:25:5: {REVERSED_NESTING}\n"
    target = tmp_path / "count.txt"
    assert run(capsys, "check", str(path), "--out", str(target)) == (
        1, "", diagnostics)
    assert target.read_text(encoding="utf-8") == "1 error\n"
    missing = tmp_path / "missing" / "x"
    assert run(capsys, "check", str(path), "--out", str(missing)) == (
        2, "", diagnostics
        + f"cpl: cannot write {missing}: No such file or directory\n")


def test_predict_from_memory_dir(capsys, scenes_dir):
    code, out, _ = run(
        capsys, "predict", "--memory", str(scenes_dir / "memory_demo"),
        "--input", "Pot,Water", "-k", "3")
    assert code == 0
    assert out.split("\n")[0] == "Heat 6"


def test_predict_with_legal(capsys, scenes_dir):
    code, out, _ = run(
        capsys, "predict", "--memory", str(scenes_dir / "memory_demo"),
        "--input", "Pot,Water", "--legal", "Egg,Salt", "-k", "2")
    assert code == 0
    assert out == "Egg 2\nSalt 2\n"


def test_predict_k_below_one_is_usage_failure(capsys, scenes_dir):
    for k in ("0", "-2"):
        code, out, err = run(
            capsys, "predict", "--memory", str(scenes_dir / "memory_demo"),
            "--input", "Pot", "-k", k)
        assert code == 2
        assert out == ""
        assert err == f"cpl: -k must be at least 1, got {k}\n"


def test_predict_missing_memory(capsys, tmp_path):
    code, _, err = run(
        capsys, "predict", "--memory", str(tmp_path / "nope"),
        "--input", "Pot")
    assert code == 2
    assert "not a directory" in err


def test_predict_memory_without_scene_files(capsys, scenes_dir):
    """A directory with no ``*.json`` file holds no memory, which is not the
    same as a memory that votes for nothing."""
    assert run(capsys, "predict", "--memory", str(scenes_dir),
               "--input", "Pot") == (
        2, "", f"cpl: {scenes_dir} holds no memory scene (*.json)\n")


def test_predict_malformed_memory(capsys, tmp_path):
    (tmp_path / "s1.json").write_text('{"id": "s1", "features": "Pot"}',
                                      encoding="utf-8")
    code, out, err = run(
        capsys, "predict", "--memory", str(tmp_path), "--input", "Pot")
    assert code == 2
    assert out == ""
    assert err == (f"cpl: cannot load memory from {tmp_path}: "
                   "s1.json: features is not a list of strings\n")


def test_predict_deeply_nested_memory(capsys, tmp_path):
    depth = 200000
    (tmp_path / "a.json").write_text("[" * depth + "]" * depth,
                                     encoding="utf-8")
    code, out, err = run(
        capsys, "predict", "--memory", str(tmp_path), "--input", "A")
    assert code == 2
    assert out == ""
    assert err == (f"cpl: cannot load memory from {tmp_path}: "
                   "a.json: nested too deeply\n")


def test_color_toggle(capsys, scenes_dir, monkeypatch):
    monkeypatch.setenv("CPL_COLOR", "1")
    path = scenes_dir / "inconsistent.cpl"
    err = (f"{path}:25:5: \x1b[31merror\x1b[0m: 'Cupboard < Kitchen' (r1) "
           "contradicts 'Kitchen < Cupboard' (r9)\n")
    assert run(capsys, "check", str(path)) == (1, "1 error\n", err)
    monkeypatch.setenv("CPL_COLOR", "0")
    code, _, err = run(capsys, "check", str(scenes_dir / "inconsistent.cpl"))
    assert "\x1b[31m" not in err
