"""Scenes deeper than the interpreter's recursion limit."""

import pytest

from cpl.check import check_all
from cpl.cli import main
from cpl.hierarchy import build_ensemble, build_hierarchy
from cpl.parser import parse_scene

DEPTH = 1500


def deep_chain_source(depth: int) -> str:
    """``C00000 < C00001 < ...``: a sub-concept chain ``depth`` links long
    whose names sort in chain order, two links placed by each rule, all
    rules sharing the output ``X``."""
    names = [f"C{i:05d}" for i in range(depth + 1)]
    lines = ["scene Deep {", "  entities {", "    X;"]
    lines.extend(f"    {name};" for name in names)
    lines.extend(["  }", "  rules {"])
    for i in range(0, depth, 2):
        a, b, c = names[i:i + 3]
        lines.append(
            f"    r{i}: X + {c}.{b}.{a} -> X.{a}.{b}.{c} where {a} < {b} < {c};")
    lines.extend(["  }", "}"])
    return "\n".join(lines) + "\n"


def deep_chain_scene(depth: int):
    result = parse_scene(deep_chain_source(depth))
    assert result.scene is not None, result.diagnostics
    return result.scene


def test_deep_sub_concept_chain():
    scene = deep_chain_scene(DEPTH)
    assert check_all(scene) == []
    build = build_hierarchy(scene, build_ensemble(scene))
    hierarchy = build.hierarchy
    assert build.diagnostics == ()
    assert hierarchy.is_acyclic()
    assert hierarchy.reachable_from_root() == set(hierarchy.nodes)
    assert len(hierarchy.nodes) == DEPTH + 2


@pytest.mark.parametrize("flags", [[], ["--sorted"], ["--dot"]])
def test_deep_chain_trees_cli(capsys, tmp_path, flags):
    path = tmp_path / "deep.cpl"
    path.write_text(deep_chain_source(DEPTH), encoding="utf-8")
    assert main(["trees", str(path), *flags]) == 0
    out = capsys.readouterr().out
    chain = "(".join(f"C{i:05d}" for i in range(DEPTH, -1, -1)) + ")" * DEPTH
    if flags == ["--dot"]:
        assert out.count(" -> ") == DEPTH
    elif flags == ["--sorted"]:
        assert out == f"{chain}, X\n"
    else:
        assert out == f"X, {chain}\n"
