"""Scenes deeper than the interpreter's recursion limit, and scene shapes
on which a step was once quadratic or worse."""

import io
import sys

import pytest

import oracles
from cpl.ast import Diagnostic
from cpl.check import check_all, check_scene, scene_contradictions, validate_rule
from cpl.cli import main
from cpl.forest import build_forest, extract_cycles
from cpl.grid import build_grid, cluster_scene, to_csv
from cpl.hierarchy import build_ensemble, build_hierarchy
from cpl.parser import parse_scene

from genhelpers import is_acyclic, reachable_from_root

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


def deep_loop_source(depth: int) -> str:
    """The deep chain plus a self-loop on its top concept and the
    association ``C00000 - C00002`` at its bottom."""
    top = f"C{depth:05d}"
    return deep_chain_source(depth).replace(
        "C00000 < C00001 < C00002;", "C00000 < C00001 < C00002, C00000 - C00002;"
    ).replace("  }\n}\n", f"    loop: {top} -> {top};\n  }}\n}}\n")


def looped_chain_source(depth: int) -> str:
    """The deep chain with a self-loop ``loop{i}`` on every chain concept
    and no association, so no loop closes a walk."""
    loops = "".join(f"    loop{i}: C{i:05d} -> C{i:05d};\n"
                    for i in range(depth + 1))
    return deep_chain_source(depth).replace("  }\n}\n", loops + "  }\n}\n")


def mixed_source(n: int) -> str:
    """``n`` pairs nested both ways by mixed relations and no root: rule
    ``s{i}`` declares ``B{i} < A{i}`` and rule ``c{i}`` ``A{i} in B{i}``,
    so every pair is a cycle no edge enters and each ``A{i}`` is promoted
    to a root of its own."""
    lines = ["scene Mixed {", "  entities {"]
    for i in range(n):
        lines.extend(f"    {letter}{i:05d};" for letter in "ABX")
    lines.extend(["  }", "  rules {"])
    for i in range(n):
        a, b, x = (f"{letter}{i:05d}" for letter in "ABX")
        lines.append(f"    s{i}: {a} + {b}.{x} -> {a}.{x}.{b} where {b} < {a};")
        lines.append(f"    c{i}: {b} + {a}.{x} -> {b}.{x}.{a} where {a} in {b};")
    lines.extend(["  }", "}"])
    return "\n".join(lines) + "\n"


def fan_source(n: int) -> str:
    """A hub ``H`` and ``n`` spoke pairs ``L``, ``M``: rule ``r{i}`` is
    ``H + L{i}.M{i} -> H.M{i}.L{i}``, so every count is 1, every pair is a
    mutual best pair and ``H`` neighbours every other concept."""
    lines = ["scene Fan {", "  entities {", "    H;"]
    for i in range(n):
        lines.extend((f"    L{i:05d};", f"    M{i:05d};"))
    lines.extend(["  }", "  rules {"])
    for i in range(n):
        lo, mi = f"L{i:05d}", f"M{i:05d}"
        lines.append(f"    r{i}: H + {lo}.{mi} -> H.{mi}.{lo} where {mi} < {lo};")
    lines.extend(["  }", "}"])
    return "\n".join(lines) + "\n"


def contradiction_source(n: int) -> str:
    """A hub ``H`` and ``n`` pairs ``A``, ``B`` nested both ways: rule
    ``f{i}`` declares ``A{i} < B{i}`` and rule ``g{i}`` ``B{i} < A{i}``, so
    the scene holds ``n`` reversed sub-concept pairs."""
    lines = ["scene Reversed {", "  entities {", "    H;"]
    for i in range(n):
        lines.extend((f"    A{i:05d};", f"    B{i:05d};"))
    lines.extend(["  }", "  rules {"])
    for i in range(n):
        a, b = f"A{i:05d}", f"B{i:05d}"
        lines.append(f"    f{i}: H + {b}.{a} -> H.{a}.{b} where {a} < {b};")
        lines.append(f"    g{i}: H + {a}.{b} -> H.{b}.{a} where {b} < {a};")
    lines.extend(["  }", "}"])
    return "\n".join(lines) + "\n"


def cycle_source(n: int) -> str:
    """A hub ``H`` and, for each ``i < n``, its own two cycles: rule
    ``p{i}`` declares ``P{i} in Q{i}`` and rule ``q{i}`` ``Q{i} in P{i}``,
    a containment two-cycle, and rule ``s{i}`` declares
    ``C{i} < D{i} < E{i} < C{i}``, a sub-concept three-cycle."""
    lines = ["scene Cycles {", "  entities {", "    H;"]
    for i in range(n):
        lines.extend(f"    {letter}{i:05d};" for letter in "PQCDE")
    lines.extend(["  }", "  rules {"])
    for i in range(n):
        p, q, c, d, e = (f"{letter}{i:05d}" for letter in "PQCDE")
        lines.append(f"    p{i}: H + {q}.{p} -> H.{p}.{q} where {p} in {q};")
        lines.append(f"    q{i}: H + {p}.{q} -> H.{q}.{p} where {q} in {p};")
        lines.append(f"    s{i}: H + {d}.{c} -> H.{c}.{d} "
                     f"where {c} < {d} < {e} < {c};")
    lines.extend(["  }", "}"])
    return "\n".join(lines) + "\n"


def many_chain_source(k: int) -> str:
    """One rule ``O + A000.B000(2) ^ ... -> ...`` with ``k`` chains, each
    carrying an amount: the even chains give the inverted term, the odd
    ones the split form."""
    pairs = [(f"A{i:03d}", f"B{i:03d}") for i in range(k)]
    chains = " ^ ".join(f"{a}.{b}(2)" for a, b in pairs)
    terms = " ^ ".join(f"O.{b}.{a}" if i % 2 == 0 else f"O.{b} ^ {a}.{b}"
                       for i, (a, b) in enumerate(pairs))
    lines = ["scene Chains {", "  entities {", "    O;"]
    lines.extend(f"    {name};" for pair in pairs for name in pair)
    lines.extend(["  }", "  rules {", f"    r: O + {chains} -> {terms};",
                  "  }", "}"])
    return "\n".join(lines) + "\n"


def wake_source(n: int) -> str:
    """``R + C{i}.D{i} -> R.D{i}.C{i}`` for ``i <= n`` makes ``R`` the root;
    ``L{i} + M{i}.N -> L{i}.N.M{i}`` for ``i < n`` shares no concept with it
    and waits, until the last rule ``R + N.Z -> R.Z.N`` places ``N`` and
    wakes every waiting rule."""
    lines = ["scene Wake {", "  entities {", "    R;", "    N;", "    Z;"]
    for i in range(n + 1):
        lines.extend((f"    C{i:05d};", f"    D{i:05d};"))
    for i in range(n):
        lines.extend((f"    L{i:05d};", f"    M{i:05d};"))
    lines.extend(["  }", "  rules {"])
    for i in range(n + 1):
        c, d = f"C{i:05d}", f"D{i:05d}"
        lines.append(f"    r{i}: R + {c}.{d} -> R.{d}.{c};")
    for i in range(n):
        lo, mi = f"L{i:05d}", f"M{i:05d}"
        lines.append(f"    s{i}: {lo} + {mi}.N -> {lo}.N.{mi};")
    lines.extend(["    last: R + N.Z -> R.Z.N;", "  }", "}"])
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
    assert is_acyclic(hierarchy)
    assert reachable_from_root(hierarchy) == set(hierarchy.nodes)
    assert len(hierarchy.nodes) == DEPTH + 2


@pytest.mark.parametrize("n", [2, 8, 40])
def test_fan_clusters_match_oracle(n):
    """Each spoke pair, whose bond is the most exclusive, seeds a cluster
    before any pair with the hub; the hub stays a singleton."""
    scene = parse_scene(fan_source(n)).scene
    assert check_all(scene) == []
    grid, clustering = cluster_scene(scene)
    assert clustering.clusters == oracles.rescan_clusters(grid).clusters
    if n <= 8:  # the linear-scan oracle rebuilds the dense rows per count
        assert clustering.clusters == oracles.primary_clusters(grid).clusters
    assert clustering.clusters[-1] == ("H",)
    assert len(clustering.clusters) == n + 1


def test_deep_chain_cluster_cli(capsys, tmp_path):
    """Every chain concept shares its rule with the hub ``X``; all but the
    first three and the last two attach one at a time to one cluster."""
    path = tmp_path / "deep.cpl"
    path.write_text(deep_chain_source(DEPTH), encoding="utf-8")
    assert main(["cluster", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    clusters = [line for line in lines if line.startswith("cluster: ")]
    links = [line for line in lines if line.startswith("link: ")]
    assert len(clusters) == 4
    assert len(links) == DEPTH + 6
    assert len(lines) == len(clusters) + len(links)
    assert clusters[0] == "cluster: " + ", ".join(
        f"C{i:05d}" for i in range(3, DEPTH - 1))


class _LineWriter(io.StringIO):
    """A stdout that refuses any write of more than one line."""

    def write(self, text: str) -> int:
        assert text.count("\n") <= 1, "more than one line in one write"
        return super().write(text)


def test_deep_chain_grid_cli_writes_one_line_at_a_time(tmp_path, monkeypatch):
    path = tmp_path / "deep.cpl"
    path.write_text(deep_chain_source(DEPTH), encoding="utf-8")
    want = to_csv(build_grid(deep_chain_scene(DEPTH)))
    target = tmp_path / "grid.csv"
    assert main(["grid", str(path), "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == want
    out = _LineWriter()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["grid", str(path)]) == 0
    assert out.getvalue() == want


class _WriteCounter(io.StringIO):
    """A stdout that counts its writes."""

    writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def test_deep_chain_grid_json_cli_writes_one_row_at_a_time(tmp_path, monkeypatch):
    """One write for the keys before the counts, one per count row and one
    for the keys after them."""
    path = tmp_path / "deep.cpl"
    path.write_text(deep_chain_source(DEPTH), encoding="utf-8")
    freq, clustering = cluster_scene(deep_chain_scene(DEPTH))
    out = _WriteCounter()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["grid", str(path), "--format", "json"]) == 0
    assert out.getvalue() == oracles.to_json(freq, clustering)
    assert out.writes == len(freq.concepts) + 2


def test_deep_loop_cycles_cli_writes_one_line_at_a_time(tmp_path, monkeypatch):
    """The report is written as its uni-links are built, a line per write,
    so the CLI never holds them all."""
    source = deep_loop_source(DEPTH)
    path = tmp_path / "loop.cpl"
    path.write_text(source, encoding="utf-8")
    scene = parse_scene(source).scene
    report = extract_cycles(scene, build_forest(scene))
    out = _WriteCounter()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["cycles", str(path)]) == 0
    lines = ["uni-links:"] + [f"  {link.render()}" for link in report.uni_links]
    lines += ["cycles:"] + [f"  {cycle.render()}" for cycle in report.cycles]
    assert out.getvalue() == "\n".join(lines) + "\n"
    assert out.writes > len(report.uni_links)


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


@pytest.mark.parametrize("flags", [[], ["--dot"]])
def test_deep_chain_cycles_cli(capsys, tmp_path, flags):
    """A self-loop on the top of the chain and an association between its
    two lowest links close one walk down the whole chain and back up."""
    names = [f"C{i:05d}" for i in range(DEPTH + 1)]
    source = deep_chain_source(DEPTH).replace(
        "C00000 < C00001 < C00002;", "C00000 < C00001 < C00002, C00000 - C00002;"
    ).replace("  }\n}\n", f"    loop: {names[-1]} -> {names[-1]};\n  }}\n}}\n")
    path = tmp_path / "deep.cpl"
    path.write_text(source, encoding="utf-8")
    assert main(["cycles", str(path), *flags]) == 0
    out = capsys.readouterr().out
    walk = names[::-1] + names[2:]
    if flags == ["--dot"]:
        assert out.count("color=red") == len(walk) - 1
        assert "color=blue" not in out
    else:
        links, cycles = out.split("cycles:\n")
        assert cycles == f"  {' -> '.join(walk)}  [loop, r0]\n"
        assert links.count("\n") == 1 + len(names)


def test_reversed_pairs_place_each_message_at_its_last_rule():
    """Each contradiction is positioned at the last rule it cites, as the
    oracle's rescan of every rule finds it."""
    scene = parse_scene(contradiction_source(40)).scene
    contradictions = scene_contradictions(scene)
    assert [c.kind for c in contradictions] == ["reversed-sub"] * 40
    assert check_scene(scene) == [
        oracles.error(c.message, oracles.contradiction_span(scene, c))
        for c in contradictions]
    g0 = scene.rules[1]
    assert check_scene(scene)[0] == Diagnostic(
        contradictions[0].message, g0.span.line, g0.span.column)


def test_cycles_find_their_rules_as_the_oracle_rescan_does():
    """Each cycle cites its own rules, found in one pass over the edges;
    each message is placed at the last rule it cites."""
    scene = parse_scene(cycle_source(40)).scene
    contradictions = scene_contradictions(scene)
    assert contradictions == oracles.scene_contradictions(scene)
    assert [c.kind for c in contradictions] == (
        ["containment-cycle"] * 40 + ["sub-cycle"] * 40)
    assert contradictions[0].rules == ("p0", "q0")
    assert contradictions[40].rules == ("s0",)
    assert check_scene(scene) == [
        oracles.error(c.message, oracles.contradiction_span(scene, c))
        for c in contradictions]


@pytest.mark.parametrize("k", range(1, 7))
def test_many_chain_rule_matches_oracle(k):
    scene = parse_scene(many_chain_source(k)).scene
    rule = scene.rules[0]
    broken = rule._replace(declared_results=rule.declared_results[1:])
    assert check_all(scene) == oracles.validate_rule(rule) == []
    assert validate_rule(broken) == oracles.validate_rule(broken) != []


def test_forty_chain_rule():
    """Each chain's split form doubles the choices; the check does not
    enumerate them."""
    source = many_chain_source(40)
    assert check_all(parse_scene(source).scene) == []
    swapped = parse_scene(source.replace("O.B038.A038", "O.A038.B038")).scene
    assert [d.message.split(";")[0] for d in check_all(swapped)] == [
        "results of r do not match the derivation"]


def test_woken_rules_match_oracle():
    """The last rule wakes every waiting rule; they are inserted in rule
    order, event by event as the oracle's retry loop inserts them."""
    scene = parse_scene(wake_source(30)).scene
    ensemble = build_ensemble(scene)
    build = build_hierarchy(scene, ensemble)
    oracle = oracles.build_hierarchy(scene, ensemble)
    assert build.hierarchy.root == "R"
    assert build.diagnostics == oracle.diagnostics == ()
    assert build.hierarchy == oracle.hierarchy
    assert build.trace == oracle.trace
