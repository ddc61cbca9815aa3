import random
import re
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

import oracles
from cpl.ast import Scene
from cpl.check import check_all
from cpl.forest import (
    _rotation_key,
    build_forest,
    extract_cycles,
    forest_to_dot,
    nested_notation,
)
from cpl.parser import format_scene, parse_scene

from genhelpers import make_reverse_scene, make_scene
from test_depth import (deep_chain_scene, deep_loop_source, fan_source,
                        looped_chain_source, mixed_source)

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(REPO_ROOT / "perfbench"))
import scenegen  # noqa: E402

GOLDEN_NOTATION = ("Kitchen(Cupboard(Pot), Cooker(Hob(Heat)), "
                  "Pot(Water, Egg, Heat), Tap(Water))")


def scene_of(text):
    result = parse_scene(text)
    assert result.scene is not None, [str(d) for d in result.diagnostics]
    return result.scene


def parse_notation(text):
    """Nested notation into (name, multiset-of-children) trees so two
    notations can be compared regardless of sibling order."""
    tokens = re.findall(r"[A-Za-z_][A-Za-z0-9_]*|[(),]", text)
    pos = [0]

    def node():
        name = tokens[pos[0]]
        pos[0] += 1
        children = []
        if pos[0] < len(tokens) and tokens[pos[0]] == "(":
            pos[0] += 1
            children.append(node())
            while tokens[pos[0]] == ",":
                pos[0] += 1
                children.append(node())
            assert tokens[pos[0]] == ")"
            pos[0] += 1
        return canon(name, children)

    def canon(name, children):
        return (name, tuple(sorted(children)))

    roots = [node()]
    while pos[0] < len(tokens) and tokens[pos[0]] == ",":
        pos[0] += 1
        roots.append(node())
    return tuple(sorted(roots))


def test_forest_matches_nested_object_set(cooking_scene):
    forest = build_forest(cooking_scene)
    mine = nested_notation(forest)
    assert parse_notation(mine) == parse_notation(GOLDEN_NOTATION)


def test_sorted_notation_golden(cooking_scene):
    forest = build_forest(cooking_scene)
    assert nested_notation(forest, sort_children=True) == (
        "Kitchen(Cooker(Hob(Heat)), Cupboard(Pot), "
        "Pot(Egg, Heat, Water), Tap(Water))")


def test_contained_occurrence_is_a_leaf(cooking_scene):
    forest = build_forest(cooking_scene)
    under_cupboard = [occ for occ in forest.occurrences["Pot"]
                      if occ.parent and occ.parent.concept == "Cupboard"]
    assert len(under_cupboard) == 1
    assert not under_cupboard[0].children
    assert forest.primary["Pot"] is not under_cupboard[0]
    assert under_cupboard[0].contained


def test_single_rule_output_attachment():
    scene = scene_of(
        "scene S { entities { A; B; C; } rules {"
        " r1: A + B.C -> A.C.B where C < B; } }")
    forest = build_forest(scene)
    assert nested_notation(forest) == "B(C, A)"


def test_association_blocks_output_attachment():
    scene = scene_of(
        "scene S { entities { A; B; C; } rules {"
        " r1: A + B.C -> A.C.B where C < B, A - B; } }")
    forest = build_forest(scene)
    assert parse_notation(nested_notation(forest)) == parse_notation("B(C), A")


def test_empty_rules_leave_isolated_roots():
    scene = scene_of("scene S { entities { A; B; C; } rules { } }")
    forest = build_forest(scene)
    assert nested_notation(forest) == "A, B, C"


def test_childless_root_renders_bare_name():
    scene = scene_of("scene S { entities { Kitchen; } rules { } }")
    assert nested_notation(build_forest(scene)) == "Kitchen"


def test_children_follow_rule_order():
    scene = scene_of(
        "scene S { entities { R; A; B; X; } root R; rules {"
        " r1: X + R.A -> X.A.R where A < R;"
        " r2: X + R.B -> X.B.R where B < R; } }")
    forest = build_forest(scene)
    root = forest.roots[0]
    assert [occ.concept for occ in root.children][:2] == ["A", "B"]


def cross_links(forest):
    """Each concept with the sorted parents of every two of its
    occurrences, a root's missing parent first."""
    links = set()
    for concept, occs in forest.occurrences.items():
        for a, b in combinations(occs, 2):
            links.add((concept, tuple(sorted(
                (occ.parent.concept if occ.parent else None for occ in (a, b)),
                key=lambda parent: (parent is not None, parent)))))
    return links


def test_cross_links_golden(cooking_scene):
    forest = build_forest(cooking_scene)
    got = cross_links(forest)
    assert got == {
        ("Pot", ("Cupboard", "Kitchen")),
        ("Water", ("Pot", "Tap")),
        ("Heat", ("Hob", "Pot")),
    }


def test_cross_links_empty_without_repeats():
    scene = scene_of(
        "scene S { entities { A; B; C; } rules {"
        " r1: A + B.C -> A.C.B where C < B; } }")
    assert cross_links(build_forest(scene)) == set()


@given(st.integers(0, 10**9))
def test_forest_invariants(seed):
    rng = random.Random(seed)
    scene = make_scene(rng)
    forest = build_forest(scene)
    declared = {c.name for c in scene.entities}
    for occs in forest.occurrences.values():
        for occ in occs:
            assert occ.concept in declared
            # walking up always terminates at a root
            seen = set()
            node = occ
            while node.parent is not None:
                assert id(node) not in seen
                seen.add(id(node))
                node = node.parent
            assert node in forest.roots


@given(st.integers(0, 10**9))
def test_cross_links_invariant_under_rule_order(seed):
    rng = random.Random(seed)
    scene = make_scene(rng)
    rules = list(scene.rules)
    rng.shuffle(rules)
    shuffled = Scene(scene.name, scene.entities, scene.root, tuple(rules))
    assert cross_links(build_forest(scene)) == \
        cross_links(build_forest(shuffled))


@given(st.sampled_from([make_scene, make_reverse_scene]),
       st.integers(0, 10**9))
def test_cycle_set_invariant_under_rule_order(make, seed):
    """Each cycle up to rotation, with its kind; the printed rotation and
    the cited rules follow the first rule pair in scene order."""
    rng = random.Random(seed)
    scene = make(rng)
    assume(not check_all(scene))
    rules = list(scene.rules)
    rng.shuffle(rules)
    shuffled = Scene(scene.name, scene.entities, scene.root, tuple(rules))

    def cycle_set(of: Scene) -> set[tuple[tuple[str, ...], str]]:
        report = extract_cycles(of, build_forest(of))
        return {(_rotation_key(c.concepts), c.kind) for c in report.cycles}

    assert cycle_set(scene) == cycle_set(shuffled)


GOLDEN_UNI_LINKS = {
    (("Kitchen", "Cupboard", "Pot"), ("Pot",)),
    (("Kitchen", "Cooker", "Hob"), ("Hob",)),
    (("Pot", "Water"), ("Water", "Tap")),
}

GOLDEN_CYCLES = {
    ("Pot", "Egg", "Water"),
    ("Pot", "Heat"),
    ("Pot", "Egg", "Heat"),
    ("Hob", "Heat"),
}


def test_uni_links_contain_golden(cooking_scene):
    forest = build_forest(cooking_scene)
    report = extract_cycles(cooking_scene, forest)
    got = {(link.source_path, link.target_path) for link in report.uni_links}
    assert GOLDEN_UNI_LINKS <= got


def test_cycles_exactly_golden(cooking_scene):
    forest = build_forest(cooking_scene)
    report = extract_cycles(cooking_scene, forest)
    assert {cycle.concepts for cycle in report.cycles} == GOLDEN_CYCLES


def test_reverse_pair_cycles_cite_both_rules(cooking_scene):
    forest = build_forest(cooking_scene)
    report = extract_cycles(cooking_scene, forest)
    by_concepts = {cycle.concepts: cycle for cycle in report.cycles}
    assert by_concepts[("Pot", "Heat")].rules == ("r5", "r7")
    assert by_concepts[("Hob", "Heat")].rules == ("r5", "r7")
    assert by_concepts[("Pot", "Egg", "Water")].rules == ("r4", "r8")
    assert by_concepts[("Pot", "Egg", "Heat")].rules == ("r6", "r8")


def test_pot_water_walk_not_reported_as_cycle(cooking_scene):
    # rules 2 and 4 close Pot -> Water -> Pot, but nothing marks it repeatable
    forest = build_forest(cooking_scene)
    report = extract_cycles(cooking_scene, forest)
    assert ("Pot", "Water") not in {c.concepts for c in report.cycles}
    assert ("Water", "Pot") not in {c.concepts for c in report.cycles}


def test_no_cycles_without_enablers():
    scene = scene_of(
        "scene S { entities { A; B; C; D; } rules {"
        " r1: A + B.C -> A.C.B where C < B;"
        " r2: D + B.C -> D.C.B; } }")
    report = extract_cycles(scene, build_forest(scene))
    assert report.cycles == ()


def test_every_cycle_has_an_enabler(cooking_scene):
    forest = build_forest(cooking_scene)
    report = extract_cycles(cooking_scene, forest)
    loop_owners = {r.outputs[0] for r in cooking_scene.rules if not r.inputs}
    pair_members = {"Pot", "Hob"}  # outputs of the r5/r7 pair
    for cycle in report.cycles:
        members = set(cycle.concepts)
        assert members & (loop_owners | pair_members)


def test_dot_export_deterministic(cooking_scene):
    forest = build_forest(cooking_scene)
    first = forest_to_dot(forest)
    second = forest_to_dot(build_forest(cooking_scene))
    assert first == second
    assert "style=dashed" in first
    assert "subgraph cluster_0" in first


def dashed_links(forest):
    """Per concept, the (label, parent label) of the node each dashed line
    starts at, and those of the nodes it ends at, read off the DOT text."""
    dot = forest_to_dot(forest)
    label = dict(re.findall(r'^    (n\d+) \[label="(\w+)"\];$', dot, re.M))
    parent = {child: label[node] for node, child in
              re.findall(r"^    (n\d+) -> (n\d+)", dot, re.M)}
    links = {}
    for a, b in re.findall(
            r"^  (n\d+) -> (n\d+) \[style=dashed, dir=none\];$", dot, re.M):
        assert label[a] == label[b]
        starts, ends = links.setdefault(label[a], (set(), []))
        starts.add((label[a], parent.get(a)))
        ends.append((label[b], parent.get(b)))
    return links


@pytest.mark.parametrize("source", [
    fan_source(3),
    (REPO_ROOT / "scenes" / "cooking.cpl").read_text(encoding="utf-8"),
    scenegen.generate(random.Random(0), 64, 128, 0.10, 0.03).text,
], ids=["fan-3", "cooking", "concept-wide"])
def test_dot_joins_each_repeat_to_its_first_occurrence(source):
    """One dashed line per later occurrence of a repeated concept, each
    from the concept's first occurrence: a star, not a line per pair.  On
    the fan of three the hub's three occurrences give two lines, not
    three."""
    forest = build_forest(scene_of(source))
    links = dashed_links(forest)
    assert set(links) == set(forest.multi_occurrence_concepts())
    for concept, (starts, ends) in links.items():
        first, *later = [(concept, occ.parent and occ.parent.concept)
                         for occ in forest.occurrences[concept]]
        assert starts == {first}
        assert ends == later


def forest_facts(forest):
    """Everything a forest shows: both notations, the DOT text, the roots,
    and per concept, in order, each occurrence's parent, origin,
    containment flag, children and whether it is the primary one."""
    return (
        nested_notation(forest),
        nested_notation(forest, sort_children=True),
        forest_to_dot(forest),
        [root.concept for root in forest.roots],
        sorted(forest.primary),
        [(name, [(occ.parent.concept if occ.parent else None, occ.origin,
                  occ.contained, [child.concept for child in occ.children],
                  forest.primary.get(name) is occ)
                 for occ in occs])
         for name, occs in forest.occurrences.items()],
    )


def assert_forest_matches_oracle(scene):
    assert forest_facts(build_forest(scene)) == \
        forest_facts(oracles.build_forest(scene))


def test_forest_matches_oracle_on_bundled_scenes(scenes_dir):
    compared = 0
    for path in sorted(scenes_dir.glob("*.cpl")):
        scene = parse_scene(path.read_text(encoding="utf-8")).scene
        if scene is not None and not check_all(scene):
            assert_forest_matches_oracle(scene)
            compared += 1
    assert compared >= 3


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", [(64, 128, 0.10, 0.03), (24, 200, 0.30, 0.05)],
                         ids=["concept-wide", "rule-dense"])
def test_forest_matches_oracle_on_workload_scenes(shape, seed):
    rng = random.Random(seed)
    for _ in range(4):
        assert_forest_matches_oracle(
            scene_of(scenegen.generate(rng, *shape).text))


@given(st.sampled_from([make_scene, make_reverse_scene]),
       st.integers(0, 10**9))
def test_forest_matches_oracle_on_generated_scenes(make, seed):
    assert_forest_matches_oracle(make(random.Random(seed)))


def test_forest_matches_oracle_on_deep_chain():
    assert_forest_matches_oracle(deep_chain_scene(300))


def assert_cycles_match_oracle(scene):
    forest = build_forest(scene)
    assert extract_cycles(scene, forest) == \
        oracles.extract_cycles(scene, forest)


@given(st.sampled_from([make_scene, make_reverse_scene]),
       st.integers(0, 10**9))
def test_cycles_match_oracle_on_generated_scenes(make, seed):
    assert_cycles_match_oracle(make(random.Random(seed)))


@given(st.sampled_from([(64, 128, 0.10, 0.03), (24, 200, 0.30, 0.05),
                        (16, 60, 0.20, 0.20)]),
       st.integers(0, 10**9))
def test_cycles_match_oracle_on_workload_scenes(shape, seed):
    """Workload-shaped scenes, self-loops and associations included."""
    assert_cycles_match_oracle(
        scene_of(scenegen.generate(random.Random(seed), *shape).text))


@pytest.mark.parametrize("source", [
    mixed_source(1), mixed_source(40), looped_chain_source(300),
    looped_chain_source(60).replace(
        "C00000 < C00001 < C00002;",
        "C00000 < C00001 < C00002, C00000 - C00002;"),
], ids=["mixed-1", "mixed-40", "looped-chain", "looped-chain-association"])
def test_promoted_and_looped_scenes_match_oracles(source):
    """Pairs no edge enters, each promoted to a root, and a chain with a
    self-loop on every concept, with no association or one at its bottom."""
    scene = scene_of(source)
    assert_forest_matches_oracle(scene)
    assert_cycles_match_oracle(scene)


def test_rule_dense_scene_holds_each_repeated_value_once():
    """A concept's single output, the amounts of a term that writes none,
    the children of a non-primary occurrence and a concept's role in its
    uni-links are one object each, and the scene still round-trips."""
    scene = scene_of(scenegen.generate(random.Random(1), 24, 200, 0.30, 0.05).text)
    assert parse_scene(format_scene(scene)).scene == scene

    def shared(values):
        """The values fall into fewer groups of equals than there are
        values, and each group is one object."""
        first = {}
        for value in values:
            assert first.setdefault(value, value) is value
        return len(first) < len(values)

    rules = scene.rules
    assert shared([rule.outputs for rule in rules if len(rule.outputs) == 1])
    assert shared([term.qtys for rule in rules for term in rule.declared_results
                   if not any(term.qtys)])
    forest = build_forest(scene)
    assert shared([occ.children for occs in forest.occurrences.values()
                   for occ in occs if forest.primary[occ.concept] is not occ])
    report = extract_cycles(scene, forest)
    assert shared([link.target_path for link in report.uni_links
                   if link.target_path == link.source_path[-1:]])


def test_cycles_match_oracle_on_deep_loop():
    scene = scene_of(deep_loop_source(300))
    report = extract_cycles(scene, build_forest(scene))
    assert [cycle.kind for cycle in report.cycles] == ["self-loop"]
    assert_cycles_match_oracle(scene)


def test_loop_cycle_cites_first_loop_and_association_in_scene_order():
    # Two self-loops on L, and two rules that both associate A with B.  A
    # comes first below L, but r2, which names B first, comes first in
    # the scene, as l1 does before l2.
    scene = scene_of(
        "scene S { entities { L; P; Q; A; B; O; } rules {"
        " r1: O + P.A -> O.A.P where P < L, Q < L, A < P, B < Q;"
        " l1: L -> L; r2: O + Q.B -> O.B.Q where B - A;"
        " r3: O + P.A -> O.A.P where A - B; l2: L -> L; } }")
    report = extract_cycles(scene, build_forest(scene))
    assert [cycle.render() for cycle in report.cycles] == [
        "L -> P -> A -> B -> Q -> L  [l1, r2]"]
    assert_cycles_match_oracle(scene)
