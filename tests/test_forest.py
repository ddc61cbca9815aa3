import random
import re

from hypothesis import given, strategies as st

import oracles
from cpl.ast import Scene
from cpl.forest import (
    build_forest,
    cross_links,
    extract_cycles,
    forest_to_dot,
    forest_to_json,
    nested_notation,
    reverse_pairs,
)
from cpl.parser import parse_scene

from genhelpers import make_reverse_scene, make_scene

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
    assert under_cupboard[0].children == []
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


def test_cross_links_golden(cooking_scene):
    forest = build_forest(cooking_scene)
    got = {(link.concept, link.parents) for link in cross_links(forest)}
    assert got == {
        ("Pot", ("Cupboard", "Kitchen")),
        ("Water", ("Pot", "Tap")),
        ("Heat", ("Hob", "Pot")),
    }


def test_cross_links_empty_without_repeats():
    scene = scene_of(
        "scene S { entities { A; B; C; } rules {"
        " r1: A + B.C -> A.C.B where C < B; } }")
    assert cross_links(build_forest(scene)) == ()


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
    before = {(l.concept, l.parents) for l in cross_links(build_forest(scene))}
    after = {(l.concept, l.parents) for l in cross_links(build_forest(shuffled))}
    assert before == after


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
    loop_owners = {r.outputs[0].name for r in cooking_scene.rules if r.self_loop}
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


def test_json_export_shape(cooking_scene):
    import json

    forest = build_forest(cooking_scene)
    report = extract_cycles(cooking_scene, forest)
    payload = json.loads(forest_to_json(forest, report))
    assert payload["format_version"] == 1
    assert payload["roots"][0]["concept"] == "Kitchen"
    assert {tuple(c["concepts"]) for c in payload["cycles"]} == GOLDEN_CYCLES


@given(st.integers(0, 10**9))
def test_reverse_pairs_match_all_pairs_scan(seed):
    scene = make_reverse_scene(random.Random(seed))
    # Identity, not equality: equal copies of a rule are different rules.
    got = [(id(a), id(b)) for a, b in reverse_pairs(scene)]
    want = [(id(a), id(b)) for a, b in oracles.reverse_pairs(scene)]
    assert got == want
