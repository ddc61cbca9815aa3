import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

import oracles
from cpl.ast import Scene
from cpl.hierarchy import (
    _repeat_rules,
    build_ensemble,
    build_hierarchy,
    hierarchy_to_dot,
    hierarchy_to_json,
    select_root,
)
from cpl.parser import parse_scene

from genhelpers import make_reverse_scene, make_scene

GOLDEN_EDGES = {
    ("Pot", "Water"),
    ("Pot", "Heat"),
    ("Water", "Egg"),
    ("Heat", "Egg"),
    ("Pot", "Cupboard"),
    ("Cupboard", "Kitchen"),
    ("Water", "Tap"),
    ("Heat", "Hob"),
    ("Hob", "Cooker"),
}


def scene_of(text):
    result = parse_scene(text)
    assert result.scene is not None, [str(d) for d in result.diagnostics]
    return result.scene


def test_ensemble_nodes_and_weights(cooking_scene):
    ensemble = build_ensemble(cooking_scene)
    assert len(ensemble.concepts) == 9
    assert ensemble.weight("Pot", "Heat") == 3
    assert ensemble.weight("Heat", "Pot") == 3
    assert ensemble.weight("Pot", "Cooker") == 0


def test_pot_is_strongest(cooking_scene):
    ensemble = build_ensemble(cooking_scene)
    assert ensemble.strength("Pot") == 12
    assert all(ensemble.strength(c) <= 12 for c in ensemble.concepts)
    assert select_root(ensemble) == "Pot"


def test_empty_scene_has_empty_ensemble():
    scene = scene_of("scene S { entities { A; } rules { } }")
    ensemble = build_ensemble(scene)
    assert ensemble.concepts == ()
    with pytest.raises(ValueError):
        select_root(ensemble)


def test_single_concept_root():
    scene = scene_of("scene S { entities { A; } rules { r1: A -> A; } }")
    assert select_root(build_ensemble(scene)) == "A"


def test_root_tie_breaks_lexicographically():
    scene = scene_of(
        "scene S { entities { B; A; X; } rules { r1: A + B.X -> A.X.B; } }")
    # every pair counts once, so all three strengths tie
    assert select_root(build_ensemble(scene)) == "A"


def test_hierarchy_golden_edges(cooking_scene):
    build = build_hierarchy(cooking_scene)
    assert build.diagnostics == ()
    hierarchy = build.hierarchy
    assert hierarchy.root == "Pot"
    assert GOLDEN_EDGES <= set(hierarchy.edges)
    assert set(hierarchy.parents("Egg")) == {"Water", "Heat"}
    assert sorted(hierarchy.nodes) == sorted(set(hierarchy.nodes))
    assert len(hierarchy.nodes) == 9


def test_hierarchy_acyclic_and_reachable(cooking_scene):
    hierarchy = build_hierarchy(cooking_scene).hierarchy
    assert hierarchy.is_acyclic()
    assert hierarchy.reachable_from_root() == set(hierarchy.nodes)


def test_periphery_concepts_are_leaves(cooking_scene):
    hierarchy = build_hierarchy(cooking_scene).hierarchy
    for leaf in ("Kitchen", "Tap", "Cooker"):
        assert hierarchy.children(leaf) == ()


def test_single_rule_chain_orientation():
    scene = scene_of(
        "scene S { entities { A; B; C; } rules { r1: A + B.C -> A.C.B; } }")
    build = build_hierarchy(scene)
    assert build.hierarchy.root == "A"
    assert build.hierarchy.edges == (("A", "C"), ("C", "B"))


def test_trace_orders_ensemble_before_edges(cooking_scene):
    build = build_hierarchy(cooking_scene)
    seen_pairs = set()
    for event in build.trace:
        if event.kind == "ensemble":
            seen_pairs.add(frozenset(event.subject))
        elif event.kind == "edge":
            assert frozenset(event.subject) in seen_pairs, event
    kinds = {event.kind for event in build.trace}
    assert kinds == {"ensemble", "node", "edge"}


def test_reverse_rule_changes_nothing(cooking_scene):
    with_reverse = build_hierarchy(cooking_scene)
    trimmed = Scene(
        cooking_scene.name, cooking_scene.entities, cooking_scene.root,
        tuple(r for r in cooking_scene.rules if r.label != "r7"))
    without = build_hierarchy(trimmed)
    assert with_reverse.hierarchy.edges == without.hierarchy.edges
    assert with_reverse.hierarchy.nodes == without.hierarchy.nodes


def test_deferred_rule_attaches_when_anchor_appears(cooking_scene):
    # the ignition rule precedes any shared concept; its links land later
    build = build_hierarchy(cooking_scene)
    edges = list(build.hierarchy.edges)
    assert edges.index(("Heat", "Hob")) < edges.index(("Hob", "Cooker"))
    assert ("Hob", "Cooker") in edges


def test_disconnected_rules_reported():
    scene = scene_of(
        "scene S { entities { A; B; C; X; Y; Z; } rules {"
        " r1: A + B.C -> A.C.B;"
        " r2: X + Y.Z -> X.Z.Y; } }")
    build = build_hierarchy(scene)
    assert len(build.diagnostics) == 1
    assert "r2" in build.diagnostics[0].message


def test_build_is_deterministic(cooking_scene):
    first = build_hierarchy(cooking_scene)
    second = build_hierarchy(cooking_scene)
    assert first.hierarchy == second.hierarchy
    assert first.trace == second.trace


@given(st.integers(0, 10**9))
def test_generated_hierarchies_stay_sound(seed):
    scene = make_scene(random.Random(seed))
    ensemble = build_ensemble(scene)
    if not ensemble.concepts:
        return
    build = build_hierarchy(scene, ensemble)
    hierarchy = build.hierarchy
    assert hierarchy.is_acyclic()
    assert len(set(hierarchy.nodes)) == len(hierarchy.nodes)
    if not build.diagnostics:
        assert hierarchy.reachable_from_root() == set(hierarchy.nodes)
    for event in build.trace:
        if event.kind == "edge":
            assert event.subject in set(hierarchy.edges)


def test_dot_has_root_at_bottom(cooking_scene):
    build = build_hierarchy(cooking_scene)
    dot = hierarchy_to_dot(build)
    assert "rankdir=BT" in dot
    assert '"Pot" [shape=doubleoctagon]' in dot


def test_json_round_trips_trace(cooking_scene):
    ensemble = build_ensemble(cooking_scene)
    build = build_hierarchy(cooking_scene, ensemble)
    payload = json.loads(hierarchy_to_json(build, ensemble))
    assert payload["format_version"] == 1
    assert payload["root"] == "Pot"
    assert ["Pot", "Water"] in payload["edges"]
    assert payload["strengths"]["Pot"] == 12
    assert len(payload["trace"]) == len(build.trace)


@given(st.integers(0, 10**9))
def test_repeat_rules_match_earlier_rule_scan(seed):
    scene = make_reverse_scene(random.Random(seed))
    assert _repeat_rules(scene) == oracles.repeat_rules(scene)


def test_repeat_rules_walk_by_later_position():
    # r4 shares r2's ordinal, and reverses r1 only after r3 reverses r2, so
    # taking the pairs in earlier-rule order would skip r3.
    rules = scene_of(
        "scene S { entities { A; B; C; P; Q; } rules {"
        " r1: A + B.C -> A.C.B; r2: P + Q.C -> P.C.Q;"
        " r3: Q + P.C -> Q.C.P; r4: B + A.C -> B.C.A; } }").rules
    scene = Scene("S", (), None, rules[:3] + (replace(rules[3], ordinal=2),))
    assert _repeat_rules(scene) == oracles.repeat_rules(scene) == {2, 3}
