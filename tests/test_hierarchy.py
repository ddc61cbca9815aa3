import hashlib
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import oracles
from cpl.ast import Diagnostic, Scene
from cpl.grid import build_grid
from cpl.hierarchy import (
    TraceEvent,
    _repeat_rules,
    build_ensemble,
    build_hierarchy,
    hierarchy_to_dot,
    select_root,
)
from cpl.parser import format_scene, parse_scene

from genhelpers import (
    children,
    is_acyclic,
    make_reverse_scene,
    make_scene,
    parents,
    reachable_from_root,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import scenegen  # noqa: E402

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
    assert ensemble.count("Pot", "Heat") == 3
    assert ensemble.count("Heat", "Pot") == 3
    assert ensemble.count("Pot", "Cooker") == 0


def test_pot_is_strongest(cooking_scene):
    ensemble = build_ensemble(cooking_scene)
    assert ensemble.strength("Pot") == 12
    assert all(ensemble.strength(c) <= 12 for c in ensemble.concepts)
    assert select_root(ensemble) == "Pot"


def test_empty_scene_has_empty_ensemble():
    scene = scene_of("scene S { entities { A; } rules { } }")
    ensemble = build_ensemble(scene)
    assert ensemble.concepts == ()
    assert select_root(ensemble) is None


def test_scene_without_rules_builds_an_empty_hierarchy_with_a_diagnostic():
    scene = scene_of("scene S { entities { A; } rules { } }")
    build = build_hierarchy(scene, build_ensemble(scene))
    assert build.diagnostics == (
        Diagnostic("cannot select a root from an empty ensemble", 1, 1),)
    assert build.hierarchy.root is None
    assert build.hierarchy.nodes == build.hierarchy.edges == ()
    assert build.cites == build.ends == build.trace == ()
    assert hierarchy_to_dot(build) == (
        "digraph process_hierarchy {\n  rankdir=BT;\n"
        "  node [shape=ellipse];\n}\n")


def assert_grid_and_ensemble_share_a_root(scene):
    """The ensemble adds only concepts outside every rule's left-hand side,
    such as relation-only ones; they count 0 and never win the root."""
    assert select_root(build_grid(scene)) == select_root(build_ensemble(scene))


def test_grid_and_ensemble_share_a_root_on_bundled_scenes(scenes_dir):
    for path in sorted(scenes_dir.glob("*.cpl")):
        scene = parse_scene(path.read_text(encoding="utf-8")).scene
        if scene is not None and scene.rules:
            assert_grid_and_ensemble_share_a_root(scene)
    # Garden is named only in relations: the ensemble holds it at 0.
    scene = scene_of((scenes_dir / "operators.cpl").read_text(encoding="utf-8"))
    ensemble = build_ensemble(scene)
    assert "Garden" not in build_grid(scene).concepts
    assert "Garden" in ensemble.concepts and ensemble.strength("Garden") == 0
    assert select_root(ensemble) == "Shed"


@given(st.sampled_from([make_scene, make_reverse_scene]),
       st.integers(0, 10**9))
def test_grid_and_ensemble_share_a_root_on_generated_scenes(make, seed):
    assert_grid_and_ensemble_share_a_root(make(random.Random(seed)))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", [(64, 128, 0.10, 0.03), (24, 200, 0.30, 0.05)],
                         ids=["concept-wide", "rule-dense"])
def test_grid_and_ensemble_share_a_root_on_workload_scenes(shape, seed):
    rng = random.Random(seed)
    for _ in range(4):
        assert_grid_and_ensemble_share_a_root(
            scene_of(scenegen.generate(rng, *shape).text))


def test_single_concept_root():
    scene = scene_of("scene S { entities { A; } rules { r1: A -> A; } }")
    assert select_root(build_ensemble(scene)) == "A"


def test_root_tie_breaks_lexicographically():
    scene = scene_of(
        "scene S { entities { B; A; X; } rules { r1: A + B.X -> A.X.B; } }")
    # every pair counts once, so all three strengths tie
    assert select_root(build_ensemble(scene)) == "A"


def test_hierarchy_golden_edges(cooking_scene):
    build = build_hierarchy(cooking_scene, build_ensemble(cooking_scene))
    assert build.diagnostics == ()
    hierarchy = build.hierarchy
    assert hierarchy.root == "Pot"
    assert GOLDEN_EDGES <= set(hierarchy.edges)
    assert set(parents(hierarchy, "Egg")) == {"Water", "Heat"}
    assert sorted(hierarchy.nodes) == sorted(set(hierarchy.nodes))
    assert len(hierarchy.nodes) == 9


def test_hierarchy_acyclic_and_reachable(cooking_scene):
    hierarchy = build_hierarchy(cooking_scene, build_ensemble(cooking_scene)).hierarchy
    assert is_acyclic(hierarchy)
    assert reachable_from_root(hierarchy) == set(hierarchy.nodes)


def test_periphery_concepts_are_leaves(cooking_scene):
    hierarchy = build_hierarchy(cooking_scene, build_ensemble(cooking_scene)).hierarchy
    for leaf in ("Kitchen", "Tap", "Cooker"):
        assert children(hierarchy, leaf) == ()


def test_single_rule_chain_orientation():
    scene = scene_of(
        "scene S { entities { A; B; C; } rules { r1: A + B.C -> A.C.B; } }")
    build = build_hierarchy(scene, build_ensemble(scene))
    assert build.hierarchy.root == "A"
    assert build.hierarchy.edges == (("A", "C"), ("C", "B"))


def test_trace_orders_ensemble_before_edges(cooking_scene):
    build = build_hierarchy(cooking_scene, build_ensemble(cooking_scene))
    seen_pairs = set()
    for event in build.trace:
        if event.kind == "ensemble":
            seen_pairs.add(frozenset(event.subject))
        elif event.kind == "edge":
            assert frozenset(event.subject) in seen_pairs, event
    kinds = {event.kind for event in build.trace}
    assert kinds == {"ensemble", "node", "edge"}


def test_reverse_rule_changes_nothing(cooking_scene):
    with_reverse = build_hierarchy(cooking_scene, build_ensemble(cooking_scene))
    trimmed = Scene(
        cooking_scene.name, cooking_scene.entities, cooking_scene.root,
        tuple(r for r in cooking_scene.rules if r.label != "r7"))
    without = build_hierarchy(trimmed, build_ensemble(trimmed))
    assert with_reverse.hierarchy.edges == without.hierarchy.edges
    assert with_reverse.hierarchy.nodes == without.hierarchy.nodes


def test_deferred_rule_attaches_when_anchor_appears(cooking_scene):
    # the ignition rule precedes any shared concept; its links land later
    build = build_hierarchy(cooking_scene, build_ensemble(cooking_scene))
    edges = list(build.hierarchy.edges)
    assert edges.index(("Heat", "Hob")) < edges.index(("Hob", "Cooker"))
    assert ("Hob", "Cooker") in edges


def test_disconnected_rules_reported():
    scene = scene_of(
        "scene S { entities { A; B; C; X; Y; Z; } rules {"
        " r1: A + B.C -> A.C.B;"
        " r2: X + Y.Z -> X.Z.Y; } }")
    build = build_hierarchy(scene, build_ensemble(scene))
    assert len(build.diagnostics) == 1
    assert "r2" in build.diagnostics[0].message


def test_build_is_deterministic(cooking_scene):
    first = build_hierarchy(cooking_scene, build_ensemble(cooking_scene))
    second = build_hierarchy(cooking_scene, build_ensemble(cooking_scene))
    assert first.hierarchy == second.hierarchy
    assert first.trace == second.trace


def test_build_stores_no_ensemble_event(cooking_scene):
    """The build stores one cite per edge and no event at all."""
    build = build_hierarchy(cooking_scene, build_ensemble(cooking_scene))
    assert len(build.cites) == len(build.hierarchy.edges)
    assert set(build.cites) <= {rule.cite for rule in cooking_scene.rules}
    assert len(build.ends) == len(build.rules) == len(cooking_scene.rules)
    assert build.ends[-1] == len(build.hierarchy.edges)


def test_trace_reads_the_same_twice(cooking_scene):
    """Read twice, the trace replays the same edges with their cites, each
    new node just before the first edge into it."""
    build = build_hierarchy(cooking_scene, build_ensemble(cooking_scene))
    first, second = build.trace, build.trace
    assert first == second
    edges = [e for e in first if e.kind == "edge"]
    assert [e.subject for e in edges] == list(build.hierarchy.edges)
    assert [e.rule for e in edges] == list(build.cites)
    nodes = [e for e in first if e.kind == "node"]
    assert [e.subject[0] for e in nodes] == list(build.hierarchy.nodes[1:])
    for at, event in enumerate(first):
        if event.kind == "node":
            after = first[at + 1]
            assert after.kind == "edge" and after.rule == event.rule
            assert after.subject[1] == event.subject[0]


@given(st.integers(0, 10**9))
def test_generated_hierarchies_stay_sound(seed):
    scene = make_scene(random.Random(seed))
    build = build_hierarchy(scene, build_ensemble(scene))
    hierarchy = build.hierarchy
    assert is_acyclic(hierarchy)
    assert len(set(hierarchy.nodes)) == len(hierarchy.nodes)
    if not build.diagnostics:
        assert reachable_from_root(hierarchy) == set(hierarchy.nodes)
    for event in build.trace:
        if event.kind == "edge":
            assert event.subject in set(hierarchy.edges)


def test_dot_has_root_at_bottom(cooking_scene):
    build = build_hierarchy(cooking_scene, build_ensemble(cooking_scene))
    dot = hierarchy_to_dot(build)
    assert "rankdir=BT" in dot
    assert '"Pot" [shape=doubleoctagon]' in dot


def test_trace_on_cooking_is_pinned(cooking_scene):
    """Replaying the trace from the stored cites changes no event: one
    line per event, its kind, rule, subject and weight."""
    trace = build_hierarchy(cooking_scene, build_ensemble(cooking_scene)).trace
    text = "".join(f"{event.kind} {event.rule} {' '.join(event.subject)} "
                   f"{event.weight}\n" for event in trace)
    assert len(trace) == 38
    assert len(text) == 817
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a91b7674d4d0deab3bc63ff18eb2218c3ac4e57e344e37f70309591ab0d9e113")


@given(st.integers(0, 10**9))
def test_repeat_rules_match_earlier_rule_scan(seed):
    scene = make_reverse_scene(random.Random(seed))
    assert _repeat_rules(scene) == oracles.repeat_rules(scene)


# r4 reverses r1 and r3 reverses r2; giving r4 r2's ordinal leaves the
# scene equal to the parsed one.
CROSSED_PAIRS = (
    "scene S { entities { A; B; C; P; Q; } rules {"
    " r1: A + B.C -> A.C.B; r2: P + Q.C -> P.C.Q;"
    " r3: Q + P.C -> Q.C.P; r4: B + A.C -> B.C.A; } }")


def test_repeat_rules_walk_by_later_position():
    # r4 carries r2's ordinal, so marking repeats by ordinal would skip r2
    # too; by position only r3 and r4 repeat.
    rules = scene_of(CROSSED_PAIRS).rules
    scene = Scene("S", (), None, rules[:3] + (rules[3]._replace(ordinal=2),))
    assert _repeat_rules(scene) == oracles.repeat_rules(scene) == {2, 3}


def test_equal_scenes_build_equal_hierarchies():
    """A rule's ordinal only names it: the scene whose r4 carries r2's
    ordinal equals the parsed one and builds its hierarchy, P and Q
    included, as its format-parse round trip does."""
    parsed = scene_of(CROSSED_PAIRS)
    rules = parsed.rules
    scene = parsed._replace(rules=rules[:3] + (rules[3]._replace(ordinal=2),))
    assert scene == parsed
    round_trip = scene_of(format_scene(scene))
    build = build_hierarchy(scene, build_ensemble(scene))
    want = build_hierarchy(round_trip, build_ensemble(round_trip))
    assert build.hierarchy == want.hierarchy
    assert set(build.hierarchy.nodes) == {"A", "B", "C", "P", "Q"}
    assert build.diagnostics == want.diagnostics == ()


@given(st.integers(0, 10**9))
def test_hierarchy_ignores_rule_ordinals(seed):
    # Only the hierarchy: an unlabeled rule's cite is its ordinal.
    scene = make_reverse_scene(random.Random(seed))
    zeroed = scene._replace(
        rules=tuple(rule._replace(ordinal=0) for rule in scene.rules))
    assert (build_hierarchy(zeroed, build_ensemble(zeroed)).hierarchy
            == build_hierarchy(scene, build_ensemble(scene)).hierarchy)


def assert_same_build(build, oracle):
    """The oracle logs the trace as it builds; the build recounts it."""
    assert build.hierarchy == oracle.hierarchy
    assert build.diagnostics == oracle.diagnostics
    trace = build.trace
    assert len(trace) == len(oracle.trace)
    for at, (event, want) in enumerate(zip(trace, oracle.trace)):
        assert event == want, at


def assert_build_matches_oracle(scene):
    ensemble = build_ensemble(scene)
    if ensemble.concepts:
        assert_same_build(build_hierarchy(scene, ensemble),
                          oracles.build_hierarchy(scene, ensemble))


def test_build_matches_oracle_on_bundled_scenes(scenes_dir):
    for path in sorted(scenes_dir.glob("*.cpl")):
        scene = parse_scene(path.read_text(encoding="utf-8")).scene
        if scene is not None:
            assert_build_matches_oracle(scene)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", [(64, 128, 0.10, 0.03), (24, 200, 0.30, 0.05)],
                         ids=["concept-wide", "rule-dense"])
def test_build_matches_oracle_on_workload_scenes(shape, seed):
    rng = random.Random(seed)
    for _ in range(4):
        assert_build_matches_oracle(
            scene_of(scenegen.generate(rng, *shape).text))


@given(st.sampled_from([make_scene, make_reverse_scene]),
       st.integers(0, 10**9))
def test_build_matches_oracle_on_generated_scenes(make, seed):
    assert_build_matches_oracle(make(random.Random(seed)))


def test_cycle_guard_refuses_link_between_known_nodes():
    # r2's path A, B, C arrives after r1 linked C above B: the link A -> B
    # joins two known nodes, B -> C would close B -> C -> B.
    scene = scene_of(
        "scene S { entities { A; B; C; } rules {"
        " r1: A + B.C -> A.C.B; r2: A + C.B -> A.B.C; } }")
    build = build_hierarchy(scene, build_ensemble(scene))
    assert build.hierarchy.edges == (("A", "C"), ("C", "B"), ("A", "B"))
    assert_same_build(build,
                      oracles.build_hierarchy(scene, build_ensemble(scene)))


def test_pending_path_anchored_by_later_pending_path():
    # r2 and r3 wait; r4 anchors r3 only, and r3's insertion anchors r2 in
    # the next round of the same retry.
    scene = scene_of(
        "scene S { entities { A; B; C; Q; V; W; X; Y; Z; } rules {"
        " r1: A + B.C -> A.C.B; r2: X + Y.Z -> X.Z.Y;"
        " r3: Y + W.V -> Y.V.W; r4: B + W.Q -> B.Q.W; } }")
    build = build_hierarchy(scene, build_ensemble(scene))
    assert build.diagnostics == ()
    assert build.hierarchy.root == "B"
    cites = [event.rule for event in build.trace if event.kind != "ensemble"]
    assert cites == ["r1"] * 4 + ["r4"] * 4 + ["r3"] * 4 + ["r2"] * 4
    assert_same_build(build,
                      oracles.build_hierarchy(scene, build_ensemble(scene)))


def test_equal_pending_paths_keep_their_own_place():
    # rule 2 and rule 4 are equal copies whose path waits for E.  When r5
    # anchors r3, rule 2's turn passes before r3 places E, so rule 4's copy
    # places D and K, and rule 2's copy adds C in the next round.  The
    # oracle's list.remove drops the first equal entry instead, so rule 4's
    # copy stays pending and is inserted twice.  r6 to r8 only make A the
    # strongest concept.
    scene = scene_of(
        "scene S { entities { R; A; B; C; D; E; F; G; H; K; } rules {"
        " r1: R + A.B -> R.B.A; C + K.E.D -> C.D.E.K;"
        " r3: E + F.G -> E.G.F; C + K.E.D -> C.D.E.K;"
        " r5: A + F.H -> A.H.F; r6: R + A.B -> R.B.A;"
        " r7: R + A.B -> R.B.A; r8: R + A.B -> R.B.A; } }")
    ensemble = build_ensemble(scene)
    build = build_hierarchy(scene, ensemble)
    oracle = oracles.build_hierarchy(scene, ensemble)
    assert build.hierarchy == oracle.hierarchy
    assert build.hierarchy.root == "A"
    steps = [event for event in build.trace if event.kind != "ensemble"]
    oracle_steps = [event for event in oracle.trace
                    if event.kind != "ensemble"]
    assert steps[-2:] == [TraceEvent("node", "rule 2", ("C",)),
                          TraceEvent("edge", "rule 2", ("D", "C"))]
    assert oracle_steps[-2:] == [TraceEvent("node", "rule 4", ("C",)),
                                 TraceEvent("edge", "rule 4", ("D", "C"))]
    assert steps[:-2] == oracle_steps[:-2]


def test_cycle_guard_refuses_self_link():
    # r2's output is its effector, so its path, rooted at B, is B, C, C:
    # the link C -> C would be a cycle of its own.
    scene = scene_of(
        "scene S { entities { A; B; C; } rules {"
        " r1: A + B.C -> A.C.B; r2: C + B.C -> C.C.B; } }")
    build = build_hierarchy(scene, build_ensemble(scene))
    assert build.hierarchy.root == "B"
    assert build.hierarchy.edges == (("B", "C"), ("C", "A"))
    assert_same_build(build,
                      oracles.build_hierarchy(scene, build_ensemble(scene)))


def test_pending_paths_woken_behind_and_ahead_of_the_pass():
    # r2, r3, r4 and r6 wait, in that order.  r5 places Q, which wakes r4.
    # Inserting r4 places U, waking r6 after it in the same pass, and W,
    # waking r3 before it, which waits for the next pass; r3 then places Y
    # for r2 in a third pass.
    scene = scene_of(
        "scene S { entities { B; C; D; Q; R; S; T; U; V; W; X; Y; Z; }"
        " rules {"
        " r1: B + C.D -> B.D.C; r2: X + Y.Z -> X.Z.Y;"
        " r3: Y + W.V -> Y.V.W; r4: W + Q.U -> W.U.Q;"
        " r6: U + T.R -> U.R.T; r5: B + Q.S -> B.S.Q; } }")
    ensemble = build_ensemble(scene)
    build = build_hierarchy(scene, ensemble)
    assert build.diagnostics == ()
    assert build.hierarchy.root == "B"
    cites = [event.rule for event in build.trace if event.kind != "ensemble"]
    assert list(dict.fromkeys(cites)) == ["r1", "r5", "r4", "r6", "r3", "r2"]
    assert_same_build(build, oracles.build_hierarchy(scene, ensemble))
