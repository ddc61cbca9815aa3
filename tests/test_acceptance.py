"""End-to-end acceptance checks: exact reproduction of the bundled cooking
scene's derived artifacts plus the randomized property suites.

One pass/fail line per criterion is printed in the terminal summary (see
conftest).  All expectations are exact; there are no tolerances to tune.
"""

import random

from cpl.check import validate_rule
from cpl.cli import main
from cpl.forest import build_forest, extract_cycles, nested_notation
from cpl.grid import build_grid, cluster_scene, to_csv
from cpl.hierarchy import build_ensemble, build_hierarchy, select_root
from cpl.memory import MemoryStore, cross_reference, predict
from cpl.parser import format_scene, parse_scene

from genhelpers import (
    corrupt_results,
    is_acyclic,
    make_entities,
    make_rule,
    make_scene,
    make_store_entries,
    pair_counts,
    parents,
    predict_oracle,
    reachable_from_root,
    vote_oracle,
)

GOLDEN_CSV = """\
,Pot,Kitchen,Cupboard,Tap,Water,Heat,Cooker,Hob,Egg
Pot,,1,1,1,2,3,0,2,2
Kitchen,1,,1,0,0,0,0,0,0
Cupboard,1,1,,0,0,0,0,0,0
Tap,1,0,0,,1,0,0,0,0
Water,2,0,0,1,,0,0,0,1
Heat,3,0,0,0,0,,1,3,1
Cooker,0,0,0,0,0,1,,1,0
Hob,2,0,0,0,0,3,1,,0
Egg,2,0,0,0,1,1,0,0,
"""


def test_c01_golden_grid(cooking_scene, cooking_path, capsys):
    """Grid cells, total mass and the CSV mirror reproduce the worked scene."""
    grid = build_grid(cooking_scene)
    assert grid.count("Pot", "Heat") == 3
    assert grid.count("Heat", "Hob") == 3
    assert grid.count("Pot", "Water") == 2
    assert grid.total() == 42
    assert len(pair_counts(grid)) == 14  # 28 mirrored nonzero cells
    assert to_csv(grid) == GOLDEN_CSV
    assert main(["grid", str(cooking_path)]) == 0
    assert capsys.readouterr().out == GOLDEN_CSV


def test_c02_golden_clustering(cooking_scene):
    """Primary clusters match exactly; the listed secondary links appear."""
    _, clustering = cluster_scene(cooking_scene)
    assert {frozenset(c) for c in clustering.clusters} == {
        frozenset({"Pot", "Water", "Egg"}),
        frozenset({"Heat", "Hob"}),
        frozenset({"Kitchen", "Cupboard"}),
        frozenset({"Tap"}),
        frozenset({"Cooker"}),
    }
    links = {(a, b) for a, b, _ in clustering.secondary_links}
    for pair in (("Cooker", "Hob"), ("Cooker", "Heat"), ("Cupboard", "Pot"),
                 ("Tap", "Water"), ("Hob", "Pot")):
        assert tuple(sorted(pair)) in links


def test_c03_golden_nested_set(cooking_scene):
    """The nested object set matches up to child ordering."""
    forest = build_forest(cooking_scene)
    assert nested_notation(forest, sort_children=True) == (
        "Kitchen(Cooker(Hob(Heat)), Cupboard(Pot), "
        "Pot(Egg, Heat, Water), Tap(Water))")


def test_c04_cycle_report_containment(cooking_scene):
    """The three uni-directional links and four cycles all appear."""
    forest = build_forest(cooking_scene)
    report = extract_cycles(cooking_scene, forest)
    uni = {(link.source_path, link.target_path) for link in report.uni_links}
    assert (("Kitchen", "Cupboard", "Pot"), ("Pot",)) in uni
    assert (("Kitchen", "Cooker", "Hob"), ("Hob",)) in uni
    assert (("Pot", "Water"), ("Water", "Tap")) in uni
    cycles = {cycle.concepts for cycle in report.cycles}
    for walk in (("Pot", "Heat"), ("Hob", "Heat"),
                 ("Pot", "Egg", "Water"), ("Pot", "Egg", "Heat")):
        assert walk in cycles


def test_c05_hierarchy(cooking_scene):
    """Root, required edges, exact Egg parents, soundness, trace ordering."""
    ensemble = build_ensemble(cooking_scene)
    assert select_root(ensemble) == "Pot"
    build = build_hierarchy(cooking_scene, ensemble)
    hierarchy = build.hierarchy
    assert {("Pot", "Water"), ("Pot", "Heat"),
            ("Water", "Egg"), ("Heat", "Egg")} <= set(hierarchy.edges)
    assert set(parents(hierarchy, "Egg")) == {"Water", "Heat"}
    assert is_acyclic(hierarchy)
    assert len(set(hierarchy.nodes)) == len(hierarchy.nodes)
    assert reachable_from_root(hierarchy) == set(hierarchy.nodes)
    seen = set()
    for event in build.trace:
        if event.kind == "ensemble":
            seen.add(frozenset(event.subject))
        elif event.kind == "edge":
            assert frozenset(event.subject) in seen


def test_c06_consistency(cooking_path, scenes_dir, capsys):
    """The cooking scene checks clean; each mutation fixture fails with a
    diagnostic citing the offending rules."""
    assert main(["check", str(cooking_path)]) == 0
    assert capsys.readouterr().out == "0 errors\n"

    for fixture, cited in (
        ("inconsistent.cpl", ("r1", "r9")),
        ("inconsistent_assoc.cpl", ("r2", "r9")),
        ("inconsistent_cycle.cpl", ("r1", "r2", "r3")),
    ):
        assert main(["check", str(scenes_dir / fixture)]) == 1
        err = capsys.readouterr().err
        for cite in cited:
            assert cite in err, (fixture, cite, err)


def test_c07_derivation_algebra():
    """1,000 random rules validate iff their results were left intact, and
    the gas-variant chain derives exactly."""
    rng = random.Random(0xC07)
    checked = 0
    while checked < 1000:
        names = [c.name for c in make_entities(rng, rng.randint(3, 6))]
        rule = make_rule(rng, names, checked + 1)
        if not rule.inputs:
            continue
        checked += 1
        assert not any(
            "derivation" in d.message for d in validate_rule(rule))
        broken = corrupt_results(rng, rule)
        assert any("derivation" in d.message for d in validate_rule(broken))

    gas = parse_scene(
        "scene G { entities { Cooker as C; Hob as B; Gas as G; Heat as H; }"
        " rules { r1: H + C.B.G -> H.G.B.C where B < C, H < G < B; } }").scene
    assert gas is not None
    assert validate_rule(gas.rules[0]) == []
    from cpl.ast import derive_result

    derived = derive_result(gas.rules[0].outputs, gas.rules[0].inputs)
    assert derived == [("Heat", "Gas", "Hob", "Cooker")]


def test_c08_quantity_conservation():
    """Numeric amounts: 2 take 1 passes, 3 of 2 fails, negative take fails."""
    def rule_for(qtys):
        text = ("scene Q { entities { Pot as P; Tap as T; Water as W; }"
                f" rules {{ r1: P + T.W({qtys[0]}) -> P.W({qtys[1]})"
                f" ^ T.W({qtys[2]}); }} }}")
        scene = parse_scene(text).scene
        assert scene is not None
        return scene.rules[0]

    assert validate_rule(rule_for(("2", "1", "2-1"))) == []
    over = validate_rule(rule_for(("2", "3", "x")))
    assert any("exceeds total" in d.message for d in over)
    negative = validate_rule(rule_for(("2", "0-3", "x")))
    assert any("negative" in d.message for d in negative)


def test_c09_parser_round_trip(cooking_scene):
    """parse . format . parse is the identity on 500 generated scenes and
    on the bundled scene."""
    rng = random.Random(0xC09)
    for index in range(500):
        scene = make_scene(rng, name=f"Gen{index}")
        once = parse_scene(format_scene(scene))
        assert once.scene == scene, format_scene(scene)
        twice = parse_scene(format_scene(once.scene))
        assert twice.scene == once.scene
    text = format_scene(cooking_scene)
    assert parse_scene(text).scene == cooking_scene


def test_c10_prediction_oracle():
    """Votes and rankings equal the brute-force scan on 200 random stores."""
    rng = random.Random(0xC10)
    for _ in range(200):
        entries = make_store_entries(rng, max_entries=1000, max_features=20)
        store = MemoryStore()
        for scene_id, features in entries.items():
            store.store_scene(scene_id, features)
        pool = sorted({f for fs in entries.values() for f in fs})
        inputs = rng.sample(pool, k=min(len(pool), rng.randint(1, 5)))
        assert cross_reference(store, inputs) == vote_oracle(entries, inputs)
        legal = (set(rng.sample(pool, k=min(len(pool), 8)))
                 if rng.random() < 0.5 else None)
        k = rng.randint(1, 10)
        got = predict(store, inputs, legal, k)
        assert [(f.feature, f.votes) for f in got] == predict_oracle(
            entries, inputs, legal, k)
