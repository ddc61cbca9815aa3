import random
from itertools import combinations

from hypothesis import given, strategies as st

import oracles
from cpl.ast import Scene
from cpl.grid import (
    FrequencyGrid,
    build_grid,
    cluster_scene,
    primary_clusters,
    secondary_links,
    to_csv,
)
from cpl.parser import parse_scene

from genhelpers import make_scene

# Golden counts for the cooking scene, keyed by full names.
COOKING_PAIRS = {
    frozenset(p): n for p, n in {
        ("Pot", "Kitchen"): 1,
        ("Pot", "Cupboard"): 1,
        ("Kitchen", "Cupboard"): 1,
        ("Pot", "Tap"): 1,
        ("Pot", "Water"): 2,
        ("Tap", "Water"): 1,
        ("Heat", "Cooker"): 1,
        ("Heat", "Hob"): 3,
        ("Cooker", "Hob"): 1,
        ("Egg", "Pot"): 2,
        ("Egg", "Water"): 1,
        ("Pot", "Hob"): 2,
        ("Pot", "Heat"): 3,
        ("Egg", "Heat"): 1,
    }.items()
}

COOKING_CLUSTERS = {
    frozenset({"Pot", "Water", "Egg"}),
    frozenset({"Heat", "Hob"}),
    frozenset({"Kitchen", "Cupboard"}),
    frozenset({"Tap"}),
    frozenset({"Cooker"}),
}


def test_grid_matches_golden_counts(cooking_scene):
    grid = build_grid(cooking_scene)
    assert grid.pair_counts() == COOKING_PAIRS
    assert grid.total() == 42


def test_grid_concept_order_is_first_appearance(cooking_scene):
    grid = build_grid(cooking_scene)
    assert grid.concepts == (
        "Pot", "Kitchen", "Cupboard", "Tap", "Water",
        "Heat", "Cooker", "Hob", "Egg")


def test_self_loop_only_scene_gives_zero_grid():
    scene = parse_scene(
        "scene S { entities { Pot as P; } rules { P -> P; } }").scene
    grid = build_grid(scene)
    assert grid.concepts == ("Pot",)
    assert grid.total() == 0


def test_clusters_match_prose(cooking_scene):
    grid = build_grid(cooking_scene)
    clustering = primary_clusters(grid)
    assert {frozenset(c) for c in clustering.clusters} == COOKING_CLUSTERS


def test_two_concepts_one_cluster():
    scene = parse_scene(
        "scene S { entities { A; B; X; } rules {"
        " r1: A + B.X -> A.X.B; }}").scene
    # A, B and X co-occur once each; the strongest mutual pairs seed first
    grid = build_grid(scene)
    clustering = primary_clusters(grid)
    assert sum(len(c) for c in clustering.clusters) == 3


def test_zero_grid_gives_singletons():
    scene = parse_scene(
        "scene S { entities { A; B; } rules { r1: A -> A; r2: B -> B; } }").scene
    clustering = primary_clusters(build_grid(scene))
    assert {frozenset(c) for c in clustering.clusters} == {
        frozenset({"A"}), frozenset({"B"})}


def test_secondary_links_golden(cooking_scene):
    grid, clustering = cluster_scene(cooking_scene)
    links = {(a, b) for a, b, _ in clustering.secondary_links}
    for expected in (
        ("Cooker", "Hob"), ("Cooker", "Heat"), ("Cupboard", "Pot"),
        ("Tap", "Water"), ("Hob", "Pot"),
    ):
        assert tuple(sorted(expected)) in links
    top = clustering.secondary_links[0]
    assert (top[0], top[1], top[2]) == ("Heat", "Pot", 3)


def test_secondary_links_empty_when_single_cluster():
    scene = parse_scene(
        "scene S { entities { A; B; X; } rules { r1: A + B.X -> A.X.B; } }").scene
    grid = build_grid(scene)
    clustering = primary_clusters(grid)
    if len(clustering.clusters) == 1:
        assert secondary_links(grid, clustering) == ()
    else:
        # every link must cross clusters by definition
        member = {n: i for i, c in enumerate(clustering.clusters) for n in c}
        for a, b, _ in secondary_links(grid, clustering):
            assert member[a] != member[b]


def test_csv_blank_diagonal(cooking_scene):
    grid = build_grid(cooking_scene)
    rows = to_csv(grid).strip().split("\n")
    assert rows[0].startswith(",Pot,")
    for i, row in enumerate(rows[1:]):
        cells = row.split(",")
        assert cells[i + 1] == ""


@given(st.integers(0, 10**9))
def test_grid_symmetry_and_total(seed):
    scene = make_scene(random.Random(seed))
    grid = build_grid(scene)
    n = len(grid.concepts)
    for i in range(n):
        assert grid.counts[i][i] == 0
        for j in range(n):
            assert grid.counts[i][j] == grid.counts[j][i]
            assert grid.counts[i][j] >= 0
    expected = 0
    for rule in scene.rules:
        if rule.self_loop:
            continue
        k = len(rule.lhs_concepts())
        expected += 2 * len(list(combinations(range(k), 2)))
    assert grid.total() == expected


@given(st.integers(0, 10**9))
def test_grid_invariant_under_rule_order(seed):
    rng = random.Random(seed)
    scene = make_scene(rng)
    rules = list(scene.rules)
    rng.shuffle(rules)
    shuffled = Scene(scene.name, scene.entities, scene.root, tuple(rules))
    assert build_grid(scene).pair_counts() == build_grid(shuffled).pair_counts()


@given(st.integers(0, 10**9))
def test_clustering_is_a_partition_and_deterministic(seed):
    scene = make_scene(random.Random(seed))
    grid = build_grid(scene)
    clustering = primary_clusters(grid)
    flat = [name for cluster in clustering.clusters for name in cluster]
    assert sorted(flat) == sorted(grid.concepts)
    assert len(flat) == len(set(flat))
    assert primary_clusters(grid) == clustering


@st.composite
def symmetric_grids(draw, max_concepts=10):
    """Symmetric grids with an empty diagonal and counts small enough that
    ties are common."""
    size = draw(st.integers(0, max_concepts))
    names = draw(st.permutations([f"k{i}" for i in range(size)]))
    cells = [[0] * size for _ in range(size)]
    for i, j in combinations(range(size), 2):
        cells[i][j] = cells[j][i] = draw(st.integers(0, 3))
    return FrequencyGrid(tuple(names), tuple(tuple(row) for row in cells))


@given(symmetric_grids())
def test_clustering_matches_linear_scan(grid):
    assert primary_clusters(grid) == oracles.primary_clusters(grid)


@given(symmetric_grids())
def test_lookups_match_linear_scan(grid):
    names = list(grid.concepts) + ["absent"]
    for a in names:
        assert grid.strength(a) == sum(
            oracles.grid_count(grid, a, b) for b in names)
        for b in names:
            assert grid.count(a, b) == oracles.grid_count(grid, a, b)
