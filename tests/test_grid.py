import json
import random
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cpl.ast import Scene
from cpl.grid import (
    FrequencyGrid,
    build_grid,
    cluster_scene,
    csv_lines,
    json_chunks,
    primary_clusters,
    secondary_links,
    to_csv,
)
from cpl.parser import parse_scene

from genhelpers import make_reverse_scene, make_scene, pair_counts
from test_depth import deep_chain_scene

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import scenegen  # noqa: E402

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
    assert pair_counts(grid) == COOKING_PAIRS
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


def test_csv_lines_are_the_csv_one_line_each(cooking_scene):
    grid = build_grid(cooking_scene)
    lines = list(csv_lines(grid))
    assert len(lines) == len(grid.concepts) + 1
    assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
    assert "".join(lines) == to_csv(grid)


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
        if not rule.inputs:
            continue
        k = len(rule.lhs_names())
        expected += 2 * len(list(combinations(range(k), 2)))
    assert grid.total() == expected


@given(st.integers(0, 10**9))
def test_grid_invariant_under_rule_order(seed):
    rng = random.Random(seed)
    scene = make_scene(rng)
    rules = list(scene.rules)
    rng.shuffle(rules)
    shuffled = Scene(scene.name, scene.entities, scene.root, tuple(rules))
    assert pair_counts(build_grid(scene)) == pair_counts(build_grid(shuffled))


@given(st.sampled_from([make_scene, make_reverse_scene]),
       st.integers(0, 10**9))
def test_clustering_invariant_under_rule_order(make, seed):
    rng = random.Random(seed)
    scene = make(rng)
    rules = list(scene.rules)
    rng.shuffle(rules)
    shuffled = Scene(scene.name, scene.entities, scene.root, tuple(rules))

    def partition(of: Scene) -> set[frozenset[str]]:
        return set(map(frozenset, primary_clusters(build_grid(of)).clusters))

    assert partition(scene) == partition(shuffled)


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
    """Symmetric grids, no concept counting with itself, with counts small
    enough that ties are common."""
    size = draw(st.integers(0, max_concepts))
    names = draw(st.permutations([f"k{i}" for i in range(size)]))
    neighbours: dict[str, dict[str, int]] = {name: {} for name in names}
    for a, b in combinations(names, 2):
        count = draw(st.integers(0, 3))
        if count:
            neighbours[a][b] = neighbours[b][a] = count
    return FrequencyGrid(tuple(names), neighbours)


@given(symmetric_grids())
def test_clustering_matches_linear_scan(grid):
    assert primary_clusters(grid) == oracles.primary_clusters(grid)


# A tie-break by concept position in the attach step changes the partition
# of only about 1 in 300 of these grids, hence the larger example count.
@settings(max_examples=500)
@given(symmetric_grids(), st.data())
def test_clustering_invariant_under_concept_order(grid, data):
    """Rule order reaches the clustering only through the concept order."""
    names = data.draw(st.permutations(grid.concepts))
    reordered = FrequencyGrid(tuple(names), grid.neighbours)
    assert (set(map(frozenset, primary_clusters(grid).clusters))
            == set(map(frozenset, primary_clusters(reordered).clusters)))


@given(symmetric_grids())
def test_lookups_match_linear_scan(grid):
    names = list(grid.concepts) + ["absent"]
    for a in names:
        assert grid.strength(a) == sum(
            oracles.grid_count(grid, a, b) for b in names)
        for b in names:
            assert grid.count(a, b) == oracles.grid_count(grid, a, b)


@st.composite
def hub_grids(draw, max_concepts=40):
    """One to three hubs that co-occur with every other concept, and spokes
    that co-occur only with a few others: the shape where many concepts
    attach one at a time."""
    size = draw(st.integers(2, max_concepts))
    names = draw(st.permutations([f"k{i:02d}" for i in range(size)]))
    hubs = names[:draw(st.integers(1, min(3, size - 1)))]
    neighbours: dict[str, dict[str, int]] = {name: {} for name in names}

    def bump(a: str, b: str) -> None:
        count = draw(st.integers(1, 3))
        neighbours[a][b] = neighbours[b][a] = count

    for hub in hubs:
        for other in names:
            if other != hub and other not in neighbours[hub]:
                bump(hub, other)
    for i, a in enumerate(names):
        for b in names[i + 1:i + 3]:
            if b not in neighbours[a] and draw(st.booleans()):
                bump(a, b)
    return FrequencyGrid(tuple(names), neighbours)


@given(hub_grids())
def test_clustering_matches_attach_rescan_on_hub_grids(grid):
    assert primary_clusters(grid) == oracles.rescan_clusters(grid)


@settings(max_examples=12)
@given(st.integers(1, 150))
def test_clustering_matches_attach_rescan_on_deep_chains(half):
    grid = build_grid(deep_chain_scene(2 * half))
    assert primary_clusters(grid) == oracles.rescan_clusters(grid)


@given(st.sampled_from([make_scene, make_reverse_scene]),
       st.integers(0, 10**9))
def test_clustering_matches_attach_rescan_on_generated_scenes(make, seed):
    grid = build_grid(make(random.Random(seed)))
    assert primary_clusters(grid) == oracles.rescan_clusters(grid)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shape", [(64, 128, 0.10, 0.03), (24, 200, 0.30, 0.05)],
                         ids=["concept-wide", "rule-dense"])
def test_clustering_matches_attach_rescan_on_workload_scenes(shape, seed):
    rng = random.Random(seed)
    for _ in range(4):
        scene = parse_scene(scenegen.generate(rng, *shape).text).scene
        grid = build_grid(scene)
        assert primary_clusters(grid) == oracles.rescan_clusters(grid)


def counted_secondary_links(scene: Scene, clusters) -> list[tuple[str, str, int]]:
    """The cross-cluster pairs counted straight from the rules, not from the
    grid, strongest first and ties by name."""
    counts: Counter[tuple[str, str]] = Counter()
    for rule in scene.rules:
        names = set(rule.outputs).union(*(c.elements for c in rule.inputs))
        counts.update(combinations(sorted(names), 2))
    cluster_of = {name: i for i, cluster in enumerate(clusters)
                  for name in cluster}
    links = [(a, b, count) for (a, b), count in counts.items()
             if cluster_of[a] != cluster_of[b]]
    return sorted(links, key=lambda link: (-link[2], link[0], link[1]))


def assert_secondary_links_in_order(scene: Scene) -> None:
    clustering = cluster_scene(scene)[1]
    assert list(clustering.secondary_links) == counted_secondary_links(
        scene, clustering.clusters)


@given(st.sampled_from([make_scene, make_reverse_scene]),
       st.integers(0, 10**9))
def test_secondary_links_order_on_generated_scenes(make, seed):
    assert_secondary_links_in_order(make(random.Random(seed)))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", [(64, 128, 0.10, 0.03), (24, 200, 0.30, 0.05)],
                         ids=["concept-wide", "rule-dense"])
def test_secondary_links_order_on_workload_scenes(shape, seed):
    """Many links share a count here, so the name order within a count is
    exercised as well as the order by count."""
    rng = random.Random(seed)
    for _ in range(4):
        scene = parse_scene(scenegen.generate(rng, *shape).text).scene
        links = cluster_scene(scene)[1].secondary_links
        assert len({count for _, _, count in links}) < len(links)
        assert_secondary_links_in_order(scene)


SCENES = Path(__file__).resolve().parents[1] / "scenes"
BUNDLED = [path for path in sorted(SCENES.glob("*.cpl"))
           if parse_scene(path.read_text(encoding="utf-8")).scene is not None]


@pytest.mark.parametrize("path", BUNDLED, ids=lambda path: path.stem)
def test_csv_matches_dense_rows_on_bundled_scenes(path):
    grid = build_grid(parse_scene(path.read_text(encoding="utf-8")).scene)
    assert to_csv(grid) == oracles.to_csv(grid)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", [(64, 128, 0.10, 0.03), (24, 200, 0.30, 0.05)],
                         ids=["concept-wide", "rule-dense"])
def test_csv_matches_dense_rows_on_workload_scenes(shape, seed):
    scene = parse_scene(scenegen.generate(random.Random(seed), *shape).text).scene
    grid = build_grid(scene)
    assert to_csv(grid) == oracles.to_csv(grid)


@given(hub_grids())
def test_csv_matches_dense_rows_on_hub_grids(grid):
    assert to_csv(grid) == oracles.to_csv(grid)


def test_csv_matches_dense_rows_on_a_deep_chain():
    grid = build_grid(deep_chain_scene(300))
    assert to_csv(grid) == oracles.to_csv(grid)


def assert_json_matches_payload_dump(grid: FrequencyGrid) -> None:
    clustering = primary_clusters(grid)
    clustering = clustering._replace(
        secondary_links=secondary_links(grid, clustering))
    assert "".join(json_chunks(grid, clustering)) == \
        oracles.to_json(grid, clustering)


@pytest.mark.parametrize("path", BUNDLED, ids=lambda path: path.stem)
def test_json_matches_payload_dump_on_bundled_scenes(path):
    scene = parse_scene(path.read_text(encoding="utf-8")).scene
    assert_json_matches_payload_dump(build_grid(scene))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", [(64, 128, 0.10, 0.03), (24, 200, 0.30, 0.05)],
                         ids=["concept-wide", "rule-dense"])
def test_json_matches_payload_dump_on_workload_scenes(shape, seed):
    scene = parse_scene(scenegen.generate(random.Random(seed), *shape).text).scene
    assert_json_matches_payload_dump(build_grid(scene))


@given(st.integers(0, 10**9))
def test_json_matches_payload_dump_on_generated_scenes(seed):
    assert_json_matches_payload_dump(build_grid(make_scene(random.Random(seed))))


@given(hub_grids())
def test_json_matches_payload_dump_on_hub_grids(grid):
    assert_json_matches_payload_dump(grid)


def test_json_of_an_empty_grid_matches_payload_dump():
    assert_json_matches_payload_dump(build_grid(Scene("Empty", (), None, ())))


def test_json_chunks_are_one_count_row_each(cooking_scene):
    grid, clustering = cluster_scene(cooking_scene)
    chunks = list(json_chunks(grid, clustering))
    assert len(chunks) == len(grid.concepts) + 2
    for name, chunk in zip(grid.concepts, chunks[1:-1]):
        assert json.loads(chunk.lstrip(",")) == [grid.count(name, other)
                                                 for other in grid.concepts]
    assert "".join(chunks) == oracles.to_json(grid, clustering)
