"""Pairwise co-occurrence counts over rule left-hand sides, with the greedy
primary clustering and the residual inter-cluster links.

Counting uses the left-hand side of each rule only: every unordered pair of
distinct concepts among the outputs and chain elements bumps the count both
ways round.  Self-loop rules register their concept but contribute no pairs,
so no concept counts with itself.  The grid stores only the nonzero counts,
as a neighbour map.  Both formats read that map directly and stream one
row at a time: the CSV a line per concept, the JSON a count row per
concept.  Both print every cell.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .ast import Scene


class FrequencyGrid(NamedTuple):
    """Symmetric co-occurrence counts.  ``concepts`` keeps first-appearance
    order over rule left-hand sides; ``neighbours`` maps every concept to
    its nonzero counts toward the other concepts, ``{a: {b: count}}``."""

    concepts: tuple[str, ...]
    neighbours: dict[str, dict[str, int]]

    def count(self, a: str, b: str) -> int:
        return self.neighbours.get(a, {}).get(b, 0)

    @property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows in concept order, zeros and diagonal included."""
        rows = []
        for a in self.concepts:
            near = self.neighbours[a]
            rows.append(tuple(near.get(b, 0) for b in self.concepts))
        return tuple(rows)

    def strength(self, name: str) -> int:
        return sum(self.neighbours.get(name, {}).values())

    def total(self) -> int:
        return sum(sum(near.values()) for near in self.neighbours.values())


class Clustering(NamedTuple):
    """A partition of the grid concepts plus the cross-cluster count links."""

    clusters: tuple[tuple[str, ...], ...]
    secondary_links: tuple[tuple[str, str, int], ...] = ()


def build_grid(scene: Scene) -> FrequencyGrid:
    """Count LHS co-occurrence for every rule of a (consistent) scene."""
    neighbours: dict[str, dict[str, int]] = {}
    for rule in scene.rules:
        members = rule.lhs_names()
        for name in members:
            neighbours.setdefault(name, {})
        for a, b in combinations(members, 2):
            near_a, near_b = neighbours[a], neighbours[b]
            near_a[b] = near_a.get(b, 0) + 1
            near_b[a] = near_b.get(a, 0) + 1
    return FrequencyGrid(tuple(neighbours), neighbours)


def primary_clusters(grid: FrequencyGrid) -> Clustering:
    """Greedy clustering by strongest counts.

    Mutual-best pairs seed clusters first, strongest count first; equal
    pairs competing for a concept are ordered by the smaller combined
    count-mass to third parties (the more exclusive bond wins), then by
    name.  Remaining concepts then attach one at a time: a concept may join
    the cluster of its best non-seeded partner provided that partner has no
    stronger tie among its own cluster and the still unclustered concepts.
    Whatever is left stays a singleton.
    """
    names, neighbours = grid.concepts, grid.neighbours
    position = {name: i for i, name in enumerate(names)}
    best = {name: max(near.values(), default=0)
            for name, near in neighbours.items()}
    # Summed once: a hub's neighbour map spans the grid.
    strength = {name: sum(near.values()) for name, near in neighbours.items()}

    mutual = [
        (a, b)
        for i, a in enumerate(names)
        for b, count in neighbours[a].items()
        if position[b] > i and count == best[a] == best[b]
    ]
    mutual.sort(key=lambda pair: (
        -grid.count(*pair),
        strength[pair[0]] + strength[pair[1]] - 2 * grid.count(*pair),
        tuple(sorted(pair))))

    clusters: list[list[str]] = []
    membership: dict[str, int] = {}
    seeded: set[str] = set()
    for a, b in mutual:
        if a in seeded or b in seeded:
            continue
        membership[a] = membership[b] = len(clusters)
        clusters.append([a, b])
        seeded.update((a, b))

    def gate(target: str) -> int:
        """Best count the target holds toward its own cluster or the
        unclustered concepts."""
        return max((
            count for other, count in neighbours[target].items()
            if other not in membership
            or membership[other] == membership.get(target)), default=0)

    # A concept's best non-seeded count and the partners tied at it do not
    # change while concepts attach; only the partners' gates fall.
    top: dict[str, int] = {}
    tied: dict[str, list[str]] = {}
    for name in names:
        if name in membership:
            continue
        partners = {other: count for other, count in neighbours[name].items()
                    if other not in seeded}
        if partners:
            top[name] = max(partners.values())
            tied[name] = sorted(other for other, count in partners.items()
                                if count == top[name])
    order = sorted(top, key=lambda name: (-top[name], name))

    while True:
        # The strongest unclustered concept first, then its first partner
        # by name: the attach with the smallest (-count, name, partner).
        choice = next((
            (i, other) for i, name in enumerate(order)
            if name not in membership
            for other in tied[name] if top[name] >= gate(other)), None)
        if choice is None:
            break
        name, other = order.pop(choice[0]), choice[1]
        if other in membership:
            membership[name] = membership[other]
            clusters[membership[other]].append(name)
        else:
            membership[name] = membership[other] = len(clusters)
            clusters.append([other, name])

    for name in names:
        if name not in membership:
            membership[name] = len(clusters)
            clusters.append([name])

    return Clustering(tuple(tuple(c) for c in clusters))


def secondary_links(grid: FrequencyGrid,
                    clustering: Clustering) -> tuple[tuple[str, str, int], ...]:
    """Every nonzero count that crosses a cluster boundary, strongest first,
    ties in name order."""
    member_cluster = {
        name: idx
        for idx, cluster in enumerate(clustering.clusters)
        for name in cluster
    }
    links = [
        (a, b, count)
        for a, near in grid.neighbours.items()
        for b, count in near.items()
        if a < b and member_cluster[a] != member_cluster[b]
    ]
    # Name order first; the stable sort by count keeps it within each count.
    links.sort()
    links.sort(key=itemgetter(2), reverse=True)
    return tuple(links)


def cluster_scene(scene: Scene) -> tuple[FrequencyGrid, Clustering]:
    grid = build_grid(scene)
    clustering = primary_clusters(grid)
    links = secondary_links(grid, clustering)
    return grid, Clustering(clustering.clusters, links)


def _cells(grid: FrequencyGrid, column: dict[str, int],
           name: str) -> list[str]:
    """The row of ``name`` as text: "0" in every column, then each nonzero
    count written at its neighbour's column."""
    cells = ["0"] * len(column)
    for b, count in grid.neighbours[name].items():
        cells[column[b]] = str(count)
    return cells


def csv_lines(grid: FrequencyGrid) -> Iterator[str]:
    """Grid as CSV, one line at a time; the diagonal is left empty."""
    names = grid.concepts
    column = {name: i for i, name in enumerate(names)}
    yield "," + ",".join(names) + "\n"
    for i, name in enumerate(names):
        cells = _cells(grid, column, name)
        cells[i] = ""
        yield name + "," + ",".join(cells) + "\n"


def to_csv(grid: FrequencyGrid) -> str:
    """Grid as one CSV text."""
    return "".join(csv_lines(grid))


def json_chunks(grid: FrequencyGrid, clustering: Clustering) -> Iterator[str]:
    """Grid and clustering as the text of ``json.dumps(payload, indent=2)``,
    one dense count row at a time; the keys before and after the counts
    come from ``json.dumps`` itself."""
    names = grid.concepts
    column = {name: i for i, name in enumerate(names)}
    head = json.dumps({"format_version": 1, "concepts": list(names)}, indent=2)
    tail = json.dumps({
        "clusters": ordered_clusters(clustering.clusters),
        "secondary_links": [list(link) for link in clustering.secondary_links],
    }, indent=2)
    # Drop the head's closing "\n}" and the tail's opening "{\n".
    yield head[:-2] + ',\n  "counts": [' + ("" if names else "]")
    for i, name in enumerate(names):
        cells = ",\n      ".join(_cells(grid, column, name))
        yield ("," if i else "") + "\n    [\n      " + cells + "\n    ]"
    yield ("\n  ]" if names else "") + ",\n" + tail[2:] + "\n"


def ordered_clusters(
        clusters: tuple[tuple[str, ...], ...]) -> list[list[str]]:
    """The clusters in printed order, each one's members by name: largest
    cluster first, ties by smallest member name."""
    return sorted(map(sorted, clusters), key=lambda c: (-len(c), c[0]))
