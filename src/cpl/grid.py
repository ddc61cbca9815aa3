"""Pairwise co-occurrence counts over rule left-hand sides, with the greedy
primary clustering and the residual inter-cluster links.

Counting uses the left-hand side of each rule only: every unordered pair of
distinct concepts among the outputs and chain elements bumps both mirrored
cells.  Self-loop rules register their concept but contribute no pairs, so
the diagonal stays empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

from .ast import Scene


@dataclass(frozen=True)
class FrequencyGrid:
    """Symmetric co-occurrence counts; ``concepts`` keeps first-appearance
    order over rule left-hand sides."""

    concepts: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]
    _position: dict[str, int] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_position", {
            name: i for i, name in enumerate(self.concepts)})

    def count(self, a: str, b: str) -> int:
        i = self._position.get(a)
        j = self._position.get(b)
        if a == b or i is None or j is None:
            return 0
        return self.counts[i][j]

    def pair_counts(self) -> dict[frozenset[str], int]:
        """Nonzero cells as an order-free mapping."""
        pairs: dict[frozenset[str], int] = {}
        for i, a in enumerate(self.concepts):
            for j in range(i + 1, len(self.concepts)):
                if self.counts[i][j]:
                    pairs[frozenset((a, self.concepts[j]))] = self.counts[i][j]
        return pairs

    def strength(self, name: str) -> int:
        i = self._position.get(name)
        return 0 if i is None else sum(self.counts[i])

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)


@dataclass(frozen=True)
class Clustering:
    """A partition of the grid concepts plus the cross-cluster count links."""

    clusters: tuple[tuple[str, ...], ...]
    secondary_links: tuple[tuple[str, str, int], ...] = ()


def build_grid(scene: Scene) -> FrequencyGrid:
    """Count LHS co-occurrence for every rule of a (consistent) scene."""
    order: list[str] = []
    seen: set[str] = set()
    for rule in scene.rules:
        for concept in rule.lhs_concepts():
            if concept.name not in seen:
                seen.add(concept.name)
                order.append(concept.name)
    index = {name: i for i, name in enumerate(order)}
    matrix = [[0] * len(order) for _ in order]
    for rule in scene.rules:
        if rule.self_loop:
            continue
        members = [c.name for c in rule.lhs_concepts()]
        for a, b in combinations(members, 2):
            matrix[index[a]][index[b]] += 1
            matrix[index[b]][index[a]] += 1
    return FrequencyGrid(tuple(order), tuple(tuple(row) for row in matrix))


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
    names = grid.concepts
    # Nonzero counts off the diagonal, both levels in concept order.
    neighbours: dict[str, dict[str, int]] = {
        a: {b: count for j, (b, count) in enumerate(zip(names, row))
            if count and i != j}
        for i, (a, row) in enumerate(zip(names, grid.counts))
    }
    best = {name: max(near.values(), default=0)
            for name, near in neighbours.items()}

    mutual = [
        (a, b)
        for i, a in enumerate(names)
        for b, count in neighbours[a].items()
        if grid._position[b] > i and count == best[a] == best[b]
    ]
    mutual.sort(key=lambda pair: (
        -grid.count(*pair),
        grid.strength(pair[0]) + grid.strength(pair[1])
        - 2 * grid.count(*pair),
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

    while True:
        candidates: list[tuple[int, str, str]] = []
        for name in names:
            if name in membership:
                continue
            partners = [
                (other, count) for other, count in neighbours[name].items()
                if other not in seeded
            ]
            if not partners:
                continue
            top = max(count for _, count in partners)
            for other, count in partners:
                if count == top and count >= gate(other):
                    candidates.append((count, name, other))
        if not candidates:
            break
        count, name, other = min(
            candidates, key=lambda c: (-c[0], c[1], c[2]))
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
    links = []
    for pair, count in grid.pair_counts().items():
        a, b = sorted(pair)
        if member_cluster[a] != member_cluster[b]:
            links.append((a, b, count))
    links.sort(key=lambda link: (-link[2], link[0], link[1]))
    return tuple(links)


def cluster_scene(scene: Scene) -> tuple[FrequencyGrid, Clustering]:
    grid = build_grid(scene)
    clustering = primary_clusters(grid)
    links = secondary_links(grid, clustering)
    return grid, Clustering(clustering.clusters, links)


def to_csv(grid: FrequencyGrid) -> str:
    """Grid as CSV; the diagonal is left empty."""
    lines = ["," + ",".join(grid.concepts)]
    for i, name in enumerate(grid.concepts):
        cells = [
            "" if i == j else str(grid.counts[i][j])
            for j in range(len(grid.concepts))
        ]
        lines.append(name + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def to_json(grid: FrequencyGrid, clustering: Clustering) -> str:
    payload = {
        "format_version": 1,
        "concepts": list(grid.concepts),
        "counts": [list(row) for row in grid.counts],
        "clusters": [sorted(cluster)
                     for cluster in ordered_clusters(clustering.clusters)],
        "secondary_links": [list(link) for link in clustering.secondary_links],
    }
    return json.dumps(payload, indent=2) + "\n"


def ordered_clusters(
        clusters: tuple[tuple[str, ...], ...]) -> list[tuple[str, ...]]:
    """Largest cluster first, ties by smallest member name."""
    return sorted(clusters, key=lambda c: (-len(c), sorted(c)[0]))
