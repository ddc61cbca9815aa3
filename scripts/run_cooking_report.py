#!/usr/bin/env python3
"""Run the full pipeline on a scene script and print every derived artifact.

Usage: python scripts/run_cooking_report.py [scenes/cooking.cpl]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cpl.check import check_all  # noqa: E402
from cpl.forest import (  # noqa: E402
    build_forest, extract_cycles, nested_notation)
from cpl.grid import cluster_scene, ordered_clusters, to_csv  # noqa: E402
from cpl.hierarchy import build_ensemble, build_hierarchy  # noqa: E402
from cpl.parser import parse_scene  # noqa: E402


def main() -> int:
    path = Path(sys.argv[1] if len(sys.argv) > 1 else "scenes/cooking.cpl")
    result = parse_scene(path.read_text(encoding="utf-8"))
    if result.scene is None:
        for diag in result.diagnostics:
            print(f"{path}:{diag}", file=sys.stderr)
        return 2
    scene = result.scene
    diagnostics = check_all(scene)
    print(f"== scene {scene.name} ==")
    print(f"consistency: {'clean' if not diagnostics else 'INCONSISTENT'}")
    for diag in diagnostics:
        print(f"  {path}:{diag}", file=sys.stderr)
    if diagnostics:
        return 1

    freq, clustering = cluster_scene(scene)
    print("\n== frequency grid ==")
    print(to_csv(freq), end="")
    print("\n== clusters ==")
    for cluster in ordered_clusters(clustering.clusters):
        print("  " + ", ".join(sorted(cluster)))
    print("== secondary links ==")
    for a, b, count in clustering.secondary_links:
        print(f"  {a} - {b} ({count})")

    woods = build_forest(scene)
    print("\n== concept trees ==")
    print("  " + nested_notation(woods))
    report = extract_cycles(scene, woods)
    print("== uni-directional links ==")
    for link in report.uni_links:
        print("  " + link.render())
    print("== process cycles ==")
    for cycle in report.cycles:
        print("  " + cycle.render())

    ensemble = build_ensemble(scene)
    build = build_hierarchy(scene, ensemble)
    print("\n== ensemble strengths ==")
    for name in sorted(ensemble.concepts,
                       key=lambda n: (-ensemble.strength(n), n)):
        print(f"  {name}: {ensemble.strength(name)}")
    print(f"== hierarchy (root {build.hierarchy.root}) ==")
    for parent, child in build.hierarchy.edges:
        print(f"  {parent} -> {child}")
    print(f"trace events: {len(build.trace)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
