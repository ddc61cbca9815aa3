#!/usr/bin/env python3
"""Run the full pipeline on a scene script and print every derived artifact.

Usage: python scripts/run_cooking_report.py [scenes/cooking.cpl]

Exit codes as for ``cpl``: 0 clean, 1 check or hierarchy diagnostics
(written to stderr, indented under the report), 2 a file that cannot be
read or does not parse (written as ``cpl check`` writes it), or a stdout
that cannot be written.
"""

from __future__ import annotations

import sys
from pathlib import Path
from textwrap import indent

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cpl.check import check_all  # noqa: E402
from cpl.cli import (  # noqa: E402
    EXIT_DIAGNOSTICS, Exit, format_diagnostics, load_scene, write_output)
from cpl.forest import (  # noqa: E402
    build_forest, find_cycles, nested_notation, uni_links)
from cpl.grid import cluster_scene, csv_lines, ordered_clusters  # noqa: E402
from cpl.hierarchy import build_ensemble, build_hierarchy  # noqa: E402


def report(path: str):
    """The report on the scene at ``path``, as text chunks.  Raises
    ``Exit`` with code 1 and the indented diagnostics after the section
    whose stage reports them."""
    scene = load_scene(path)
    diagnostics = check_all(scene)
    yield f"== scene {scene.name} ==\n"
    yield f"consistency: {'clean' if not diagnostics else 'INCONSISTENT'}\n"
    if diagnostics:
        raise Exit(EXIT_DIAGNOSTICS,
                   indent(format_diagnostics(path, diagnostics), "  "))

    freq, clustering = cluster_scene(scene)
    yield "\n== frequency grid ==\n"
    yield from csv_lines(freq)
    yield "\n== clusters ==\n"
    for cluster in ordered_clusters(clustering.clusters):
        yield "  " + ", ".join(cluster) + "\n"
    yield "== secondary links ==\n"
    for a, b, count in clustering.secondary_links:
        yield f"  {a} - {b} ({count})\n"

    woods = build_forest(scene)
    yield "\n== concept trees ==\n"
    yield "  " + nested_notation(woods) + "\n"
    cycles = find_cycles(scene, woods)
    yield "== uni-directional links ==\n"
    for link in uni_links(woods, cycles):
        yield f"  {link.render()}\n"
    yield "== process cycles ==\n"
    for cycle in cycles:
        yield f"  {cycle.render()}\n"

    ensemble = build_ensemble(scene)
    build = build_hierarchy(scene, ensemble)
    yield "\n== ensemble strengths ==\n"
    for name in sorted(ensemble.concepts,
                       key=lambda n: (-ensemble.strength(n), n)):
        yield f"  {name}: {ensemble.strength(name)}\n"
    if build.diagnostics:
        raise Exit(EXIT_DIAGNOSTICS,
                   indent(format_diagnostics(path, build.diagnostics), "  "))
    yield f"== hierarchy (root {build.hierarchy.root}) ==\n"
    for parent, child in build.hierarchy.edges:
        yield f"  {parent} -> {child}\n"
    yield f"trace events: {len(build.trace)}\n"


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "scenes/cooking.cpl"
    try:
        write_output(report(path), None)
    except Exit as exc:
        sys.stderr.write(str(exc))
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
