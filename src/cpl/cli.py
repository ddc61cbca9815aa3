"""Command-line front end.

Exit codes: 0 clean, 1 diagnostics reported, 2 parse or usage failure
(including ``-k`` below 1, a ``--memory`` directory with no ``*.json``
scene and an ``--out`` file that cannot be written).
Identical inputs produce byte-identical output; diagnostics go to stderr,
results to stdout or to the file named by --out.

Each subcommand's handler takes the parsed arguments, does its work and
returns its result as text chunks (the grid a row at a time, as CSV or
JSON, and the cycle report a line at a time, its uni-links built one
concept at a time); ``main`` writes them to stdout or ``--out`` and exits 0.
A handler that cannot produce a result raises ``_Exit`` with the exit code
and the text for stderr, diagnostics included.  ``check`` alone also writes
its own result: when it reports diagnostics it writes the count line and
then raises ``_Exit`` with code 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain
from pathlib import Path

from . import check, forest, grid, hierarchy, memory
from .ast import Diagnostic
from .parser import parse_scene

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_FAILURE = 2


class _Exit(Exception):
    """Ends the command: main writes the message to stderr and returns
    ``code``."""

    def __init__(self, code: int, message: str = "") -> None:
        super().__init__(message)
        self.code = code


_RED_ERROR = "\x1b[31merror\x1b[0m"


def _format_diagnostics(path: str, diagnostics) -> str:
    label = _RED_ERROR if os.environ.get("CPL_COLOR", "0") == "1" else "error"
    return "".join(f"{path}:{diag.line}:{diag.column}: {label}: {diag.message}\n"
                   for diag in diagnostics)


def _load_scene(path: str):
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _Exit(EXIT_FAILURE,
                    f"cpl: cannot read {path}: {exc.strerror}\n") from exc
    except UnicodeDecodeError as exc:
        raise _Exit(EXIT_FAILURE, f"cpl: cannot read {path}: {exc}\n") from exc
    result = parse_scene(source)
    if result.scene is None:
        raise _Exit(EXIT_FAILURE, _format_diagnostics(path, result.diagnostics))
    return result.scene


def _checked_scene(path: str):
    scene = _load_scene(path)
    diagnostics = check.check_all(scene)
    if diagnostics:
        raise _Exit(EXIT_DIAGNOSTICS, _format_diagnostics(path, diagnostics))
    return scene


def _write_output(chunks, out: str | None) -> None:
    if out is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise _Exit(EXIT_FAILURE,
                    f"cpl: cannot write {out}: {exc.strerror}\n") from exc


def _cmd_check(args) -> list[str]:
    scene = _load_scene(args.file)
    diagnostics = check.check_all(scene)
    plural = "" if len(diagnostics) == 1 else "s"
    count = [f"{len(diagnostics)} error{plural}\n"]
    if not diagnostics:
        return count
    sys.stderr.write(_format_diagnostics(args.file, diagnostics))
    _write_output(count, args.out)
    raise _Exit(EXIT_DIAGNOSTICS)


def _cmd_grid(args):
    scene = _checked_scene(args.file)
    if args.format == "json":
        return grid.json_chunks(*grid.cluster_scene(scene))
    return grid.csv_lines(grid.build_grid(scene))


def _cmd_cluster(args) -> list[str]:
    freq, clustering = grid.cluster_scene(_checked_scene(args.file))
    lines = []
    for cluster in grid.ordered_clusters(clustering.clusters):
        lines.append("cluster: " + ", ".join(sorted(cluster)))
    for a, b, count in clustering.secondary_links:
        lines.append(f"link: {a} - {b} ({count})")
    return ["\n".join(lines) + "\n"]


def _cmd_trees(args) -> list[str]:
    built = forest.build_forest(_checked_scene(args.file))
    if args.dot:
        return [forest.forest_to_dot(built)]
    return [forest.nested_notation(built, sort_children=args.sorted), "\n"]


def _cmd_cycles(args):
    scene = _checked_scene(args.file)
    built = forest.build_forest(scene)
    cycles = forest.find_cycles(scene, built)
    if args.dot:
        return [forest.report_to_dot(scene, cycles)]
    return chain(
        ["uni-links:\n"],
        (f"  {link.render()}\n" for link in forest.uni_links(built, cycles)),
        ["cycles:\n"], (f"  {cycle.render()}\n" for cycle in cycles))


def _cmd_hierarchy(args) -> list[str]:
    scene = _checked_scene(args.file)
    try:
        ensemble = hierarchy.build_ensemble(scene)
        build = hierarchy.build_hierarchy(scene, ensemble)
        diagnostics = build.diagnostics
    except ValueError as exc:
        diagnostics = [Diagnostic(str(exc), 1, 1)]
    if diagnostics:
        raise _Exit(EXIT_DIAGNOSTICS, _format_diagnostics(args.file, diagnostics))
    if args.dot:
        return [hierarchy.hierarchy_to_dot(build)]
    lines = [f"root: {build.hierarchy.root}"]
    lines.extend(f"{parent} -> {child}" for parent, child in build.hierarchy.edges)
    return ["\n".join(lines) + "\n"]


def _parse_feature_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _cmd_predict(args) -> list[str]:
    if args.k < 1:
        raise _Exit(EXIT_FAILURE, f"cpl: -k must be at least 1, got {args.k}\n")
    if not Path(args.memory).is_dir():
        raise _Exit(EXIT_FAILURE, f"cpl: {args.memory} is not a directory\n")
    try:
        store = memory.load_memory_dir(args.memory)
    except (OSError, ValueError, KeyError) as exc:
        raise _Exit(EXIT_FAILURE, f"cpl: cannot load memory from "
                    f"{args.memory}: {exc}\n") from exc
    if not store:
        raise _Exit(EXIT_FAILURE, f"cpl: {args.memory} holds no memory scene "
                    "(*.json)\n")
    inputs = _parse_feature_list(args.input)
    legal = _parse_feature_list(args.legal) if args.legal is not None else None
    return [f"{item.feature} {item.votes}\n"
            for item in memory.predict(store, inputs, legal, args.k)]


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpl",
        description="Parse, check and derive structures from CPL scene scripts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, scene_file: bool = True):
        cmd = sub.add_parser(name, help=help_text)
        if scene_file:
            cmd.add_argument("file", help="scene script (.cpl)")
        cmd.add_argument("--out", help="write output to this file")
        cmd.set_defaults(handler=handler)
        return cmd

    add("check", _cmd_check, "validate rules and scene consistency")
    cmd = add("grid", _cmd_grid, "co-occurrence frequency grid")
    cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    add("cluster", _cmd_cluster, "primary clusters and secondary links")
    cmd = add("trees", _cmd_trees, "concept trees as nested notation")
    cmd.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    cmd.add_argument("--sorted", action="store_true",
                     help="order children by name")
    cmd = add("cycles", _cmd_cycles, "uni-directional links and process cycles")
    cmd.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    cmd = add("hierarchy", _cmd_hierarchy, "ensemble-backed process hierarchy")
    cmd.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    cmd = add("predict", _cmd_predict, "memory vote prediction",
              scene_file=False)
    cmd.add_argument("--memory", required=True, help="memory directory")
    cmd.add_argument("--input", required=True,
                     help="comma-separated input features")
    cmd.add_argument("--legal", help="comma-separated legal features")
    cmd.add_argument("-k", type=int, default=1, help="number of predictions")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_FAILURE if exc.code not in (0, None) else 0
    try:
        _write_output(args.handler(args), args.out)
    except _Exit as exc:
        sys.stderr.write(str(exc))
        return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
