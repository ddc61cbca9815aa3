"""Command-line front end.

Exit codes: 0 clean, 1 diagnostics reported, 2 parse or usage failure
(including ``-k`` below 1, a ``--memory`` directory with no ``*.json``
scene, and an ``--out`` file or a stdout pipe that cannot be written).
Identical inputs produce byte-identical output; diagnostics go to stderr,
results to stdout or to the file named by --out.

Each subcommand's handler takes the parsed arguments, does its work and
returns its result as text chunks (the grid a row at a time, as CSV or
JSON, and the cycle report a line at a time, its uni-links built one
concept at a time); ``main`` writes them to stdout or ``--out`` and exits 0.
A handler that cannot produce a result raises ``Exit`` with the exit code
and the text for stderr, diagnostics included.  ``check`` alone also writes
its own result: when it reports diagnostics it writes the count line and
then raises ``Exit`` with code 1.

``load_scene``, ``load_memory`` and ``format_diagnostics`` are the one
place where a path becomes a scene or a memory store and where a
diagnostic line is spelled; the bundled scripts call them too, and write
an ``Exit``'s message and return its code as ``main`` does.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain
from pathlib import Path

from . import check, forest, grid, hierarchy, memory
from .parser import parse_scene

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_FAILURE = 2


class Exit(Exception):
    """Ends the command: main writes the message to stderr and returns
    ``code``."""

    def __init__(self, code: int, message: str = "") -> None:
        super().__init__(message)
        self.code = code


_RED_ERROR = "\x1b[31merror\x1b[0m"


def format_diagnostics(path: str, diagnostics) -> str:
    """One ``PATH:LINE:COL: error: MESSAGE`` line per diagnostic, the word
    ``error`` in red when ``CPL_COLOR=1``."""
    label = _RED_ERROR if os.environ.get("CPL_COLOR", "0") == "1" else "error"
    return "".join(f"{path}:{diag.line}:{diag.column}: {label}: {diag.message}\n"
                   for diag in diagnostics)


def load_scene(path: str):
    """The scene parsed from the file at ``path``; raises ``Exit`` with
    code 2 when the file cannot be read or does not parse."""
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise Exit(EXIT_FAILURE,
                   f"cpl: cannot read {path}: {exc.strerror}\n") from exc
    except UnicodeDecodeError as exc:
        raise Exit(EXIT_FAILURE, f"cpl: cannot read {path}: {exc}\n") from exc
    result = parse_scene(source)
    if result.scene is None:
        raise Exit(EXIT_FAILURE, format_diagnostics(path, result.diagnostics))
    return result.scene


def _checked_scene(path: str):
    scene = load_scene(path)
    diagnostics = check.check_all(scene)
    if diagnostics:
        raise Exit(EXIT_DIAGNOSTICS, format_diagnostics(path, diagnostics))
    return scene


def load_memory(directory: str) -> memory.MemoryStore:
    """The memory stored in ``directory``'s ``*.json`` scenes; raises
    ``Exit`` with code 2 when it is not a directory, a scene cannot be
    loaded or none is stored."""
    if not Path(directory).is_dir():
        raise Exit(EXIT_FAILURE, f"cpl: {directory} is not a directory\n")
    try:
        store = memory.load_memory_dir(directory)
    except (OSError, ValueError, KeyError) as exc:
        raise Exit(EXIT_FAILURE, f"cpl: cannot load memory from "
                   f"{directory}: {exc}\n") from exc
    if not store:
        raise Exit(EXIT_FAILURE, f"cpl: {directory} holds no memory scene "
                   "(*.json)\n")
    return store


def _write_output(chunks, out: str | None) -> None:
    if out is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # The reader closed the pipe.  What is still buffered goes to
            # os.devnull, so the interpreter's final flush fails no more.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise Exit(EXIT_FAILURE,
                       f"cpl: cannot write stdout: {exc.strerror}\n") from exc
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise Exit(EXIT_FAILURE,
                   f"cpl: cannot write {out}: {exc.strerror}\n") from exc


def _cmd_check(args) -> list[str]:
    scene = load_scene(args.file)
    diagnostics = check.check_all(scene)
    plural = "" if len(diagnostics) == 1 else "s"
    count = [f"{len(diagnostics)} error{plural}\n"]
    if not diagnostics:
        return count
    sys.stderr.write(format_diagnostics(args.file, diagnostics))
    _write_output(count, args.out)
    raise Exit(EXIT_DIAGNOSTICS)


def _cmd_grid(args):
    scene = _checked_scene(args.file)
    if args.format == "json":
        return grid.json_chunks(*grid.cluster_scene(scene))
    return grid.csv_lines(grid.build_grid(scene))


def _cmd_cluster(args) -> list[str]:
    freq, clustering = grid.cluster_scene(_checked_scene(args.file))
    lines = []
    for cluster in grid.ordered_clusters(clustering.clusters):
        lines.append("cluster: " + ", ".join(cluster))
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
    build = hierarchy.build_hierarchy(scene, hierarchy.build_ensemble(scene))
    if build.diagnostics:
        raise Exit(EXIT_DIAGNOSTICS,
                   format_diagnostics(args.file, build.diagnostics))
    if args.dot:
        return [hierarchy.hierarchy_to_dot(build)]
    lines = [f"root: {build.hierarchy.root}"]
    lines.extend(f"{parent} -> {child}" for parent, child in build.hierarchy.edges)
    return ["\n".join(lines) + "\n"]


def _parse_feature_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _cmd_predict(args) -> list[str]:
    if args.k < 1:
        raise Exit(EXIT_FAILURE, f"cpl: -k must be at least 1, got {args.k}\n")
    store = load_memory(args.memory)
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
    except Exit as exc:
        sys.stderr.write(str(exc))
        return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
