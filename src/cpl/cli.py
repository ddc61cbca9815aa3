"""Command-line front end.

Exit codes: 0 clean, 1 diagnostics reported, 2 parse or usage failure
(including ``-k`` below 1 and an ``--out`` file that cannot be written).
Identical inputs produce byte-identical output; diagnostics go to stderr,
results to stdout or to the file named by --out.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import check, forest, grid, hierarchy, memory
from .parser import Diagnostic, parse_scene

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_FAILURE = 2


def _color_enabled() -> bool:
    return os.environ.get("CPL_COLOR", "0") == "1"


_COLORS = {"error": "\x1b[31m", "warning": "\x1b[33m"}


def _emit_diagnostics(path: str, diagnostics) -> None:
    use_color = _color_enabled()
    for diag in diagnostics:
        severity = diag.severity
        if use_color:
            severity = f"{_COLORS.get(diag.severity, '')}{diag.severity}\x1b[0m"
        sys.stderr.write(
            f"{path}:{diag.line}:{diag.column}: {severity}: {diag.message}\n")


def _load_scene(path: str):
    """Returns (scene, None) or (None, exit_code) after reporting."""
    try:
        source = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        sys.stderr.write(f"cpl: cannot read {path}: {exc.strerror}\n")
        return None, EXIT_FAILURE
    except UnicodeDecodeError as exc:
        sys.stderr.write(f"cpl: cannot read {path}: {exc}\n")
        return None, EXIT_FAILURE
    result = parse_scene(source)
    if result.scene is None:
        _emit_diagnostics(path, result.diagnostics)
        return None, EXIT_FAILURE
    return result.scene, None


def _load_checked_scene(path: str):
    scene, code = _load_scene(path)
    if scene is None:
        return None, code
    diagnostics = check.check_all(scene)
    if diagnostics:
        _emit_diagnostics(path, diagnostics)
        return None, EXIT_DIAGNOSTICS
    return scene, None


class _CannotWrite(Exception):
    """The --out file could not be written; main reports it and exits 2."""


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CannotWrite(
            f"cpl: cannot write {out}: {exc.strerror}\n") from exc


def _cmd_check(args) -> int:
    scene, code = _load_scene(args.file)
    if scene is None:
        return code
    diagnostics = check.check_all(scene)
    _emit_diagnostics(args.file, diagnostics)
    errors = sum(1 for d in diagnostics if d.severity == "error")
    plural = "" if errors == 1 else "s"
    _write_output(f"{errors} error{plural}\n", args.out)
    return EXIT_DIAGNOSTICS if diagnostics else EXIT_OK


def _cmd_grid(args) -> int:
    scene, code = _load_checked_scene(args.file)
    if scene is None:
        return code
    freq, clustering = grid.cluster_scene(scene)
    if args.format == "json":
        _write_output(grid.to_json(freq, clustering), args.out)
    else:
        _write_output(grid.to_csv(freq), args.out)
    return EXIT_OK


def _cmd_cluster(args) -> int:
    scene, code = _load_checked_scene(args.file)
    if scene is None:
        return code
    freq, clustering = grid.cluster_scene(scene)
    lines = []
    for cluster in grid.ordered_clusters(clustering.clusters):
        lines.append("cluster: " + ", ".join(sorted(cluster)))
    for a, b, count in clustering.secondary_links:
        lines.append(f"link: {a} - {b} ({count})")
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_trees(args) -> int:
    scene, code = _load_checked_scene(args.file)
    if scene is None:
        return code
    built = forest.build_forest(scene)
    if args.dot:
        _write_output(forest.forest_to_dot(built), args.out)
    else:
        text = forest.nested_notation(built, sort_children=args.sorted)
        _write_output(text + "\n", args.out)
    return EXIT_OK


def _cmd_cycles(args) -> int:
    scene, code = _load_checked_scene(args.file)
    if scene is None:
        return code
    built = forest.build_forest(scene)
    report = forest.extract_cycles(scene, built)
    if args.dot:
        _write_output(forest.report_to_dot(scene, report), args.out)
        return EXIT_OK
    lines = ["uni-links:"]
    lines.extend(f"  {link.render()}" for link in report.uni_links)
    lines.append("cycles:")
    lines.extend(f"  {cycle.render()}" for cycle in report.cycles)
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_hierarchy(args) -> int:
    scene, code = _load_checked_scene(args.file)
    if scene is None:
        return code
    try:
        ensemble = hierarchy.build_ensemble(scene)
        build = hierarchy.build_hierarchy(scene, ensemble)
    except ValueError as exc:
        _emit_diagnostics(args.file, [Diagnostic("error", str(exc), 1, 1)])
        return EXIT_DIAGNOSTICS
    if build.diagnostics:
        _emit_diagnostics(args.file, build.diagnostics)
        return EXIT_DIAGNOSTICS
    if args.dot:
        _write_output(hierarchy.hierarchy_to_dot(build), args.out)
        return EXIT_OK
    lines = [f"root: {build.hierarchy.root}"]
    lines.extend(f"{parent} -> {child}" for parent, child in build.hierarchy.edges)
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _parse_feature_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _cmd_predict(args) -> int:
    if args.k < 1:
        sys.stderr.write(f"cpl: -k must be at least 1, got {args.k}\n")
        return EXIT_FAILURE
    if not Path(args.memory).is_dir():
        sys.stderr.write(f"cpl: {args.memory} is not a directory\n")
        return EXIT_FAILURE
    try:
        store = memory.load_memory_dir(args.memory)
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"cpl: cannot load memory from {args.memory}: {exc}\n")
        return EXIT_FAILURE
    inputs = _parse_feature_list(args.input)
    legal = _parse_feature_list(args.legal) if args.legal is not None else None
    prediction = memory.predict(store, inputs, legal, args.k)
    lines = [
        f"{item.feature} {item.votes}" + (" future" if item.future else "")
        for item in prediction.ranked
    ]
    _write_output("\n".join(lines) + "\n" if lines else "", args.out)
    return EXIT_OK


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
        return args.handler(args)
    except _CannotWrite as exc:
        sys.stderr.write(str(exc))
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
