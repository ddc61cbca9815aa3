"""Spans and counters placed around calls into ``cpl`` from the outside.

Nothing in ``src/`` is edited: the tracer rebinds the chosen functions in
every ``cpl`` module namespace that holds them, so calls from one module
into another are traced too, and puts the originals back on ``uninstall``.
Spans stay in memory as (name, start, end, parent span, operation id);
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute) pairs that get a span.
SPANNED = (
    ("parser", "parse_scene"),
    ("check", "check_all"),
    ("grid", "cluster_scene"),
    ("grid", "build_grid"),
    ("grid", "primary_clusters"),
    ("grid", "secondary_links"),
    ("grid", "to_csv"),
    ("forest", "build_forest"),
    ("forest", "nested_notation"),
    ("forest", "extract_cycles"),
    ("hierarchy", "build_ensemble"),
    ("hierarchy", "build_hierarchy"),
    ("memory", "load_memory_dir"),
    ("memory", "predict"),
    ("cli", "main"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.op_id = -1
        self.counts: dict[str, list[int]] = {}  # name -> [calls, truthy]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)

        return traced

    def _counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0, 0])

        def counted(*args):
            result = fn(*args)
            cell[0] += 1
            if result:
                cell[1] += 1
            return result

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, cpl) -> None:
        for module_name, attr in SPANNED:
            original = getattr(getattr(cpl, module_name), attr)
            traced = self._spanned(f"{module_name}.{attr}", original)
            # Rebind it wherever a cpl module imported it by name.
            for name, module in list(sys.modules.items()):
                if name == "cpl" or name.startswith("cpl."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, traced)
        grid = cpl.grid.FrequencyGrid
        self._patch(grid, "count", self._counted("grid.count", grid.count))
        # Only the bindings the pipeline calls through are counted.
        counted = self._counted("ast.is_reverse_pair", cpl.ast.is_reverse_pair)
        for module in (cpl.forest, cpl.hierarchy):
            self._patch(module, "is_reverse_pair", counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[str, float]:
        """Self seconds of the spans, summed by name."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] = (totals.get(name, 0.0) + (end - start)
                            - child_time[index])
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "op": op}) + "\n")
