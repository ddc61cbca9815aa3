"""The workloads.  Each one generates its inputs from the seed, runs one
closed-loop operation at a time, and checks every output against
``reference.py``.

A workload offers:

* ``setup(tracer)``: import ``cpl`` and ``cpl.cli`` afresh; returns the
  seconds it took.  With a tracer, it is installed right after the import.
* ``op(i)``: the timed operation ``i``; the same ``i`` is the same input.
* ``check(i, result)``: mismatch messages, empty when correct.
* ``observe(i, result, sizes)``: add per-operation size counters.
* ``peak_mb()``: the peak memory of the program's operations, in MB.
* ``close()``: stop the processes the workload started.
* ``traced_op``: the operation the traced run times (``op`` unless the real
  operation runs in another process).
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import reference
import scenegen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Workload:
    def __init__(self) -> None:
        self.cpl = None
        self.traced_op = self.op

    def setup(self, tracer=None) -> float:
        """Import ``cpl`` and ``cpl.cli`` as a fresh process would."""
        start = perf_counter()
        for name in [m for m in sys.modules
                     if m == "cpl" or m.startswith("cpl.")]:
            del sys.modules[name]
        self.cpl = importlib.import_module("cpl")
        importlib.import_module("cpl.cli")
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.install(self.cpl)
        return elapsed

    def close(self) -> None:
        pass

    def observe(self, i: int, res, sizes: dict) -> None:
        pass


class SceneWorkload(Workload):
    """The library pipeline of ``scripts/run_cooking_report.py`` on one
    generated scene per operation, starting from its source text."""

    POOL = 64  # distinct scenes per run; operation i uses scene i mod POOL
    PEAK_OPS = 8  # operations re-run under tracemalloc by peak_mb

    def __init__(self, seed: int, concepts: int, rules: int,
                 reverse_share: float, loop_share: float):
        rng = random.Random(seed)
        self.scenes = [
            scenegen.generate(rng, concepts, rules, reverse_share, loop_share,
                              name=f"Synthetic{k}")
            for k in range(self.POOL)]
        self.facts = [reference.SceneFacts(gen) for gen in self.scenes]
        super().__init__()

    def op(self, i: int):
        cpl = self.cpl
        scene = cpl.parser.parse_scene(self.scenes[i % self.POOL].text).scene
        diagnostics = cpl.check.check_all(scene)
        if diagnostics:
            return {"diagnostics": diagnostics}
        freq, clustering = cpl.grid.cluster_scene(scene)
        csv_text = cpl.grid.to_csv(freq)
        woods = cpl.forest.build_forest(scene)
        notation = cpl.forest.nested_notation(woods)
        report = cpl.forest.extract_cycles(scene, woods)
        ensemble = cpl.hierarchy.build_ensemble(scene)
        build = cpl.hierarchy.build_hierarchy(scene, ensemble)
        return {"diagnostics": diagnostics, "grid": freq,
                "total": freq.total(), "csv": csv_text,
                "clustering": clustering, "forest": woods,
                "notation": notation, "report": report, "build": build}

    def peak_mb(self) -> float:
        """The largest allocation peak of the first PEAK_OPS operations,
        above what was allocated when each began.  tracemalloc sees only
        the memory the pipeline allocates, not the harness's scenes and
        recounts, and slows the operations, so this runs after the timed
        loop.  Collecting garbage first keeps the last operation's cycles
        from being freed inside the next one's peak."""
        peak = 0
        tracemalloc.start()
        try:
            for i in range(self.PEAK_OPS):
                gc.collect()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = self.op(i)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
                del result
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def check(self, i: int, res) -> list[str]:
        if res["diagnostics"]:
            return [f"check_all: {res['diagnostics'][0]}"]
        facts = self.facts[i % self.POOL]
        freq, clustering = res["grid"], res["clustering"]
        hier = res["build"].hierarchy
        errors = reference.check_grid(facts, freq.concepts, freq.counts,
                                      res["total"], res["csv"])
        errors += reference.check_clustering(
            facts, clustering.clusters, clustering.secondary_links)
        errors += reference.check_forest(facts, res["forest"].occurrences)
        if not res["notation"]:
            errors.append("empty nested notation")
        errors += reference.check_cycles(facts, res["report"].cycles)
        errors += reference.check_hierarchy(
            facts, hier.root, hier.nodes, hier.edges,
            res["build"].diagnostics)
        return errors

    def observe(self, i: int, res, sizes: dict) -> None:
        sizes["check.diagnostics"] += len(res["diagnostics"])
        sizes["parser.rules"] += len(self.scenes[i % self.POOL].rules)
        if res["diagnostics"]:
            return
        counts = res["grid"].counts
        sizes["grid.concepts"] += len(counts)
        sizes["grid.nonzero_pairs"] += sum(
            1 for a, row in enumerate(counts) for b in range(a + 1, len(row))
            if row[b])
        sizes["grid.clusters"] += len(res["clustering"].clusters)
        sizes["forest.occurrences"] += sum(
            len(occs) for occs in res["forest"].occurrences.values())
        sizes["forest.cycles"] += len(res["report"].cycles)
        sizes["forest.uni_links"] += len(res["report"].uni_links)
        build = res["build"]
        sizes["hierarchy.nodes"] += len(build.hierarchy.nodes)
        sizes["hierarchy.edges"] += len(build.hierarchy.edges)
        sizes["hierarchy.trace_events"] += len(build.trace)
        sizes["hierarchy.stranded_rules"] += sum(
            len(d.message.rsplit(": ", 1)[-1].split(", "))
            for d in build.diagnostics)


class CliWorkload(Workload):
    """``python -m cpl`` in a child process for each command the README
    shows, on the bundled scenes.  The children are started by
    ``launcher.py``, so that their peak RSS is their own."""

    def __init__(self, seed: int):
        self.order = list(range(len(reference.CLI_CASES)))
        random.Random(seed).shuffle(self.order)
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else src)
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        super().__init__()
        self.traced_op = self.op_in_process

    def _ask(self, request):
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        answer = self.launcher.stdout.readline()
        if not answer:
            raise RuntimeError("the launcher exited")
        return json.loads(answer)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=60)

    def peak_mb(self) -> float:
        """The peak RSS of the largest child process."""
        return self._ask(None) / 1024

    def case(self, i: int):
        return reference.CLI_CASES[self.order[i % len(self.order)]]

    def run_child(self, argv: list[str]) -> tuple[int, str, str]:
        """Run ``argv`` to completion; returns (exit code, stdout, stderr)."""
        return tuple(self._ask(argv))

    def op(self, i: int):
        return self.run_child([sys.executable, "-m", "cpl", *self.case(i)[0]])

    def op_in_process(self, i: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cpl.cli.main(list(self.case(i)[0]))
        return code, out.getvalue(), err.getvalue()

    def check(self, i: int, res) -> list[str]:
        argv, want_code, ok = self.case(i)
        code, out, err = res
        if code != want_code:
            return [f"cpl {' '.join(argv)}: exit {code}, want {want_code}"]
        return [] if ok(out, err) else [f"cpl {' '.join(argv)}: output differs"]


def make(name: str, seed: int):
    if name == "concept-wide":
        return SceneWorkload(seed, concepts=64, rules=128,
                             reverse_share=0.10, loop_share=0.03)
    if name == "rule-dense":
        return SceneWorkload(seed, concepts=24, rules=200,
                             reverse_share=0.30, loop_share=0.05)
    if name == "cli-cooking":
        return CliWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("concept-wide", "rule-dense", "cli-cooking")
