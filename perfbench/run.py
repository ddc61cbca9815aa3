#!/usr/bin/env python3
"""The cpl-toolkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed-loop (one client; the next operation starts when
the previous one returns) for S seconds of operation time, checks every
output against the benchmark's own reference, and prints one JSON object as
the last line of stdout.  The line before it records the environment.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation twice, alternating an untraced copy of the workload with a traced
one, and reports the per-module metrics; the difference between the two
copies is the tracing overhead.  Spans are written to
``.perfbench_out/spans-NAME.jsonl``.

It must run in a checkout that holds ``src/cpl`` and exits with code 2
otherwise.  Workloads: concept-wide, rule-dense, cli-cooking.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (imports cpl only inside set-up)
from tracing import Tracer  # noqa: E402

WORK = ROOT / ".perfbench_out"
# Set-ups per run.  setup_s is their 75th percentile, which has ten beyond
# it.  CPU speed on a shared machine switches between two levels about 1.6x
# apart for seconds at a time, and the share of a run spent at the fast
# level ranges from none to most of it.  The median of the set-ups drops to
# the fast level once that share passes a half; the 75th percentile stays
# at the slow level until it passes three quarters.
SETUPS = 40

# Spans reported as ``<name>.s``: self seconds per operation, the time inside
# the call minus the traced calls it makes.
SPAN_METRICS = (
    "parser.parse_scene", "check.check_all", "grid.build_grid",
    "grid.primary_clusters", "grid.secondary_links", "grid.to_csv",
    "forest.build_forest", "forest.extract_cycles", "forest.nested_notation",
    "hierarchy.build_ensemble", "hierarchy.build_hierarchy",
    "memory.load_memory_dir", "memory.predict",
)
# Output sizes, per operation.
SIZE_METRICS = (
    "check.diagnostics", "grid.concepts", "grid.nonzero_pairs",
    "grid.clusters", "forest.occurrences", "forest.cycles",
    "forest.uni_links", "hierarchy.nodes", "hierarchy.edges",
    "hierarchy.trace_events", "hierarchy.stranded_rules",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_op(workload, op, i, sizes=None) -> tuple[float, list[str]]:
    """Time operation ``i``, then check it.  Returns (seconds, errors)."""
    start = perf_counter()
    try:
        result = op(i)
    except Exception as exc:  # an operation that raises is a failure
        return perf_counter() - start, [f"operation {i} raised {exc!r}"]
    elapsed = perf_counter() - start
    errors = workload.check(i, result)
    if sizes is not None and not errors:
        workload.observe(i, result, sizes)
    return elapsed, errors


class Tally:
    """Latencies and failures of one run; prints the first few failures."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0

    def add(self, elapsed: float, errors: list[str]) -> None:
        self.latencies.append(elapsed)
        if errors:
            self.failed += 1
            if self.failed <= 3:
                print(f"failed: {errors[0]}", file=sys.stderr)


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between the closest ranks."""
    ordered = sorted(values)
    at = (len(ordered) - 1) * q / 100
    low = int(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def end_to_end(name, seed, seconds):
    workload = workloads.make(name, seed)
    setups, tally, busy, i = [], Tally(), 0.0, 0
    try:
        # Set-ups are spread over the run, one before each share of the
        # operations, so that they sample the whole run.
        for share in range(1, SETUPS + 1):
            setups.append(workload.setup())
            while busy < seconds * share / SETUPS:
                elapsed, errors = run_op(workload, workload.op, i)
                tally.add(elapsed, errors)
                busy += elapsed
                i += 1
        peak_mb = workload.peak_mb()
    finally:
        workload.close()
    metrics = {
        "setup_s": (quantile(setups, 75), "s"),
        "op_ms.p90": (quantile(tally.latencies, 90) * 1e3, "ms"),
        "peak_mem_mb": (peak_mb, "MB"),
    }
    return metrics, len(tally.latencies), tally.failed


def cli_split(workload, seconds):
    """Bare interpreter start and ``import cpl.cli`` in child processes,
    alternated for ``seconds``; returns both p50s in ms, the import as the
    difference."""
    interp, imported = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(interp) < 11:
        for argv, into in (([sys.executable, "-c", "pass"], interp),
                           ([sys.executable, "-c", "import cpl.cli"], imported)):
            start = perf_counter()
            code, _, err = workload.run_child(argv)
            into.append(perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"{argv[1:]} failed: {err.strip()}")
    interp_ms = quantile(interp, 50) * 1e3
    return interp_ms, quantile(imported, 50) * 1e3 - interp_ms


def per_layer(name, seed, seconds):
    plain, traced = workloads.make(name, seed), workloads.make(name, seed)
    tracer = Tracer()
    sizes = dict.fromkeys(SIZE_METRICS + ("parser.rules",), 0)
    plain_tally, traced_tally = Tally(), Tally()
    interp_ms = import_ms = main_ms = 0.0
    try:
        plain.setup()
        traced.setup(tracer)
        if name == "cli-cooking":
            interp_ms, import_ms = cli_split(plain, seconds / 2)
            seconds /= 2
        # Alternate which copy goes first so that neither gains from order.
        busy, i = 0.0, 0
        while busy < seconds / 2:
            tracer.op_id = i
            pair = [(plain, plain_tally, None), (traced, traced_tally, sizes)]
            for workload, tally, into in pair if i % 2 == 0 else pair[::-1]:
                elapsed, errors = run_op(workload, workload.traced_op, i, into)
                tally.add(elapsed, errors)
                if workload is plain:
                    busy += elapsed
            i += 1
    finally:
        tracer.uninstall()
        plain.close()
        traced.close()
    ops = i
    if name == "cli-cooking":
        main_ms = quantile(plain_tally.latencies, 50) * 1e3
    self_s = tracer.self_times()
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{name}.jsonl")

    metrics = {}
    for span in SPAN_METRICS:
        metrics[f"{span}.s"] = (self_s.get(span, 0.0) / ops, "s/op")
    parse_s = self_s.get("parser.parse_scene", 0.0)
    metrics["parser.rules_per_s"] = (
        sizes["parser.rules"] / parse_s if parse_s else 0.0, "1/s")
    for key in SIZE_METRICS:
        metrics[key] = (sizes[key] / ops, "count/op")
    for counter in ("grid.count", "ast.is_reverse_pair"):
        calls, hits = tracer.counts[counter]
        metrics[f"{counter}.calls"] = (calls / ops, "count/op")
        metrics[f"{counter}.hit_ratio"] = (hits / calls if calls else 0.0,
                                           "ratio")
    metrics["cli.interp_ms.p50"] = (interp_ms, "ms")
    metrics["cli.import_ms.p50"] = (import_ms, "ms")
    metrics["cli.main_ms.p50"] = (main_ms, "ms")
    plain_s = sum(plain_tally.latencies) / ops
    metrics["trace.untraced_op_s"] = (plain_s, "s/op")
    metrics["trace.self_sum_s"] = (sum(self_s.values()) / ops, "s/op")
    metrics["trace.overhead_s"] = (
        sum(traced_tally.latencies) / ops - plain_s, "s/op")
    return (metrics, 2 * ops, plain_tally.failed + traced_tally.failed)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cpl" / "__init__.py").is_file():
        print(f"perfbench: no src/cpl under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed = measure(args.workload, args.seed,
                                         args.seconds)
    print(json.dumps({"env": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
