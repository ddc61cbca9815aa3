#!/usr/bin/env python3
"""Run the benchmark over seeds 1-10 and summarise it as JSON.

    python3 perfbench/baseline.py > perfbench/baseline.json

For every workload in ``BENCHMARK.json``, one run at a time, it runs
``run.py --trace 0`` once per seed for ``run_seconds``, and ``--trace 1`` on
the first TRACED seeds.  For every metric it prints the median and
quartiles, and for end-to-end metrics the spread, (q3 - q1) / median.
Progress goes to stderr.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACED = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} operations failed\n"
                         f"{done.stderr}")
    return result["metrics"]


def summarise(runs: list[dict], spread: bool) -> dict:
    summary = {}
    for name in runs[0]:
        values = [metrics[name]["value"] for metrics in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry = {"unit": runs[0][name]["unit"], "median": median,
                 "values": values, "q1": q1, "q3": q3}
        if spread and median:
            entry["spread"] = (q3 - q1) / median
        summary[name] = entry
    return summary


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    report = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        plain = []
        for seed in SEEDS:
            plain.append(run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {plain[-1]}", file=sys.stderr)
        traced = [run(workload, seed, seconds, 1) for seed in SEEDS[:TRACED]]
        report["workloads"][workload] = {
            "end_to_end": summarise(plain, spread=True),
            "per_layer": summarise(traced, spread=False),
        }
    json.dump(report, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
