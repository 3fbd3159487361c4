#!/usr/bin/env python3
"""Regenerate perfbench/baseline.json: every metric of every workload.

    python3 perfbench/baseline.py

Runs ``run.py`` once per workload and seed untraced, and once per workload
traced, each for BENCHMARK.json's ``run_seconds``, one process at a time,
and records the median of each end-to-end metric, the per-layer metrics of
the traced run, the line count of ``src/expfam`` and the machine.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("inference", "intervals", "cli")
SEEDS = range(1, 6)
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    notes = [line[2:] for line in lines if line.startswith("# ")]
    return json.loads(lines[-1]), notes


def machine():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "expfam").glob("*.py"))


def main():
    seeds = list(SEEDS)
    record = {"machine": machine(), "src_lines": src_lines(), "seeds": seeds,
              "workloads": {}}
    for workload in WORKLOADS:
        runs = [bench(workload, seed, 0) for seed in seeds]
        traced, notes = bench(workload, seeds[0], 1)
        end_to_end = {}
        for name, first in runs[0][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            end_to_end[name] = {"median": statistics.median(values), "unit": first["unit"],
                                "min": min(values), "max": max(values)}
        record["workloads"][workload] = {
            "end_to_end": end_to_end,
            "attempted": [r["attempted"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "correct": all(r["correct"] for r, _ in runs),
            "notes": {str(seed): n for seed, (_, n) in zip(seeds, runs)},
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_notes": notes,
        }
        print(f"{workload}: done", file=sys.stderr)
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
