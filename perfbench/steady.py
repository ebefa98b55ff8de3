"""Steadiness check: two interleaved sets of runs per workload.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--runs 10] [--json PATH]

Runs last ``run_seconds`` of ``BENCHMARK.json``. Run ``i`` of every
workload is made once for set A (seed ``1 + i``) and once for set B
(seed ``1 + runs + i``), alternating which set goes first, so both sets
see the same stretches of machine noise. For
every end-to-end metric it prints each set's median and quartiles,
their spread (interquartile distance over the median) and the ratio of
the two medians, plus each set's failed share. ``--json`` also writes
every measured value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("study", "serve", "reactive")
SEED_BASE = 1


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(results: dict) -> str:
    lines = []
    for workload, sets in results.items():
        lines.append(f"{workload}:")
        names = list(sets["A"][0]["metrics"])
        for name in names:
            row = [f"  {name:<12}"]
            medians = {}
            for label in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[label]]
                q1, q2, q3 = quartiles(values)
                medians[label] = q2
                row.append(f"{label}: median {q2:.4g} [{q1:.4g}, {q3:.4g}]"
                           f" spread {(q3 - q1) / q2:.3f}")
            row.append(f"B/A {medians['B'] / medians['A']:.3f}")
            lines.append("  ".join(row))
        for label in ("A", "B"):
            attempted = sum(r["attempted"] for r in sets[label])
            failed = sum(r["failed"] for r in sets[label])
            lines.append(f"  set {label}: failed {failed}/{attempted}, "
                         f"{len(sets[label])} runs")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--json", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least two runs per set")
    with open(ROOT / "BENCHMARK.json") as fp:
        seconds = json.load(fp)["run_seconds"]
    results = {w: {"A": [], "B": []} for w in WORKLOADS}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for workload in WORKLOADS:
            for label in order:
                seed = SEED_BASE + i + (args.runs if label == "B" else 0)
                result = run_once(workload, seed, seconds)
                result["seed"] = seed
                results[workload][label].append(result)
                print(f"run {i} {workload} set {label} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
    print(summarize(results))
    if args.json:
        with open(args.json, "w") as fp:
            json.dump(results, fp, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
