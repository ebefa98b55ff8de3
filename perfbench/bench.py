"""One benchmark run: repeat a workload's rounds, then summarise them.

:func:`measure` is what ``perfbench/run.py`` prints and what the quick
tests drive with tiny shapes. End-to-end metrics are medians over the
run's rounds, with times in reference seconds (the measured time
scaled by the calibration kernel, see :mod:`perfbench.common`);
per-layer metrics come from a traced run (``trace``), whose wrappers
cost time, so its ``run_s`` is reported as ``trace.run_s`` and never
as an end-to-end figure.
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import common, reactive, serve, study

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("study", "serve", "reactive")
#: Per-layer times on the simulated clock, which machine speed does not
#: move.
SIMULATED = frozenset({"reactive.trigger_p99_s"})


def spec() -> Dict:
    with open(SPEC) as fp:
        return json.load(fp)


def run_rounds(workload: str, seed: int, seconds: float, trace: bool,
               shape: Optional[Dict] = None) -> List[Dict]:
    """The rounds of one run (``shape`` overrides the workload's)."""
    if workload in ("study", "reactive"):
        module = study if workload == "study" else reactive
        shape = shape or module.SHAPE
        return common.repeat_rounds(seconds, lambda i: common.in_child(
            module.one_round, common.round_seed(seed, i), trace, shape))
    if workload == "serve":
        shape = shape or serve.SHAPE
        catalog = serve.Catalog(seed, shape)
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        work_dir = tempfile.mkdtemp(prefix="run-", dir=scratch)
        try:
            return common.repeat_rounds(seconds, lambda i: serve.one_round(
                seed, trace, catalog, work_dir, shape))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
            try:
                scratch.rmdir()
            except OSError:  # another run still has its directory there
                pass
    raise ValueError(f"unknown workload {workload!r}")


def end_to_end(rounds: List[Dict]) -> Dict[str, float]:
    """Medians over rounds; times in reference seconds."""
    def times(key):
        return [r[key] * common.reference_scale(r) for r in rounds]

    return {"setup_s": statistics.median(times("setup_s")),
            "run_s": statistics.median(times("run_s")),
            "peak_rss_mb": common.median_of(rounds, "peak_rss_mb")}


def per_layer(rounds: List[Dict]) -> Dict[str, float]:
    """Medians over rounds of every layer metric, plus the serve
    client's latency figures over all of the run's queries. Times
    (``_s`` and ``_ms``) are in reference seconds, like the end-to-end
    ones, but for simulated time; ``trace.calibration_s`` is the
    kernel's own measured median."""
    def value(r, name):
        v = r["layers"].get(name, 0.0)
        if name.endswith(("_s", "_ms")) and name not in SIMULATED:
            return v * common.reference_scale(r)
        return v

    names = sorted({k for r in rounds for k in r["layers"]})
    out = {name: statistics.median(value(r, name) for r in rounds)
           for name in names}
    out["trace.calibration_s"] = common.median_of(rounds, "calibration_s")
    latencies = sorted(ms * common.reference_scale(r) for r in rounds
                       for ms in r.get("latencies_ms", ()))
    if latencies:
        handle = [ms * common.reference_scale(r) for r in rounds
                  for ms in r.get("handle_ms", ())]
        p50 = statistics.median(latencies)
        out["serve.query_p50_ms"] = p50
        out["serve.query_p99_ms"] = common.percentile(latencies, 0.99)
        out["serve.http_ms"] = p50 - (statistics.median(handle)
                                      if handle else 0.0)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            shape: Optional[Dict] = None) -> Dict:
    """The run's result object (the benchmark's last output line)."""
    rounds = run_rounds(workload, seed, seconds, trace, shape)
    problems = [p for r in rounds for p in r["problems"]]
    values = per_layer(rounds) if trace else end_to_end(rounds)
    section = spec()["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in section:
        name = entry["name"]
        if name not in values and not trace:
            raise KeyError(f"workload {workload} measured no {name}")
        # A layer this workload never calls reads 0.
        metrics[name] = {"value": values.get(name, 0.0),
                         "unit": entry["unit"]}
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics,
            "rounds": [{k: r[k] for k in ("setup_s", "run_s",
                                          "calibration_s")}
                       for r in rounds],
            "errors": [e for r in rounds for e in r.get("errors", ())],
            "problems": problems}
