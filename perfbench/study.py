"""The ``study`` workload: a cold batch study, config to rendered report.

One round builds the world from the config (set-up), then runs the
default ``repro report`` path over it — telescope, crawl, join, events,
the nine analyses and the rendered report — on the object ingest path,
in one process, with no artifact cache (run). Artifacts, serve and
streaming never run here.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from perfbench import checks, common, layers

#: Two months, with enough attacks that telescope inference is a
#: visible share next to the crawl. 2500 domains put about 90 crawl
#: measurements on TransIP's NSSet during the scripted March 2021 attack,
#: whose ~12% failure rate then makes at least one failing event (and so
#: a non-empty §6.3.1 successful-attack port mix) certain in practice;
#: at 1000 domains about one world in thirty had none.
SHAPE = dict(n_domains=2500, start="2021-03-01", end_exclusive="2021-05-01",
             attacks_per_month=1200)

#: Operations per round: the world build, the pipeline run, the nine
#: analyses and the report.
OPS_PER_ROUND = 2 + len(checks.ANALYSES) + 1


def config(seed: int, shape: Dict = SHAPE):
    from repro import WorldConfig

    return WorldConfig(seed=seed, **shape)


def one_round(seed: int, trace: bool, shape: Dict = SHAPE) -> Dict:
    """One cold study, in its own process.

    Each of the round's operations that raises counts as failed, and so
    does every later one that needs its result; the round goes on and
    reports, and its checks look only at what did not fail.
    """
    recorder = layers.Layers()
    if trace:
        layers.install(recorder)
    from repro import build_world, run_study  # after install: wrapped

    errors: List[str] = []
    failed = object()

    def attempt(name: str, fn: Callable):
        try:
            return fn()
        except Exception as exc:  # a failed operation, not a crash
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return failed

    clock = time.perf_counter
    t0 = clock()
    world = attempt("build_world", lambda: build_world(config(seed, shape)))
    t1 = clock()
    study = (attempt("run_study", lambda: run_study(world=world))
             if world is not failed else failed)
    t2 = clock()
    analyses, report = {}, failed
    if study is not failed:
        for name in checks.ANALYSES:
            value = attempt(name, lambda: getattr(study, name))
            if value is not failed:
                analyses[name] = value
        report = attempt("report", study.report)
    t3 = clock()
    rss = common.peak_rss_mb()
    recorder.restore()

    done = ((world is not failed) + (study is not failed) + len(analyses)
            + (report is not failed))
    problems = []
    if study is not failed:
        problems += (checks.equation1_problems(study.events, study.store)
                     + checks.join_victim_problems(study.join,
                                                   study.world.directory))
        if len(analyses) == len(checks.ANALYSES) and report is not failed:
            problems += checks.analyses_problems(analyses, report)
    out = {"setup_s": t1 - t0, "run_s": t3 - t1, "peak_rss_mb": rss,
           "attempted": OPS_PER_ROUND, "failed": OPS_PER_ROUND - done,
           "errors": errors, "problems": problems}
    if trace:
        metrics = layers.layer_metrics(recorder.snapshot())
        covered = (metrics["telescope.observe_s"] + metrics["crawl.run_s"]
                   + metrics["core.join_s"] + metrics["core.events_s"])
        metrics["core.analyses_s"] = t3 - t2
        metrics["engine.other_s"] = (t2 - t1) - covered
        metrics["trace.run_s"] = t3 - t1
        out["layers"] = metrics
    return out
