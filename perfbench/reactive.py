"""The ``reactive`` workload: a bursty trigger storm through §4.3.1.

One round builds the world and generates a seeded synthetic storm of
bursty triggers against its nameservers (set-up), then drives it
through ``ReactiveService`` the way ``repro reactive`` does, with the
fast transport (run). The trigger topic is bounded with ``block``
backpressure and the probe budget is tight enough to force late,
throttled and shed campaigns. This exercises streaming, admission,
probing and the tick checkpoints, and nothing else.
"""

from __future__ import annotations

import time
from typing import Dict

from perfbench import checks, common, layers

#: World and storm shape. ``repro reactive`` defaults, made bursty.
SHAPE = dict(n_domains=600, start="2021-03-01", end_exclusive="2021-04-01",
             attacks_per_month=120, n_triggers=1000, invalid_share=0.02,
             gap_max_s=1200, probes_per_window=5, probe_budget=40,
             post_attack_s=3600, capacity=64)


def one_round(seed: int, trace: bool, shape: Dict = SHAPE) -> Dict:
    """One storm, in its own process."""
    recorder = layers.Layers()
    if trace:
        layers.install(recorder)
    from repro import WorldConfig, build_world  # after install: wrapped
    from repro.reactive import (ReactiveService, fast_transport,
                                synthetic_triggers)

    n_domains = shape["n_domains"]
    config = WorldConfig(
        seed=seed, start=shape["start"],
        end_exclusive=shape["end_exclusive"], n_domains=n_domains,
        n_selfhosted_providers=max(10, n_domains // 30),
        n_filler_providers=max(5, n_domains // 75),
        attacks_per_month=shape["attacks_per_month"])
    clock = time.perf_counter
    t0 = clock()
    world = build_world(config)
    triggers = synthetic_triggers(world, shape["n_triggers"], seed=seed,
                                  invalid_share=shape["invalid_share"],
                                  gap_max_s=shape["gap_max_s"])
    transport = fast_transport(seed=seed)
    if trace:
        transport = recorder.timed("reactive.transport", transport)
    service = ReactiveService(
        world, probes_per_window=shape["probes_per_window"],
        post_attack_s=shape["post_attack_s"],
        probe_budget=shape["probe_budget"],
        feed_capacity=shape["capacity"], backpressure="block",
        transport=transport)
    t1 = clock()
    report = service.run(triggers)
    t2 = clock()
    rss = common.peak_rss_mb()
    recorder.restore()

    directory = world.directory
    probes = report.store.probes
    problems = (checks.trigger_accounting_problems(triggers, report)
                + checks.budget_problems(probes, directory,
                                         shape["probe_budget"])
                + checks.probe_ns_problems(probes, directory)
                + checks.tail_problems(report.campaigns, probes,
                                       shape["post_attack_s"]))
    c = report.counts
    out = {"setup_s": t1 - t0, "run_s": t2 - t1, "peak_rss_mb": rss,
           "attempted": len(triggers), "failed": c["unaccounted"],
           "problems": problems}
    if trace:
        snap = recorder.snapshot()
        metrics = layers.layer_metrics(snap)
        metrics.update({
            "reactive.probes": c["probes"],
            "reactive.transport_s": snap["seconds"].get(
                "reactive.transport", 0.0),
            "reactive.admitted": c["admitted"],
            "reactive.late": c["late"],
            "reactive.throttled": c["throttled"],
            "reactive.shed": c["shed"],
            "reactive.trigger_p99_s": report.trigger_latency_p99_s or 0,
            "trace.run_s": t2 - t1,
        })
        out["layers"] = metrics
    return out
