"""Quick tests of the benchmark: a tiny run of every workload, and every
independent output check rejecting a deliberately corrupted output.

Run from the root of a checkout: ``python -m pytest perfbench/tests``.
"""

import copy
import dataclasses
import json

import pytest

from perfbench import bench, checks, layers

TINY = {
    "study": dict(n_domains=600, start="2021-03-01",
                  end_exclusive="2021-04-01", attacks_per_month=700),
    "serve": dict(n_domains=500, start="2021-03-01",
                  end_exclusive="2021-03-15", attacks_per_month=600),
    "reactive": dict(n_domains=200, start="2021-03-01",
                     end_exclusive="2021-04-01", attacks_per_month=60,
                     n_triggers=150, invalid_share=0.05, gap_max_s=1200,
                     probes_per_window=5, probe_budget=15,
                     post_attack_s=1800, capacity=16),
}


# -- tiny runs ----------------------------------------------------------------

@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = bench.measure(workload, seed=1, seconds=0, trace=False,
                           shape=TINY[workload])
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0 and len(result["rounds"]) == 1
    names = [m["name"] for m in bench.spec()["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_traced_run_reports_every_layer(workload):
    result = bench.measure(workload, seed=1, seconds=0, trace=True,
                           shape=TINY[workload])
    assert result["correct"]
    names = [m["name"] for m in bench.spec()["per_layer"]]
    assert list(result["metrics"]) == names
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["world.build_s"] > 0
    assert values["trace.run_s"] > 0
    if workload == "study":
        assert values["crawl.transport_calls"] > 0
        assert values["artifacts.get_calls"] == 0
        assert values["reactive.ticks"] == 0
    elif workload == "serve":
        assert values["artifacts.put_calls"] > 0
        assert values["serve.partitions_computed"] > 0
        assert values["serve.query_p50_ms"] > 0
        assert 0 <= values["serve.partition_hit_ratio"] <= 1
    else:
        assert values["reactive.checkpoints"] > 0
        assert values["streaming.produced"] > 0
        assert values["crawl.rows"] == 0


def test_a_failing_study_operation_is_counted_not_fatal(monkeypatch):
    from repro.core import pipeline
    from perfbench import study

    def broken(join):
        raise RuntimeError("deliberately broken analysis")

    monkeypatch.setattr(pipeline, "analyze_ports", broken)
    out = study.one_round(1, False, TINY["study"])
    assert out["attempted"] == study.OPS_PER_ROUND
    # The rendered report reads the broken analysis too.
    assert out["failed"] == 2
    assert [e.split(":")[0] for e in out["errors"]] == ["ports", "report"]
    assert out["problems"] == []


def test_layer_patches_are_undone():
    from repro.artifacts.store import ArtifactStore
    from repro.core import pipeline
    from repro.telescope.feed import RSDoSFeed

    before = (ArtifactStore.__dict__["get"], RSDoSFeed.__dict__["observe"],
              pipeline.join_datasets)
    recorder = layers.Layers()
    layers.install(recorder)
    assert pipeline.join_datasets is not before[2]
    recorder.restore()
    assert (ArtifactStore.__dict__["get"], RSDoSFeed.__dict__["observe"],
            pipeline.join_datasets) == before


# -- study checks -------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_study():
    from repro import WorldConfig, run_study

    study = run_study(WorldConfig(seed=1, **TINY["study"]))
    analyses = {name: getattr(study, name) for name in checks.ANALYSES}
    return study, analyses, study.report()


def test_study_checks_pass_on_the_program_output(tiny_study):
    study, analyses, report = tiny_study
    assert study.events
    assert checks.equation1_problems(study.events, study.store) == []
    assert checks.join_victim_problems(study.join,
                                       study.world.directory) == []
    assert checks.analyses_problems(analyses, report) == []


def _first_scored_point(events):
    for i, event in enumerate(events):
        for j, point in enumerate(event.series.points):
            if point.impact is not None:
                return i, j
    raise AssertionError("no event point with an impact")


def test_equation1_rejects_a_wrong_impact(tiny_study):
    study = tiny_study[0]
    events = copy.deepcopy(study.events)
    i, j = _first_scored_point(events)
    events[i].series.points[j].impact *= 1.5
    assert checks.equation1_problems(events, study.store)


def test_equation1_rejects_a_dropped_bucket(tiny_study):
    study = tiny_study[0]
    events = copy.deepcopy(study.events)
    i, j = _first_scored_point(events)
    del events[i].series.points[j]
    assert checks.equation1_problems(events, study.store)


def test_join_check_rejects_a_victim_that_is_no_nameserver(tiny_study):
    study = tiny_study[0]
    join = copy.deepcopy(study.join)
    victim = next(c for c in join.classified if c.klass.is_dns)
    victim.attack.victim_ip = 1  # 0.0.0.1 serves no delegation
    assert checks.join_victim_problems(join, study.world.directory)


@pytest.mark.parametrize("name", checks.ANALYSES)
def test_analyses_check_rejects_an_empty_analysis(tiny_study, name):
    analyses, report = dict(tiny_study[1]), tiny_study[2]
    analyses[name] = type(analyses[name])()
    assert checks.analyses_problems(analyses, report)


def test_analyses_check_rejects_an_empty_report(tiny_study):
    assert checks.analyses_problems(tiny_study[1], "  \n")


# -- serve checks -------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_service(tmp_path_factory):
    from repro import WorldConfig, run_study
    from repro.serve import QueryService, ShardedStudyStore

    config = WorldConfig(seed=1, **TINY["serve"])
    store = ShardedStudyStore(config, str(tmp_path_factory.mktemp("serve")))
    store.build()
    return QueryService(store), run_study(config)


def _get(service, target):
    response = service.handle(target)
    assert response.status == 200, (target, response.body)
    return json.loads(response.to_bytes())


def _busy_nsset(study):
    return max(nsset for nsset, _ in study.store.daily)


def test_serve_checks_pass_on_the_program_output(tiny_service):
    service, study = tiny_service
    body = _get(service, f"/v1/slices?nsset={_busy_nsset(study)}")
    assert body["points"]
    assert checks.slices_problems([body], study.store) == []
    rows = _get(service, "/v1/top?by=events&n=100000")["rows"]
    days = [d for d in service.store.days()]
    counts = {str(d): _get(service, f"/v1/events?day={d}")["n_events"]
              for d in days}
    assert checks.events_sum_problems(counts, rows) == []


def test_slices_check_rejects_a_wrong_value(tiny_service):
    service, study = tiny_service
    body = _get(service, f"/v1/slices?nsset={_busy_nsset(study)}")
    body["points"][0]["avg_rtt"] += 1e-9
    assert checks.slices_problems([body], study.store)


def test_slices_check_rejects_a_missing_day(tiny_service):
    service, study = tiny_service
    body = _get(service, f"/v1/slices?nsset={_busy_nsset(study)}")
    del body["points"][0]
    assert checks.slices_problems([body], study.store)


def test_events_sum_check_rejects_a_lost_event():
    rows = [{"attack": "a"}, {"attack": "b"}]
    assert checks.events_sum_problems({"2021-03-01": 1}, rows)
    assert checks.events_sum_problems({"2021-03-01": 1,
                                       "2021-03-02": 1}, rows) == []


def test_accounting_check_rejects_an_unaccounted_query():
    assert checks.accounting_problems(799, 800)
    assert checks.accounting_problems(800, 800) == []


# -- reactive checks ----------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_storm():
    from repro import WorldConfig, build_world
    from repro.reactive import (ReactiveService, fast_transport,
                                synthetic_triggers)

    shape = TINY["reactive"]
    world = build_world(WorldConfig(
        seed=1, start=shape["start"], end_exclusive=shape["end_exclusive"],
        n_domains=shape["n_domains"], n_selfhosted_providers=10,
        n_filler_providers=5, attacks_per_month=shape["attacks_per_month"]))
    triggers = synthetic_triggers(world, shape["n_triggers"], seed=1,
                                  invalid_share=shape["invalid_share"],
                                  gap_max_s=shape["gap_max_s"])
    report = ReactiveService(
        world, probes_per_window=shape["probes_per_window"],
        post_attack_s=shape["post_attack_s"],
        probe_budget=shape["probe_budget"], feed_capacity=shape["capacity"],
        backpressure="block", transport=fast_transport(seed=1)
    ).run(triggers)
    return world, triggers, report, shape


def test_reactive_checks_pass_on_the_program_output(tiny_storm):
    world, triggers, report, shape = tiny_storm
    probes = report.store.probes
    assert report.counts["invalid"] > 0 and report.counts["done"] > 0
    assert checks.trigger_accounting_problems(triggers, report) == []
    assert checks.budget_problems(probes, world.directory,
                                  shape["probe_budget"]) == []
    assert checks.probe_ns_problems(probes, world.directory) == []
    assert checks.tail_problems(report.campaigns, probes,
                                shape["post_attack_s"]) == []


def test_trigger_accounting_rejects_a_silent_drop(tiny_storm):
    _, triggers, report, _ = tiny_storm
    assert checks.trigger_accounting_problems(
        list(triggers) + [triggers[0]], report)


def test_trigger_accounting_rejects_a_miscounted_dead_letter(tiny_storm):
    _, triggers, report, _ = tiny_storm
    damaged = copy.copy(report)
    damaged.counts = dict(report.counts, invalid=report.counts["invalid"] - 1,
                          ignored=report.counts["ignored"] + 1)
    assert checks.trigger_accounting_problems(triggers, damaged)


def test_budget_check_rejects_an_overspent_window(tiny_storm):
    world, _, report, shape = tiny_storm
    probes = report.store.probes
    assert checks.budget_problems(probes, world.directory,
                                  shape["probe_budget"] - 10)


def test_budget_check_rejects_a_partial_domain_probe(tiny_storm):
    world, _, report, shape = tiny_storm
    probes = list(report.store.probes)
    multi = next(p for p in probes
                 if len(world.directory[p.domain_id]
                        .delegation.nameserver_ips) > 1)
    probes.remove(multi)
    assert checks.budget_problems(probes, world.directory,
                                  shape["probe_budget"])


def test_probe_ns_check_rejects_a_foreign_nameserver(tiny_storm):
    world, _, report, _ = tiny_storm
    probes = list(report.store.probes)
    probes[0] = dataclasses.replace(probes[0], ns_ip=1)
    assert checks.probe_ns_problems(probes, world.directory)


def test_tail_check_rejects_a_campaign_cut_short(tiny_storm):
    _, _, report, shape = tiny_storm
    probes = report.store.probes
    done = next(c for c in report.campaigns if c.state == "done")
    last = max(p.ts for p in probes if p.domain_id in done.domain_ids
               and p.ts < done.ends_at)
    cut = [p for p in probes if not (p.ts >= last - last % 300
                                     and p.domain_id in done.domain_ids)]
    assert checks.tail_problems(report.campaigns, cut,
                                shape["post_attack_s"])
    assert checks.tail_problems(report.campaigns, probes,
                                shape["post_attack_s"] - 300)
