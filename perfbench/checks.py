"""Output checks computed apart from the program.

Every check takes the program's outputs plus what it needs to recompute
them, and returns a list of problems (empty when the output holds).
Each recomputation reads only public data — store aggregates, the
world's delegations, the generated inputs — and restates the method
the paper defines, so a check that passes says the output is right, not
merely that it matches an earlier run.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence, Set

from repro.util.timeutil import (DAY, FIVE_MINUTES, day_start, format_ts,
                                  parse_ts)

#: The study's nine analyses (the ``Study`` attributes the report reads).
ANALYSES = ("monthly", "ports", "successful_ports", "failures", "impact",
            "correlation", "resilience", "top_companies", "visibility")

#: The Equation-1 baseline falls back this many days past the day
#: before when that day holds no clean aggregate (§4.1, impaired data).
BASELINE_FALLBACK_DAYS = 7

#: Problems listed per check before the rest are only counted.
MAX_LISTED = 5


def _report(name: str, problems: List[str]) -> List[str]:
    if len(problems) <= MAX_LISTED:
        return [f"{name}: {p}" for p in problems]
    listed = [f"{name}: {p}" for p in problems[:MAX_LISTED]]
    return listed + [f"{name}: ... {len(problems) - MAX_LISTED} more"]


def _avg_rtt(agg):
    """Mean RTT of answered queries, from the aggregate's public sums."""
    if agg is None or not agg.ok_n:
        return None
    return agg.rtt_sum / agg.ok_n


def _ns_ips(record) -> Set[int]:
    return {ip for _, addrs in record.delegation.ns_addrs for ip in addrs}


# -- study --------------------------------------------------------------------

def equation1_problems(events: Sequence, store) -> List[str]:
    """Every event point's impact is the bucket's average RTT over the
    day-before average RTT (Equation 1), and every measured bucket of
    the attack window is a point."""
    buckets_of: Dict[int, List[int]] = defaultdict(list)
    for nsset_id, ts in store.buckets:
        buckets_of[nsset_id].append(ts)
    problems = []
    for event in events:
        nsset = event.nsset_id
        attack = event.attack
        day0 = day_start(attack.start)
        baseline = None
        for back in range(1, 2 + BASELINE_FALLBACK_DAYS):
            baseline = _avg_rtt(store.day_aggregate(nsset, day0 - back * DAY))
            if baseline is not None:
                break
        if baseline is not None and baseline <= 0:
            baseline = None
        first = attack.start - attack.start % FIVE_MINUTES
        expected_ts = sorted(ts for ts in buckets_of[nsset]
                             if first <= ts < attack.end)
        got_ts = [p.ts for p in event.series.points]
        if got_ts != expected_ts:
            problems.append(f"event {attack.victim_ip}@{attack.start} "
                            f"nsset {nsset}: points at {len(got_ts)} "
                            f"buckets, store has {len(expected_ts)}")
            continue
        for point in event.series.points:
            avg = _avg_rtt(store.bucket_aggregate(nsset, point.ts))
            want = (avg / baseline if avg is not None
                    and baseline is not None else None)
            if point.impact != want:
                problems.append(f"event {attack.victim_ip}@{attack.start} "
                                f"nsset {nsset} bucket {point.ts}: impact "
                                f"{point.impact!r}, Equation 1 gives "
                                f"{want!r}")
    return _report("equation1", problems)


def join_victim_problems(join, directory) -> List[str]:
    """Every DNS-classified join record's victim is a nameserver IP of
    one of the world's delegations."""
    ns_ips: Set[int] = set()
    for record in directory.domains:
        ns_ips |= _ns_ips(record)
    problems = [f"{c.attack.victim_ip}@{c.attack.start} classified "
                f"{c.klass.name} is no nameserver"
                for c in join.classified
                if c.klass.is_dns and c.attack.victim_ip not in ns_ips]
    if not any(c.klass.is_dns for c in join.classified):
        problems.append("no DNS-classified attack at all")
    return _report("join_victims", problems)


def _is_empty(name: str, value) -> bool:
    if value is None:
        return True
    if name == "monthly":
        return not value.rows or value.total_attacks == 0
    if name in ("ports", "successful_ports"):
        return value.n_attacks == 0
    if name in ("failures", "impact", "correlation"):
        return value.n_events == 0
    if name == "resilience":
        return not value.by_anycast
    if name == "visibility":
        return value.n_truth == 0
    return len(value) == 0


def analyses_problems(analyses: Mapping[str, object],
                      report: str) -> List[str]:
    """All nine analyses hold data, and the report renders."""
    problems = [f"{name} is empty" for name in ANALYSES
                if _is_empty(name, analyses.get(name))]
    if not report.strip():
        problems.append("the rendered report is empty")
    return _report("analyses", problems)


# -- serve --------------------------------------------------------------------

def slices_problems(bodies: Iterable[Mapping], store) -> List[str]:
    """``/v1/slices`` points equal the day aggregates of a monolithic
    study of the same config: one point per day with data, same
    values."""
    problems = []
    for body in bodies:
        nsset = body["nsset_id"]
        start = parse_ts(body["start"])
        end = parse_ts(body["end"])
        points = {p["day"]: p for p in body["points"]}
        day = day_start(start)
        while day < end:
            agg = store.day_aggregate(nsset, day)
            key = format_ts(day)[:10]
            got = points.pop(key, None)
            if agg is None:
                if got is not None:
                    problems.append(f"nsset {nsset} {key}: served a point "
                                    "the study has no data for")
            elif got is None:
                problems.append(f"nsset {nsset} {key}: point missing")
            else:
                want = {"n": agg.n, "avg_rtt": _avg_rtt(agg),
                        "failure_rate": ((agg.n - agg.ok_n) / agg.n
                                         if agg.n else 0.0),
                        "timeouts": agg.timeout_n,
                        "servfails": agg.servfail_n}
                diff = sorted(k for k, v in want.items() if got[k] != v)
                if diff:
                    problems.append(f"nsset {nsset} {key}: {diff} differ")
            day += DAY
        for key in points:
            problems.append(f"nsset {nsset} {key}: point outside range")
    return _report("slices", problems)


def events_sum_problems(day_counts: Mapping[str, int],
                        top_rows: Sequence) -> List[str]:
    """Per-day ``/v1/events`` counts sum to the ``top?by=events`` rows."""
    total = sum(day_counts.values())
    if total != len(top_rows):
        return _report("events_sum", [f"days sum to {total} events, "
                                      f"top lists {len(top_rows)}"])
    return []


def accounting_problems(accounted: int, sent: int) -> List[str]:
    """The ``repro.serve.queries`` counters sum to the queries sent."""
    if accounted != sent:
        return _report("query_accounting", [f"server counted {accounted} "
                                            f"queries, client sent {sent}"])
    return []


# -- reactive -----------------------------------------------------------------

def is_damaged(trigger) -> bool:
    """A trigger the schema must reject: negative packets, an empty
    window, or a non-finite peak rate."""
    return (trigger.n_packets < 0 or trigger.end <= trigger.start
            or not math.isfinite(trigger.max_ppm))


def trigger_accounting_problems(triggers: Sequence, report) -> List[str]:
    """``triggers = feed_shed + invalid + ignored + done + shed``, with
    done and shed counted from the campaigns and invalid from the
    triggers themselves."""
    c = report.counts
    done = sum(1 for x in report.campaigns if x.state == "done")
    shed = sum(1 for x in report.campaigns if x.state == "shed")
    invalid = sum(1 for t in triggers if is_damaged(t))
    problems = []
    if invalid != c["invalid"]:
        problems.append(f"{invalid} damaged triggers, {c['invalid']} "
                        "dead-lettered")
    total = c["feed_shed"] + invalid + c["ignored"] + done + shed
    if total != len(triggers):
        problems.append(f"{len(triggers)} triggers, {total} accounted "
                        f"(feed_shed={c['feed_shed']} invalid={invalid} "
                        f"ignored={c['ignored']} done={done} shed={shed})")
    return _report("trigger_accounting", problems)


def budget_problems(probes: Sequence, directory, budget: int) -> List[str]:
    """Domain-probes per 5-minute window stay within the budget.

    One domain-probe writes one record per nameserver of the domain,
    so records per (time, domain) divided by its nameserver count is
    the exact number of domain-probes there.
    """
    records: Dict[tuple, int] = defaultdict(int)
    for p in probes:
        records[(p.ts, p.domain_id)] += 1
    per_window: Dict[int, int] = defaultdict(int)
    problems = []
    for (ts, domain_id), n in records.items():
        n_ns = len(_ns_ips(directory[domain_id]))
        if n % n_ns:
            problems.append(f"domain {domain_id} at {ts}: {n} records for "
                            f"{n_ns} nameservers")
        per_window[ts - ts % FIVE_MINUTES] += n // n_ns
    problems += [f"window {w}: {n} domain-probes > budget {budget}"
                 for w, n in sorted(per_window.items()) if n > budget]
    return _report("probe_budget", problems)


def probe_ns_problems(probes: Sequence, directory) -> List[str]:
    """Every probe's nameserver IP belongs to the probed domain."""
    cache: Dict[int, Set[int]] = {}
    problems = []
    for p in probes:
        ips = cache.get(p.domain_id)
        if ips is None:
            ips = cache[p.domain_id] = _ns_ips(directory[p.domain_id])
        if p.ns_ip not in ips:
            problems.append(f"probe at {p.ts} of domain {p.domain_id} hit "
                            f"{p.ns_ip}, not one of its nameservers")
    return _report("probe_ns", problems)


def tail_problems(campaigns: Sequence, probes: Sequence,
                  post_attack_s: int) -> List[str]:
    """Every done campaign ends at the attack's end plus the post-attack
    tail, and probes one of its domains in its last window."""
    probed = {(p.ts - p.ts % FIVE_MINUTES, p.domain_id) for p in probes}
    problems = []
    for c in campaigns:
        if c.state != "done":
            continue
        if c.ends_at != c.attack.end + post_attack_s:
            problems.append(f"{c.key} ends at {c.ends_at}, attack end + "
                            f"tail is {c.attack.end + post_attack_s}")
            continue
        last = (c.ends_at - 1) - (c.ends_at - 1) % FIVE_MINUTES
        if not any((last, d) in probed for d in c.domain_ids):
            problems.append(f"{c.key}: no probe in its last window {last}")
    return _report("probe_tail", problems)
