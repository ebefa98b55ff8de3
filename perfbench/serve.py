"""The ``serve`` workload: cold sharded-store build, then a query script.

One round spawns a server process that builds a day-sharded store cold
through ``ShardedStudyStore.build`` (set-up) and serves it with the
stock ``QueryServer``. This process is the one client: it sends a
seeded, fixed-length, closed-loop script of impact, slices, events and
top-N queries over two keep-alive connections (run), then checks the
answers against a monolithic ``run_study`` of the same config.

The script is drawn over the store's real content: days and NSSets
from the timeline and the world's delegations, attacks from the
round's first query (``/v1/top?by=events``, itself part of the timed
script). Day popularity is skewed, and the store holds several times
more partitions than the server's 64-entry in-process partition set,
so reads run through the artifact store's fetch and decode.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple
from urllib.parse import quote

from perfbench import checks, common, layers
from repro.util.timeutil import DAY, format_ts

#: ~Two months of day partitions: 3 read phases x 61 days is about
#: three times the server's 64-entry partition set.
SHAPE = dict(n_domains=500, start="2021-03-01", end_exclusive="2021-05-01",
             attacks_per_month=400)

#: Queries in the timed script of every round (the first is the
#: top-by-events discovery query).
N_QUERIES = 800
#: Keep-alive connections of the one client process.
N_CONNECTIONS = 2
#: Query mix weights and the day-popularity skew (Zipf exponent).
MIX = (("impact", 3), ("slices", 3), ("events", 3), ("top", 1))
DAY_SKEW = 1.1
DISCOVERY = "/v1/top?by=events&n=1000000"
#: Seconds to wait for the server to exit once it has reported.
SERVER_TIMEOUT_S = 30.0


def config(seed: int, shape: Dict = SHAPE):
    from repro import WorldConfig

    return WorldConfig(seed=seed, **shape)


# -- the server process -------------------------------------------------------

def server_main(seed: int, shape: Dict, cache_dir: str,
                trace: bool) -> Dict:
    """Build the store cold, serve it, report when told to stop.

    Runs in its own interpreter and talks to the client over its
    standard streams: it writes ``{"port", "build_s"}`` once serving,
    answers ``mark`` (end of the timed script) with ``"marked"``, and
    stops on ``stop`` or end of input, returning its final report.
    """
    from repro.obs import RunTelemetry
    from repro.serve import QueryServer, QueryService, ShardedStudyStore

    recorder = layers.Layers()
    if trace:
        layers.install(recorder)
    telemetry = RunTelemetry.create()
    store = ShardedStudyStore(config(seed, shape), cache_dir,
                              telemetry=telemetry)
    t0 = time.perf_counter()
    store.build()
    build_s = time.perf_counter() - t0
    service = QueryService(store, telemetry=telemetry)
    marks = {"setup": recorder.snapshot()}

    async def main() -> None:
        server = QueryServer(service, port=0)
        await server.start()
        stop = asyncio.Event()

        def on_message() -> None:
            if sys.stdin.readline().strip() == "mark":
                marks["run"] = recorder.snapshot()
                common.send_message("marked")
            else:  # "stop", or the client is gone
                stop.set()

        loop = asyncio.get_running_loop()
        loop.add_reader(sys.stdin.fileno(), on_message)
        common.send_message({"port": server.port, "build_s": build_s})
        try:
            await stop.wait()
        finally:
            loop.remove_reader(sys.stdin.fileno())
            await server.stop()

    asyncio.run(main())
    counters = telemetry.registry.snapshot()["counters"]
    accounted = sum(v for k, v in counters.items()
                    if k.startswith("repro.serve.queries{"))
    return {"peak_rss_mb": common.peak_rss_mb(), "accounted": accounted,
            "setup": marks["setup"], "run": marks.get("run")}


# -- the query script ---------------------------------------------------------

class Catalog:
    """What the client knows about the store before the first query:
    the config's days and the world's NSSets and domains — plus the
    monolithic study the answers are checked against."""

    def __init__(self, seed: int, shape: Dict = SHAPE):
        from repro import run_study

        study = run_study(config(seed, shape))
        timeline = study.config.timeline
        self.store = study.store
        self.end = timeline.window.end
        self.days = list(range(timeline.window.start, self.end, DAY))
        self.domains_by_nsset: Dict[int, List[str]] = defaultdict(list)
        for record in study.world.directory.domains:
            self.domains_by_nsset[record.nsset_id].append(str(record.name))
        self.nssets = sorted(self.domains_by_nsset)


def _date(ts: int) -> str:
    return format_ts(ts)[:10]


def make_script(seed: int, catalog: Catalog, event_rows: Sequence[Dict],
                n_queries: int = N_QUERIES) -> List[str]:
    """The round's query targets after the discovery query; a pure
    function of the seed, the catalog and the discovered events.

    Counts are apportioned exactly — each kind gets its share of the
    mix, each day its share of the popularity — and only the order and
    the popularity ranking are drawn from the seed, so every seed asks
    for the same amount of work.
    """
    if not event_rows:
        raise RuntimeError("the store holds no events to query impact of")
    rng = random.Random(f"perfbench.serve/{seed}")
    order = list(catalog.days)
    rng.shuffle(order)
    popularity = [1.0 / (rank + 1) ** DAY_SKEW for rank in range(len(order))]
    weight = dict(zip(order, popularity))
    rows = list(event_rows)
    # An inferred start can precede the timeline (an attack running
    # over its first midnight); such rows get the least popular weight.
    row_weights = [weight.get(_row_day(row), popularity[-1])
                   for row in rows]
    kinds = _apportion([k for k, _ in MIX], [w for _, w in MIX],
                       n_queries - 1)
    rng.shuffle(kinds)
    days = {kind: _apportion(order, popularity, kinds.count(kind))
            for kind in ("slices", "events")}
    for picks in days.values():
        rng.shuffle(picks)
    spans = _apportion((1, 2, 3), (1, 1, 1), kinds.count("slices"))
    rng.shuffle(spans)
    script = []
    for kind in kinds:
        if kind == "impact":
            row = rng.choices(rows, row_weights)[0]
            domain = rng.choice(catalog.domains_by_nsset[row["nsset_id"]])
            script.append(f"/v1/impact?attack={quote(row['attack'])}"
                          f"&domain={quote(domain)}")
        elif kind == "slices":
            start = days["slices"].pop()
            end = min(start + spans.pop() * DAY, catalog.end)
            script.append(f"/v1/slices?nsset={rng.choice(catalog.nssets)}"
                          f"&start={_date(start)}&end={_date(end)}")
        elif kind == "events":
            script.append(f"/v1/events?day={_date(days['events'].pop())}")
        else:
            by = rng.choice(("companies", "victims", "events"))
            script.append(f"/v1/top?by={by}&n={rng.choice((5, 10, 25))}")
    return script


def _apportion(items: Sequence, weights: Sequence[float], n: int) -> List:
    """``n`` picks of ``items`` in exact proportion to ``weights``
    (largest remainder), in ``items`` order."""
    total = sum(weights)
    quotas = [n * w / total for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(items)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    return [item for item, count in zip(items, counts) for _ in range(count)]


def _row_day(row: Dict) -> int:
    ts = int(row["attack"].rsplit("@", 1)[1])
    return ts - ts % DAY


# -- the client ---------------------------------------------------------------

class Connection:
    """One keep-alive HTTP/1.1 connection, one request at a time."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def get(self, target: str) -> Tuple[int, bytes, float]:
        """(status, body, latency in ms) of one request."""
        t0 = time.perf_counter()
        self.writer.write(f"GET {target} HTTP/1.1\r\nHost: perfbench\r\n"
                          "\r\n".encode())
        await self.writer.drain()
        status_line = await self.reader.readline()
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        body = await self.reader.readexactly(length)
        latency_ms = (time.perf_counter() - t0) * 1000.0
        return int(status_line.split()[1]), body, latency_ms

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def _drive(conn: Connection, targets: Sequence[str], out: List):
    for target in targets:
        out.append((target,) + await conn.get(target))


async def client_round(port: int, seed: int, catalog: Catalog,
                       mark) -> Dict:
    """The timed script, then the untimed verification queries."""
    conns = [await Connection.open(port) for _ in range(N_CONNECTIONS)]
    try:
        t0 = time.perf_counter()
        status, body, first_ms = await conns[0].get(DISCOVERY)
        t1 = time.perf_counter()
        rows = json.loads(body)["rows"] if status == 200 else []
        script = make_script(seed, catalog, rows)
        answers: List[List] = [[] for _ in conns]
        t2 = time.perf_counter()
        await asyncio.gather(*[
            _drive(conn, script[i::N_CONNECTIONS], answers[i])
            for i, conn in enumerate(conns)])
        t3 = time.perf_counter()
        mark()
        day_counts = {}
        verify = []
        for day in catalog.days:
            target = f"/v1/events?day={_date(day)}"
            v_status, v_body, _ = await conns[0].get(target)
            verify.append((target, v_status, v_body, 0.0))
            if v_status == 200:
                day_counts[_date(day)] = json.loads(v_body)["n_events"]
    finally:
        for conn in conns:
            await conn.close()
    timed = [a for per_conn in answers for a in per_conn]
    return {"run_s": (t1 - t0) + (t3 - t2), "rows": rows,
            "timed": [(DISCOVERY, status, body, first_ms)] + timed,
            "verify": verify, "day_counts": day_counts}


def one_round(seed: int, trace: bool, catalog: Catalog, work_dir: str,
              shape: Dict = SHAPE) -> Dict:
    """Start a server on a fresh cache, run the script, check it."""
    cache_dir = tempfile.mkdtemp(prefix="serve-", dir=work_dir)
    proc = subprocess.Popen(
        common.child_command(server_main, seed, shape, cache_dir, trace),
        cwd=common.ROOT, env=common.child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True)
    try:
        ready = common.read_message(proc, "build the store")

        def mark() -> None:
            proc.stdin.write("mark\n")
            proc.stdin.flush()
            common.read_message(proc, "mark the end of the script")

        result = asyncio.run(client_round(ready["port"], seed, catalog,
                                          mark))
        proc.stdin.write("stop\n")
        proc.stdin.close()
        final = common.read_message(proc, "report")
        proc.wait(SERVER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        if not proc.stdin.closed:
            proc.stdin.close()
        shutil.rmtree(cache_dir, ignore_errors=True)

    answers = result["timed"] + result["verify"]
    failed = sum(1 for _, status, _, _ in answers if status != 200)
    slice_bodies = [json.loads(body) for target, status, body, _
                    in result["timed"]
                    if status == 200 and target.startswith("/v1/slices")]
    problems = (checks.slices_problems(slice_bodies, catalog.store)
                + checks.events_sum_problems(result["day_counts"],
                                             result["rows"])
                + checks.accounting_problems(final["accounted"],
                                             len(answers)))
    latencies = [ms for _, _, _, ms in result["timed"]]
    out = {"setup_s": ready["build_s"], "run_s": result["run_s"],
           "peak_rss_mb": final["peak_rss_mb"], "latencies_ms": latencies,
           "attempted": len(answers), "failed": failed,
           "problems": problems}
    if trace:
        run = layers.delta(final["run"], final["setup"])
        out["layers"] = layers.layer_metrics(run, final["setup"])
        out["handle_ms"] = run["samples"].get("serve.handle_ms", [])
        out["layers"]["trace.run_s"] = result["run_s"]
    return out
