"""Per-layer tracing for the traced run (``--trace 1``).

Nothing here lives inside the program: :func:`install` wraps the public
entry points of each ``repro.*`` layer from the outside, and every
wrapper adds its call count and elapsed time to one :class:`Layers`
recorder per process. Wrapped calls nest (the crawl calls the world's
transport, a cache fetch calls the artifact store's ``get``), so a
layer's time includes the layers it calls; the derived metrics in
:func:`layer_metrics` subtract where a metric is defined as self time.

The untraced run installs nothing, so its timings carry none of this
overhead; ``trace.run_s`` reports the traced round time beside them.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional
from urllib.parse import urlsplit

#: The endpoints whose handle time is reported per endpoint.
ENDPOINTS = ("impact", "slices", "events", "top")


class Layers:
    """Call counts, busy seconds, counters and samples of one process."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------------

    def timed(self, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to add its calls and seconds under ``name``;
        ``after(result, args, kwargs)`` records output counts."""
        calls, seconds = self.calls, self.seconds
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t0
                calls[name] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def snapshot(self) -> Dict:
        """A plain, picklable copy of everything recorded so far."""
        return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()}}

    # -- patching -------------------------------------------------------------

    def patch_method(self, owner: type, attr: str,
                     wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (a function or classmethod) by
        ``wrap(function)``; :meth:`restore` undoes it."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrap(raw.__func__)))
        else:
            setattr(owner, attr, wrap(raw))
        self._undo.append(functools.partial(setattr, owner, attr, raw))

    def patch_function(self, fn: Callable,
                       wrap: Callable[[Callable], Callable]) -> None:
        """Replace the module-level function ``fn`` by ``wrap(fn)`` in
        every loaded ``repro`` module that imported it by name."""
        wrapped = wrap(fn)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        functools.partial(setattr, module, attr, fn))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(layers: Layers) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from repro.artifacts.cache import PhaseCache
    from repro.artifacts.store import ArtifactStore
    import repro.core.pipeline  # noqa: F401 - binds the names patched below
    from repro.core.events import extract_events
    from repro.core.join import join_datasets
    from repro.openintel.platform import OpenIntelPlatform
    from repro.reactive.service import CampaignWorker
    from repro.serve.service import QueryService
    from repro.serve.store import ShardedStudyStore
    from repro.streaming.topic import Topic
    from repro.telescope.feed import RSDoSFeed
    from repro.world.simulation import World, build_world

    counts = layers.counts

    def timed(name: str, count: Optional[str] = None,
              size: Optional[Callable] = None):
        """A wrap that times calls under ``name`` and, given ``count``,
        adds ``size(result, args, kwargs)`` to that counter."""
        after = None
        if count is not None:
            def after(result, args, kwargs):
                counts[count] += size(result, args, kwargs)
        return lambda fn: layers.timed(name, fn, after)

    layers.patch_function(build_world, timed("world.build"))
    layers.patch_method(RSDoSFeed, "observe",
                        lambda fn: _observe_wrapper(layers, fn))
    layers.patch_method(OpenIntelPlatform, "run_parallel", timed(
        "crawl.run", "crawl.rows", lambda store, a, k: store.n_measurements))
    layers.patch_method(World, "transport", timed("crawl.transport"))
    layers.patch_function(join_datasets, timed("core.join"))
    layers.patch_function(extract_events, timed(
        "core.events", "core.events", lambda events, a, k: len(events)))
    layers.patch_method(ArtifactStore, "get", timed(
        "artifacts.get", "artifacts.bytes_read",
        lambda data, a, k: len(data) if data else 0))
    layers.patch_method(ArtifactStore, "put", timed(
        "artifacts.put", "artifacts.bytes_written",
        lambda result, a, k: len(k["data"] if "data" in k else a[2])))
    layers.patch_method(PhaseCache, "fetch", timed("artifacts.fetch"))
    layers.patch_method(PhaseCache, "save", timed("artifacts.save"))
    layers.patch_method(ShardedStudyStore, "build", timed(
        "serve.build", "serve.partitions_computed",
        lambda report, a, k: report.n_computed))
    layers.patch_method(ShardedStudyStore, "load_day",
                        lambda fn: _load_day_wrapper(layers, fn))
    layers.patch_method(QueryService, "handle",
                        lambda fn: _handle_wrapper(layers, fn))
    layers.patch_method(CampaignWorker, "run_tick", timed("reactive.tick"))
    layers.patch_method(CampaignWorker, "checkpoint_now",
                        timed("reactive.checkpoint"))
    layers.patch_method(Topic, "produce",
                        lambda fn: _produce_wrapper(layers, fn))


def _observe_wrapper(layers: Layers, fn: Callable) -> Callable:
    timed = layers.timed("telescope.observe", fn)

    @functools.wraps(fn)
    def observe(cls, ground_truth, *args, **kwargs):
        ground_truth = list(ground_truth)
        layers.counts["telescope.attacks_in"] += len(ground_truth)
        feed = timed(cls, ground_truth, *args, **kwargs)
        layers.counts["telescope.attacks_inferred"] += len(feed.attacks)
        return feed

    return observe


def _load_day_wrapper(layers: Layers, fn: Callable) -> Callable:
    """Counts ``load_day`` calls answered from the in-process partition
    set: a call that reaches no cache fetch was a hit."""
    timed = layers.timed("serve.load_day", fn)
    calls = layers.calls

    @functools.wraps(fn)
    def load_day(self, day, phase):
        fetches = calls["artifacts.fetch"]
        artifact = timed(self, day, phase)
        if calls["artifacts.fetch"] == fetches:
            layers.counts["serve.partition_hits"] += 1
        return artifact

    return load_day


def _handle_wrapper(layers: Layers, fn: Callable) -> Callable:
    """Per-endpoint ``QueryService.handle`` durations, in ms."""
    samples = layers.samples
    clock = time.perf_counter

    @functools.wraps(fn)
    def handle(self, target, *args, **kwargs):
        t0 = clock()
        response = fn(self, target, *args, **kwargs)
        elapsed_ms = (clock() - t0) * 1000.0
        endpoint = urlsplit(target).path.rstrip("/").rsplit("/", 1)[-1]
        samples["serve.handle_ms"].append(elapsed_ms)
        samples[f"serve.{endpoint}_ms"].append(elapsed_ms)
        return response

    return handle


def _produce_wrapper(layers: Layers, fn: Callable) -> Callable:
    """Counts every produce, the ones that met a full bounded topic
    (``blocked``), and the ones into a dead-letter topic."""
    counts = layers.counts

    @functools.wraps(fn)
    def produce(self, ts, value):
        counts["streaming.produced"] += 1
        if self.capacity is not None and len(self) >= self.capacity:
            counts["streaming.blocked"] += 1
        if self.name.endswith(".dlq"):
            counts["streaming.dead_letters"] += 1
        return fn(self, ts, value)

    return produce


# -- turning recordings into metrics -----------------------------------------

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def delta(after: Dict, before: Dict) -> Dict:
    """What was recorded between two :meth:`Layers.snapshot` calls."""
    out = {}
    for part in ("calls", "seconds", "counts"):
        out[part] = {k: v - before[part].get(k, 0)
                     for k, v in after[part].items()}
    out["samples"] = {k: v[len(before["samples"].get(k, ())):]
                      for k, v in after["samples"].items()}
    return out


def layer_metrics(run: Dict, setup: Optional[Dict] = None
                  ) -> Dict[str, float]:
    """Per-layer metric values of one round.

    ``run`` is the recording of the round's measured work and ``setup``
    that of its set-up, when the two are told apart: the serve
    workload's reads happen in the run and its writes in the set-up.
    Other workloads pass their whole round as ``run``.
    """
    if setup is None:
        setup = {"calls": {}, "seconds": {}, "counts": {}, "samples": {}}
    both = {part: _sum_parts(setup[part], run[part])
            for part in ("calls", "seconds", "counts")}
    s, c, n = both["seconds"], both["calls"], both["counts"]
    rs, rc, rn = run["seconds"], run["calls"], run["counts"]
    ss, sc, sn = setup["seconds"], setup["calls"], setup["counts"]
    loads = rc.get("serve.load_day", 0)
    out = {
        "world.build_s": s.get("world.build", 0.0),
        "telescope.observe_s": s.get("telescope.observe", 0.0),
        "telescope.attacks_in": n.get("telescope.attacks_in", 0),
        "telescope.attacks_inferred": n.get("telescope.attacks_inferred", 0),
        "crawl.run_s": s.get("crawl.run", 0.0),
        "crawl.rows": n.get("crawl.rows", 0),
        "crawl.transport_calls": c.get("crawl.transport", 0),
        "crawl.transport_s": s.get("crawl.transport", 0.0),
        "core.join_s": s.get("core.join", 0.0),
        "core.events_s": s.get("core.events", 0.0),
        "core.events": n.get("core.events", 0),
        "artifacts.get_calls": rc.get("artifacts.get", 0),
        "artifacts.get_s": rs.get("artifacts.get", 0.0),
        "artifacts.bytes_read": rn.get("artifacts.bytes_read", 0),
        "artifacts.decode_s": (rs.get("artifacts.fetch", 0.0)
                               - rs.get("artifacts.get", 0.0)),
        "artifacts.put_calls": sc.get("artifacts.put", 0),
        "artifacts.put_s": ss.get("artifacts.put", 0.0),
        "artifacts.bytes_written": sn.get("artifacts.bytes_written", 0),
        "artifacts.encode_s": (ss.get("artifacts.save", 0.0)
                               - ss.get("artifacts.put", 0.0)),
        "serve.build_s": ss.get("serve.build", 0.0),
        "serve.partitions_computed": sn.get("serve.partitions_computed", 0),
        "serve.shard_loads": loads - rn.get("serve.partition_hits", 0),
        "serve.partition_hit_ratio": (rn.get("serve.partition_hits", 0)
                                      / loads if loads else 0.0),
        "reactive.ticks": c.get("reactive.tick", 0),
        "reactive.tick_s": s.get("reactive.tick", 0.0),
        "reactive.checkpoints": c.get("reactive.checkpoint", 0),
        "reactive.checkpoint_s": s.get("reactive.checkpoint", 0.0),
        "streaming.produced": n.get("streaming.produced", 0),
        "streaming.blocked": n.get("streaming.blocked", 0),
        "streaming.dead_letters": n.get("streaming.dead_letters", 0),
    }
    for endpoint in ENDPOINTS:
        out[f"serve.{endpoint}_ms"] = median(
            run["samples"].get(f"serve.{endpoint}_ms", ()))
    return out


def _sum_parts(a: Dict, b: Dict) -> Dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out
