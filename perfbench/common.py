"""Round runner and small statistics shared by the workloads.

A run repeats whole *rounds* of one workload's fixed work until its
time is up. Each round runs in a fresh interpreter (``python -m
perfbench.child``), so every round starts cold — empty heap, no warm
partition set — and reports its own peak RSS. Rounds exchange plain
JSON with this process, over the child's standard streams.

Between rounds this process times a fixed calibration kernel that does
not use the program. The machine's speed drifts by up to a factor of
two over minutes, and the kernel's time follows it; the reported times
are scaled by it to *reference seconds* (see ``perfbench/README.md``).
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: A round that has not reported by then is broken, not slow.
ROUND_TIMEOUT_S = 150.0

#: What :func:`calibration_s` takes on the reference machine: times in
#: reference seconds are measured seconds times this over the kernel's
#: time around the round. It is a fixed scale, not a measurement; it
#: was set near the kernel's median on a 2-vCPU Xeon container so that
#: reference seconds read about as wall seconds did there.
CALIBRATION_REF_S = 0.2


class RoundFailed(RuntimeError):
    """A round raised, or never reported back."""


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB.

    Read as the high-water mark of the process's own address space
    (``VmHWM``): ``ru_maxrss`` would carry the parent's peak over
    through the spawn of a round's interpreter.
    """
    try:
        with open("/proc/self/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_command(fn: Callable, *args) -> List[str]:
    """The command that runs ``fn(*args)`` in a fresh interpreter."""
    spec = {"fn": f"{fn.__module__}:{fn.__qualname__}", "args": list(args)}
    return [sys.executable, "-m", "perfbench.child", json.dumps(spec)]


def child_env() -> Dict[str, str]:
    """The environment of a child: the checkout's program and benchmark
    first on the path, whatever this process was started with."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def in_child(fn: Callable, *args) -> Dict:
    """``fn(*args)`` in a fresh interpreter; returns what it returned."""
    try:
        proc = subprocess.run(child_command(fn, *args), cwd=ROOT,
                              env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round did not finish in {ROUND_TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"round exited {proc.returncode}")
    return json.loads(lines[-1])


def read_message(proc: subprocess.Popen, what: str,
                 timeout: float = ROUND_TIMEOUT_S):
    """The next JSON line a child writes, or :class:`RoundFailed`."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise RoundFailed(f"child did not {what} in {timeout}s")
    line = proc.stdout.readline()
    if not line:
        raise RoundFailed(f"child exited before it could {what}")
    return json.loads(line)


def send_message(message) -> None:
    """Write one JSON line to this process's standard output."""
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def repeat_rounds(seconds: float, round_fn: Callable[[int], Dict]
                  ) -> List[Dict]:
    """Whole rounds ``round_fn(0)``, ``round_fn(1)``, ... until
    ``seconds`` are used up, with the calibration kernel timed before
    the first round and after each one.

    Each round's result gains ``calibration_s``, the mean of the kernel
    times just before and just after it. A round is not started when
    the longest round so far would not fit in the time left; the first
    round always runs.
    """
    results: List[Dict] = []
    start = time.perf_counter()
    longest = 0.0
    before = calibration_s()
    while True:
        t0 = time.perf_counter()
        result = round_fn(len(results))
        after = calibration_s()
        result["calibration_s"] = (before + after) / 2
        results.append(result)
        before = after
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return results


def reference_scale(result: Dict) -> float:
    """The factor that turns a round's measured seconds into reference
    seconds."""
    return CALIBRATION_REF_S / result["calibration_s"]


def calibration_s() -> float:
    """Seconds the calibration kernel takes now, with the collector off.

    The kernel does the kinds of work the program does: it follows a
    chain of dicts scattered over tens of megabytes in a seeded random
    order (memory-bound), then counts string keys in a small dict
    (interpreter-bound). Building the chain is not timed.
    """
    rng = random.Random(0)
    nodes = [{"name": f"n{i}", "next": None} for i in range(200_000)]
    order = list(range(len(nodes)))
    rng.shuffle(order)
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for a, b in zip(order, order[1:]):
            nodes[a]["next"] = nodes[b]
        total, node = 0, nodes[order[0]]
        while node is not None:
            total += len(node["name"])
            node = node["next"]
        counts: Dict[str, int] = {}
        for i in range(150_000):
            key = f"k{i % 3000}"
            counts[key] = counts.get(key, 0) + i % 7
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def round_seed(seed: int, index: int) -> int:
    """The input seed of round ``index`` of a run with ``seed``: each
    round draws a new world, so a run's median spans several inputs."""
    return seed * 1000 + index


def median_of(rounds: List[Dict], key: str) -> float:
    return statistics.median(r[key] for r in rounds)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-int(q * 1000) * len(sorted_values) // 1000))
    return sorted_values[min(rank, len(sorted_values)) - 1]
