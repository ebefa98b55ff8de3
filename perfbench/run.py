"""Run one workload of the repository's benchmark and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study|serve|reactive \\
        --seed N --seconds S --trace 0|1

The program is imported from the checkout's own ``src/``; without it
the benchmark exits 2 and prints no result. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``). A failed
output check exits 1. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the path, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}; run the "
              "benchmark from the root of a checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        raise SystemExit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("study", "serve", "reactive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _use_checkout_source()
    from perfbench.bench import measure

    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    for error in result.pop("errors"):
        print(f"OPERATION FAILED: {error}", file=sys.stderr)
    for problem in result.pop("problems"):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    rounds = result.pop("rounds")
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} "
          "rounds, measured (setup_s, run_s, calibration_s): " + " ".join(
              f"({r['setup_s']:.3f}, {r['run_s']:.3f}, "
              f"{r['calibration_s']:.3f})" for r in rounds),
          file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
