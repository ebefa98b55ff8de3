"""The repository's benchmark: workloads, output checks, layer tracing.

Run it through ``perfbench/run.py``; ``perfbench/README.md`` describes
the workloads, the metrics and the reference figures.
"""
