"""End-to-end and per-layer benchmark of the decomposition stack.

Run it from the repository root::

    python -m benchmarks.e2e run --workload rmat-social --seed 1
    python -m benchmarks.e2e run --workload road-long --trace 1
    python -m benchmarks.e2e compare parent.jsonl change.jsonl

``BENCHMARK.json`` at the repository root declares the workloads and every
metric (name, unit, direction, bound); :mod:`benchmarks.e2e.spec` maps each
per-layer metric to the end-to-end metric it should move.  See ``README.md``
in this directory for the workloads, the metrics and the comparison rule.
"""
