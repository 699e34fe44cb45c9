"""Whole-pipeline benchmark: ``ParallelTrinityDriver.run`` end to end, layer by layer.

Run one workload the way the benchmark driver does::

    python3 -m benchmarks.pipeline --workload whitefly-8r --seed 3 --seconds 20 --trace 0

or every workload, timed and traced, with a printed table and one JSON record::

    python3 -m benchmarks.pipeline --out record.json --trace-out traces/

``README.md`` beside this file holds the metric glossary and the
layer -> end-to-end table; ``spec.py`` is the single declaration of the
workloads and metrics that ``BENCHMARK.json`` lists.
"""
