"""End-to-end telemetry benchmark for the ``repro`` sketching library.

Run it from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how to
read the traced per-layer split.
"""
