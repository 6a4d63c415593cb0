"""The repository benchmark: seeded offline and live workloads.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the
repository root.  Run with ``PYTHONPATH=src python -m benchmarks.suite``
or ``python3 benchmarks/suite/run.py``.
"""
