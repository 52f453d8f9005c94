"""The repo benchmark: four replica-round workloads, five end-to-end metrics,
one per-layer trace.

``python -m benchmarks.e2e`` (or ``python3 benchmarks/e2e/run.py``, the command
``BENCHMARK.json`` names) runs every workload in its own pinned subprocess and
prints each metric by name.  ``README.md`` in this directory defines the
metrics and workloads and says which layer should move which number.

Importing this package imports nothing of :mod:`repro`: the parent process
only spawns workers, and the modules that need the program import it
themselves.
"""
