"""End-to-end + per-layer benchmark harness for the CutQC reproduction.

Imports only ``repro``, numpy and the standard library.  ``run.py`` is the
entry point; ``README.md`` defines every metric and workload.
"""
